package sv

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/testutil"
)

func sampleASDU(values int) Sample {
	s := Sample{
		SvID: "MU01", SmpCnt: 4093, ConfRev: 2,
		RefrTm: time.Unix(1_700_000_000, 500_000_000).UTC(),
	}
	for i := 0; i < values; i++ {
		s.Values = append(s.Values, 0.25*float64(i)-3)
	}
	return s
}

func TestMarshalAppendMatchesMarshalSV(t *testing.T) {
	// 20+ values push the PDU past the short length form.
	for _, values := range []int{0, 1, 6, 20, 40} {
		s := sampleASDU(values)
		want := Marshal(0x4000, s)
		got := MarshalAppend(nil, 0x4000, s)
		if !bytes.Equal(want, got) {
			t.Fatalf("values=%d: MarshalAppend differs from Marshal", values)
		}
		withPrefix := MarshalAppend([]byte{0x01, 0x02}, 0x4000, s)
		if !bytes.Equal(withPrefix[:2], []byte{0x01, 0x02}) || !bytes.Equal(withPrefix[2:], want) {
			t.Fatalf("values=%d: prefixed MarshalAppend corrupts output", values)
		}
	}
}

func TestDecoderMatchesUnmarshalSV(t *testing.T) {
	var dec Decoder
	for _, values := range []int{0, 1, 6, 20, 40} {
		s := sampleASDU(values)
		payload := Marshal(0x4000, s)
		wantID, wantS, wantErr := Unmarshal(payload)
		gotID, gotS, gotErr := dec.Unmarshal(payload)
		if (wantErr == nil) != (gotErr == nil) || wantID != gotID {
			t.Fatalf("values=%d: header mismatch", values)
		}
		if !reflect.DeepEqual(wantS, gotS) {
			t.Fatalf("values=%d: arena decode differs from Unmarshal", values)
		}
	}
}

func TestWarmSVMarshalUnmarshalAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	s := sampleASDU(6)
	var dec Decoder
	var buf []byte
	op := func() {
		buf = MarshalAppend(buf[:0], 0x4000, s)
		if _, _, err := dec.Unmarshal(buf); err != nil {
			t.Fatal(err)
		}
	}
	op() // warm buffer and arena
	// Budget: marshal is allocation-free; the decoded Sample owns its SvID
	// string and Values slice (~3 allocs). Slack of 2 catches a regression
	// back to tree-per-packet decoding without flaking on GC noise.
	if n := testing.AllocsPerRun(200, op); n > 5 {
		t.Errorf("warm SV marshal+unmarshal allocates %.1f/op, budget 5", n)
	}
}
