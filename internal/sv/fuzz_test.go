package sv

// Native Go fuzz target for the arena decoder. On arbitrary bytes
// Decoder.Unmarshal must never panic and must agree with the reference
// Unmarshal (a fresh decoder per call) in both error and decoded value. One
// decoder is reused across inputs, so stale arena state from an earlier
// packet would show as a disagreement.
//
// Seeds are Marshal output; minimized finds live in testdata/fuzz/<FuzzName>/
// and plain `go test` replays them.

import (
	"fmt"
	"testing"
)

func FuzzDecoderUnmarshal(f *testing.F) {
	for _, values := range []int{0, 1, 6, 40} {
		f.Add(Marshal(0x4000, sampleASDU(values)))
	}
	f.Add([]byte{0x40, 0x01, 0x00, 0x0C, 0, 0, 0, 0, 0x30, 0x02, 0x01, 0x01})
	var dec Decoder
	f.Fuzz(func(t *testing.T, payload []byte) {
		wantID, want, wantErr := Unmarshal(payload)
		gotID, got, gotErr := dec.Unmarshal(payload)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("error: arena %v, reference %v", gotErr, wantErr)
		}
		// %#v compares NaN samples equal and keeps nil and empty slices apart.
		if wantID != gotID || fmt.Sprintf("%#v", want) != fmt.Sprintf("%#v", got) {
			t.Fatalf("value: arena %#x %#v, reference %#x %#v", gotID, got, wantID, want)
		}
	})
}
