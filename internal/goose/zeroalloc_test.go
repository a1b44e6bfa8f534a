package goose

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/mms"
	"repro/internal/netem"
	"repro/internal/testutil"
)

// payloadRecorder copies delivered payloads under a lock (frame handlers run
// on the host worker goroutine and must not retain pooled payloads).
type payloadRecorder struct {
	mu sync.Mutex
	ps [][]byte
}

func (r *payloadRecorder) record(f netem.Frame) {
	r.mu.Lock()
	r.ps = append(r.ps, append([]byte(nil), f.Payload...))
	r.mu.Unlock()
}

func (r *payloadRecorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ps)
}

func (r *payloadRecorder) snapshot() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.ps...)
}

func sampleMessage(values int) Message {
	m := Message{
		GocbRef: "GIED1LD0/LLN0$GO$gcb1", DatSet: "GIED1LD0/LLN0$ds", GoID: "gcb1",
		Timestamp: time.Unix(1_700_000_000, 123456789).UTC(),
		StNum:     42, SqNum: 3, TTLMillis: 2000, ConfRev: 7,
	}
	for i := 0; i < values; i++ {
		switch i % 3 {
		case 0:
			m.Values = append(m.Values, mms.NewBool(i%2 == 0))
		case 1:
			m.Values = append(m.Values, mms.NewFloat(float64(i)*1.5))
		default:
			m.Values = append(m.Values, mms.NewString(fmt.Sprintf("val-%d", i)))
		}
	}
	return m
}

func TestMarshalAppendMatchesMarshal(t *testing.T) {
	// Sizes chosen to cross the BER length-form boundaries inside the PDU.
	for _, values := range []int{0, 1, 3, 20, 60} {
		m := sampleMessage(values)
		want := Marshal(0x3001, m)
		got := MarshalAppend(nil, 0x3001, m)
		if !bytes.Equal(want, got) {
			t.Fatalf("values=%d: MarshalAppend differs from Marshal", values)
		}
		// Appending after a prefix preserves the prefix and the encoding.
		withPrefix := MarshalAppend([]byte{0xAA, 0xBB}, 0x3001, m)
		if !bytes.Equal(withPrefix[:2], []byte{0xAA, 0xBB}) || !bytes.Equal(withPrefix[2:], want) {
			t.Fatalf("values=%d: prefixed MarshalAppend corrupts output", values)
		}
	}
}

func TestDecoderMatchesUnmarshal(t *testing.T) {
	var dec Decoder
	for _, values := range []int{0, 1, 3, 20, 60} {
		m := sampleMessage(values)
		payload := Marshal(0x3001, m)
		wantID, wantMsg, wantErr := Unmarshal(payload)
		gotID, gotMsg, gotErr := dec.Unmarshal(payload)
		if (wantErr == nil) != (gotErr == nil) || wantID != gotID {
			t.Fatalf("values=%d: header mismatch", values)
		}
		if !reflect.DeepEqual(wantMsg, gotMsg) {
			t.Fatalf("values=%d: arena decode differs from Unmarshal", values)
		}
	}
}

func TestDecodeHeaderMatchesUnmarshal(t *testing.T) {
	var dec Decoder
	m := sampleMessage(4)
	payload := Marshal(0x3001, m)
	appID, hdr, err := dec.DecodeHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	if appID != 0x3001 || string(hdr.GocbRef) != m.GocbRef || hdr.StNum != m.StNum || hdr.SqNum != m.SqNum {
		t.Errorf("header = %d %q st=%d sq=%d", appID, hdr.GocbRef, hdr.StNum, hdr.SqNum)
	}
	// Malformed inputs error like the full decode.
	for _, b := range [][]byte{nil, {1, 2, 3}, payload[:9]} {
		if _, _, err := dec.DecodeHeader(b); err == nil {
			t.Errorf("DecodeHeader(%x) accepted malformed input", b)
		}
	}
}

func TestSubscriberDroppedCounter(t *testing.T) {
	s := &Subscriber{lastSt: make(map[string]uint32), ch: make(chan Update, 2)}
	for i := 0; i < 5; i++ {
		s.deliver(1, Message{GocbRef: "g", StNum: uint32(i + 1)})
	}
	if got := s.Received(); got != 5 {
		t.Errorf("received = %d", got)
	}
	if got := s.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3 (channel capacity 2)", got)
	}
	// Draining frees capacity; subsequent deliveries are not dropped.
	<-s.Updates()
	s.deliver(1, Message{GocbRef: "g", StNum: 6})
	if got := s.Dropped(); got != 3 {
		t.Errorf("dropped moved to %d after drain", got)
	}
}

func TestWarmMarshalUnmarshalAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	m := sampleMessage(3)
	dec := NewDecoder()
	var buf []byte
	op := func() {
		buf = MarshalAppend(buf[:0], 0x3001, m)
		if _, _, err := dec.Unmarshal(buf); err != nil {
			t.Fatal(err)
		}
	}
	op() // warm buffer, arena and interned identities
	// Budget: marshal is allocation-free; with interned identity strings the
	// decoded Message owns only its values slice and the one string dataset
	// member (~2 allocs). Slack of 2 guards against GC noise without masking
	// a regression back to tree-per-packet decoding (~20+).
	if n := testing.AllocsPerRun(200, op); n > 4 {
		t.Errorf("warm marshal+unmarshal allocates %.1f/op, budget 4", n)
	}
	headerOnly := func() {
		if _, _, err := dec.DecodeHeader(buf); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, headerOnly); n > 0 {
		t.Errorf("header-only decode allocates %.1f/op, want 0", n)
	}
}

func TestPooledPublishDeliversIdenticalBytes(t *testing.T) {
	// Differential: the pooled publish path delivers the same wire bytes to
	// subscribers as the reference path for the same message sequence.
	run := func(pooling bool) [][]byte {
		n := netem.NewNetwork()
		n.SetFramePooling(pooling)
		if _, err := netem.NewSwitch(n, "sw", 4); err != nil {
			t.Fatal(err)
		}
		pubHost, err := netem.NewHost(n, "pub", netem.MAC{2, 0, 0, 0, 0, 1}, netem.IPv4{10, 0, 0, 1})
		if err != nil {
			t.Fatal(err)
		}
		subHost, err := netem.NewHost(n, "sub", netem.MAC{2, 0, 0, 0, 0, 2}, netem.IPv4{10, 0, 0, 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Connect("pub", 0, "sw", 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Connect("sub", 0, "sw", 1, 0); err != nil {
			t.Fatal(err)
		}
		var log payloadRecorder
		subHost.JoinMulticast(netem.GooseMAC(0x0001))
		subHost.HandleEtherType(netem.EtherTypeGOOSE, log.record)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		pub := NewPublisher(pubHost, PublisherConfig{
			GocbRef: "g1", DatSet: "ds", GoID: "go", AppID: 0x0001, ConfRev: 1,
		})
		for i := 0; i < 10; i++ {
			pub.Publish(time.Unix(1_700_000_000, 0), mms.NewBool(i%2 == 0), mms.NewFloat(float64(i)))
		}
		deadline := time.Now().Add(2 * time.Second)
		for log.len() < 10 {
			if time.Now().After(deadline) {
				t.Fatal("missing deliveries")
			}
			time.Sleep(time.Millisecond)
		}
		return log.snapshot()
	}
	ref := run(false)
	pooled := run(true)
	if len(ref) != len(pooled) {
		t.Fatalf("delivered %d vs %d", len(ref), len(pooled))
	}
	for i := range ref {
		if !bytes.Equal(ref[i], pooled[i]) {
			t.Fatalf("frame %d differs between reference and pooled publish paths", i)
		}
	}
}
