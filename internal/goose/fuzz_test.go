package goose

// Native Go fuzz target for the arena decoder. On arbitrary bytes
// Decoder.Unmarshal must never panic and must agree with the reference
// Unmarshal (a fresh decoder per call) in both error and decoded value. One
// interning decoder is reused across inputs, so stale arena or intern-table
// state from an earlier packet would show as a disagreement.
//
// Seeds are Marshal output; minimized finds live in testdata/fuzz/<FuzzName>/
// and plain `go test` replays them.

import (
	"fmt"
	"testing"

	"repro/internal/mms"
)

func FuzzDecoderUnmarshal(f *testing.F) {
	for _, values := range []int{0, 1, 3, 8} {
		f.Add(Marshal(0x0101, sampleMessage(values)))
	}
	f.Add(Marshal(0x0001, Message{GocbRef: "ref", Values: []mms.Value{
		mms.NewInt(-5), mms.NewUnsigned(7), {Kind: mms.KindStructure, Fields: []mms.Value{mms.NewBool(true)}},
	}}))
	f.Add([]byte{0x00, 0x01, 0x00, 0x0A, 0, 0, 0, 0, 0x61, 0x00})
	dec := NewDecoder()
	f.Fuzz(func(t *testing.T, payload []byte) {
		wantID, want, wantErr := Unmarshal(payload)
		gotID, got, gotErr := dec.Unmarshal(payload)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("error: arena %v, reference %v", gotErr, wantErr)
		}
		// %#v compares NaN floats equal and keeps nil and empty slices apart.
		if wantID != gotID || fmt.Sprintf("%#v", want) != fmt.Sprintf("%#v", got) {
			t.Fatalf("value: arena %#x %#v, reference %#x %#v", gotID, got, wantID, want)
		}
	})
}
