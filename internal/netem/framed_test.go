package netem

import (
	"errors"
	"io"
	"testing"
)

// chunkReader replays reads one step at a time: a chunk of bytes, or an
// error when the chunk is nil.
type chunkReader struct {
	chunks [][]byte
	err    error
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	c := r.chunks[0]
	r.chunks = r.chunks[1:]
	if c == nil {
		return 0, r.err
	}
	return copy(p, c), nil
}

var errBadHeader = errors.New("bad header")

// lenByteSize is a toy framing: a 2-byte header, a 0x7E marker followed by
// the frame's total length.
func lenByteSize(hdr []byte) (int, error) {
	if hdr[0] != 0x7E || hdr[1] < 2 {
		return 0, errBadHeader
	}
	return int(hdr[1]), nil
}

func TestFrameReaderKeepsPartialFrameAcrossTimeout(t *testing.T) {
	// Two frames, "abc" and "d"; the first is cut short by a read timeout.
	// The bytes read so far stay buffered, so the next call completes the
	// frame instead of misreading the rest as a header. A bad header ends
	// the stream with the size function's error.
	timeout := errors.New("deadline")
	for _, tc := range []struct {
		name   string
		chunks [][]byte
		end    error
	}{
		{"inside the payload", [][]byte{{0x7E, 5, 'a'}, nil, {'b', 'c', 0x7E, 3}, {'d'}}, io.EOF},
		{"inside the header", [][]byte{{0x7E}, nil, {5, 'a', 'b'}, nil, {'c', 0x7E}, {3, 'd'}}, io.EOF},
		{"bad header", [][]byte{{0x7E, 5, 'a'}, nil, {'b', 'c', 0x7E, 3, 'd', 0x00, 9}}, errBadHeader},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFrameReader(&chunkReader{err: timeout, chunks: tc.chunks}, 2, lenByteSize)
			var got []string
			for {
				frame, err := f.Next()
				if errors.Is(err, timeout) {
					continue
				}
				if err != nil {
					if !errors.Is(err, tc.end) {
						t.Fatalf("Next = %v, want %v at the end", err, tc.end)
					}
					break
				}
				got = append(got, string(frame[2:]))
			}
			if len(got) != 2 || got[0] != "abc" || got[1] != "d" {
				t.Errorf("frames = %q, want [abc d]", got)
			}
		})
	}
}
