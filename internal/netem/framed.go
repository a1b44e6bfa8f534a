package netem

import (
	"io"
	"slices"
)

// FrameReader splits a byte stream into length-prefixed frames, the framing
// of the request/response protocols that run over ServeTCP and DialTCP
// connections (MMS's TPKT, Modbus's MBAP). Each frame starts with a
// fixed-length header from which a size function derives the frame's total
// length. It reads into one reused buffer, and the bytes of a frame cut short
// by a read deadline stay buffered, so a timed-out read leaves the stream in
// step for the next one.
type FrameReader struct {
	r      io.Reader
	hdrLen int
	size   func(hdr []byte) (int, error)
	buf    []byte // buf[off:] is received but not yet returned
	off    int
}

// NewFrameReader reads frames from r. size is handed the first hdrLen bytes
// of each frame and returns the frame's total length, header included, which
// must be at least hdrLen; an error from it ends the stream's framing and is
// returned by Next.
func NewFrameReader(r io.Reader, hdrLen int, size func(hdr []byte) (int, error)) *FrameReader {
	return &FrameReader{r: r, hdrLen: hdrLen, size: size}
}

// Next returns the next frame, header included, valid until the following
// call.
func (f *FrameReader) Next() ([]byte, error) {
	for {
		rest := f.buf[f.off:]
		if len(rest) >= f.hdrLen {
			total, err := f.size(rest[:f.hdrLen])
			if err != nil {
				return nil, err
			}
			if len(rest) >= total {
				f.off += total
				return rest[:total], nil
			}
		}
		// The last frame returned is dead now: slide the unread bytes to the
		// front, and grow the buffer only when they already fill it.
		f.buf, f.off = f.buf[:copy(f.buf, rest)], 0
		if len(f.buf) == cap(f.buf) {
			f.buf = slices.Grow(f.buf, max(len(f.buf), 256))
		}
		n, err := f.r.Read(f.buf[len(f.buf):cap(f.buf)])
		f.buf = f.buf[:len(f.buf)+n]
		if err != nil {
			return nil, err
		}
	}
}
