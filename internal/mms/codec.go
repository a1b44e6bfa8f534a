package mms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/ber"
)

// PDU type tags (context-specific constructed, after the MMS PDU CHOICE).
const (
	tagConfirmedRequest  = 0xA0 // [0]
	tagConfirmedResponse = 0xA1 // [1]
	tagConfirmedError    = 0xA2 // [2]
	tagUnconfirmed       = 0xA3 // [3]
	tagInitiateRequest   = 0xA8 // [8]
	tagInitiateResponse  = 0xA9 // [9]
	tagConclude          = 0xAB // [11]
)

// Service tags within a confirmed request/response.
const (
	svcGetNameList = 0x01
	svcRead        = 0x04
	svcWrite       = 0x05
	svcInfoReport  = 0x00 // within unconfirmed PDU
)

// Data CHOICE tags (context-specific), following MMS Data encoding.
const (
	dataStructure = 0xA2 // [2] constructed
	dataBool      = 0x83 // [3]
	dataBitString = 0x84 // [4]
	dataInt       = 0x85 // [5]
	dataUnsigned  = 0x86 // [6]
	dataFloat     = 0x87 // [7]
	dataString    = 0x8A // [10]
	dataUTCTime   = 0x91 // [17]
)

// Codec errors.
var (
	ErrFraming  = errors.New("mms: bad framing")
	ErrBadPDU   = errors.New("mms: malformed PDU")
	ErrTooLarge = errors.New("mms: message exceeds maximum size")
)

// maxMessage is the largest message size announced in the initiate exchange.
const maxMessage = 1 << 20

// pdu is a decoded MMS message.
type pdu struct {
	kind     byte // one of the tag* constants
	invokeID uint32
	service  byte // for confirmed PDUs
	body     ber.TLV
	errCode  int64 // for confirmedError
}

// writeFrame writes a TPKT-style frame: version 3, reserved 0, 16-bit length
// (including the 4-byte header).
func writeFrame(w io.Writer, payload []byte) error {
	_, err := writeFrameReuse(w, nil, payload)
	return err
}

// writeFrameReuse is writeFrame with a caller-owned assembly buffer: the
// frame is built in scratch (grown as needed) and the buffer is returned for
// reuse, so a connection's steady-state response path allocates nothing. The
// TCP stack copies written bytes into segments, so reuse is safe.
func writeFrameReuse(w io.Writer, scratch, payload []byte) ([]byte, error) {
	if len(payload)+4 > 0xFFFF {
		return scratch, ErrTooLarge
	}
	// One buffer, one Write: keeps header and PDU in a single TCP segment,
	// which both halves segment count and lets passive monitors (the IDS)
	// parse frames without stream reassembly.
	buf := append(scratch[:0], 0x03, 0x00,
		byte((len(payload)+4)>>8), byte(len(payload)+4))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return buf, err
}

// frameSize is the one check of a TPKT header: version 3 and a 16-bit total
// length that covers at least the 4-byte header. It is the size function of
// every MMS frame reader and of ContainsWrite.
func frameSize(hdr []byte) (int, error) {
	total := int(binary.BigEndian.Uint16(hdr[2:]))
	if hdr[0] != 0x03 || total < 4 {
		return 0, fmt.Errorf("%w: header % x", ErrFraming, hdr[:4])
	}
	return total, nil
}

// ContainsWrite reports whether b, the bytes of one TCP segment, holds a
// TPKT frame whose PDU decodes as a confirmed write request: the acceptance
// a server applies before it executes a write. The walk stops at the first
// bad header or a frame the segment cuts short. Passive monitors (the IDS)
// call it, so they parse no TPKT or BER themselves.
func ContainsWrite(b []byte) bool {
	for len(b) >= 4 {
		total, err := frameSize(b)
		if err != nil || total > len(b) {
			return false
		}
		if p, err := decodePDU(b[4:total]); err == nil && p.kind == tagConfirmedRequest && p.service == svcWrite {
			return true
		}
		b = b[total:]
	}
	return false
}

// encodeValue appends the MMS Data encoding of v.
func encodeValue(e *ber.Encoder, v Value) {
	switch v.Kind {
	case KindBool:
		e.AppendBool(dataBool, v.Bool)
	case KindInt:
		e.AppendInt(dataInt, v.Int)
	case KindUnsigned:
		e.AppendUint(dataUnsigned, v.Uint)
	case KindFloat:
		e.AppendFloat64(dataFloat, v.Float)
	case KindString:
		e.AppendString(dataString, v.Str)
	case KindBitString:
		e.AppendBitString(dataBitString, v.Bits, v.NBits)
	case KindUTCTime:
		e.AppendUTCTime(dataUTCTime, v.Time.Unix(), int64(v.Time.Nanosecond()))
	case KindStructure:
		e.AppendConstructed(dataStructure, func(inner *ber.Encoder) {
			for _, f := range v.Fields {
				encodeValue(inner, f)
			}
		})
	}
}

// decodeValue parses one MMS Data TLV.
func decodeValue(t ber.TLV) (Value, error) {
	switch t.Tag {
	case dataBool:
		b, err := t.Bool()
		if err != nil {
			return Value{}, err
		}
		return NewBool(b), nil
	case dataInt:
		i, err := t.Int()
		if err != nil {
			return Value{}, err
		}
		return NewInt(i), nil
	case dataUnsigned:
		u, err := t.Uint()
		if err != nil {
			return Value{}, err
		}
		return NewUnsigned(u), nil
	case dataFloat:
		f, err := t.Float64()
		if err != nil {
			return Value{}, err
		}
		return NewFloat(f), nil
	case dataString:
		return NewString(t.String()), nil
	case dataBitString:
		bits, n, err := t.BitString()
		if err != nil {
			return Value{}, err
		}
		return NewBitString(append([]byte(nil), bits...), n), nil
	case dataUTCTime:
		sec, nanos, err := t.UTCTime()
		if err != nil {
			return Value{}, err
		}
		return NewUTCTime(time.Unix(sec, nanos).UTC()), nil
	case dataStructure:
		out := Value{Kind: KindStructure}
		for _, c := range t.Children {
			f, err := decodeValue(c)
			if err != nil {
				return Value{}, err
			}
			out.Fields = append(out.Fields, f)
		}
		return out, nil
	default:
		return Value{}, fmt.Errorf("%w: data tag 0x%02x", ErrBadPDU, t.Tag)
	}
}

// encodeObjectName appends a domain-specific object name: [1] { domainID,
// itemID } as visible strings.
func encodeObjectName(e *ber.Encoder, ref ObjectReference) {
	domain, item := ref.Split()
	e.AppendConstructed(ber.ContextConstructed(1), func(inner *ber.Encoder) {
		inner.AppendString(ber.ContextTag(0), domain)
		inner.AppendString(ber.ContextTag(1), item)
	})
}

func decodeObjectName(t ber.TLV) (ObjectReference, error) {
	if t.Tag != ber.ContextConstructed(1) || len(t.Children) != 2 {
		return "", fmt.Errorf("%w: object name tag 0x%02x", ErrBadPDU, t.Tag)
	}
	return ObjectReference(t.Children[0].String() + "/" + t.Children[1].String()), nil
}

// --- request/response builders -------------------------------------------
//
// Every builder is a MarshalAppend-style fast path: it appends the encoded
// PDU to dst and returns the extended buffer, so callers that reuse a
// scratch buffer (the server's per-connection response path) encode without
// allocating. Pass nil for a one-shot encode.

func encodeInitiateRequest(dst []byte, vendor string) []byte {
	var e ber.Encoder
	e.UseBuf(dst)
	e.AppendConstructed(tagInitiateRequest, func(inner *ber.Encoder) {
		inner.AppendInt(ber.ContextTag(0), maxMessage)
		inner.AppendString(ber.ContextTag(1), vendor)
	})
	return e.Bytes()
}

func encodeInitiateResponse(dst []byte, vendor, model string) []byte {
	var e ber.Encoder
	e.UseBuf(dst)
	e.AppendConstructed(tagInitiateResponse, func(inner *ber.Encoder) {
		inner.AppendInt(ber.ContextTag(0), maxMessage)
		inner.AppendString(ber.ContextTag(1), vendor)
		inner.AppendString(ber.ContextTag(2), model)
	})
	return e.Bytes()
}

func encodeReadRequest(dst []byte, invokeID uint32, ref ObjectReference) []byte {
	var e ber.Encoder
	e.UseBuf(dst)
	e.AppendConstructed(tagConfirmedRequest, func(inner *ber.Encoder) {
		inner.AppendUint(0x02, uint64(invokeID)) // universal INTEGER invokeID
		inner.AppendConstructed(ber.ContextConstructed(svcRead), func(svc *ber.Encoder) {
			encodeObjectName(svc, ref)
		})
	})
	return e.Bytes()
}

func encodeReadResponse(dst []byte, invokeID uint32, v Value) []byte {
	var e ber.Encoder
	e.UseBuf(dst)
	e.AppendConstructed(tagConfirmedResponse, func(inner *ber.Encoder) {
		inner.AppendUint(0x02, uint64(invokeID))
		inner.AppendConstructed(ber.ContextConstructed(svcRead), func(svc *ber.Encoder) {
			encodeValue(svc, v)
		})
	})
	return e.Bytes()
}

func encodeWriteRequest(dst []byte, invokeID uint32, ref ObjectReference, v Value) []byte {
	var e ber.Encoder
	e.UseBuf(dst)
	e.AppendConstructed(tagConfirmedRequest, func(inner *ber.Encoder) {
		inner.AppendUint(0x02, uint64(invokeID))
		inner.AppendConstructed(ber.ContextConstructed(svcWrite), func(svc *ber.Encoder) {
			encodeObjectName(svc, ref)
			encodeValue(svc, v)
		})
	})
	return e.Bytes()
}

func encodeWriteResponse(dst []byte, invokeID uint32) []byte {
	var e ber.Encoder
	e.UseBuf(dst)
	e.AppendConstructed(tagConfirmedResponse, func(inner *ber.Encoder) {
		inner.AppendUint(0x02, uint64(invokeID))
		inner.AppendConstructed(ber.ContextConstructed(svcWrite), func(svc *ber.Encoder) {
			svc.AppendBool(ber.ContextTag(0), true) // success
		})
	})
	return e.Bytes()
}

func encodeGetNameListRequest(dst []byte, invokeID uint32, domain string) []byte {
	var e ber.Encoder
	e.UseBuf(dst)
	e.AppendConstructed(tagConfirmedRequest, func(inner *ber.Encoder) {
		inner.AppendUint(0x02, uint64(invokeID))
		inner.AppendConstructed(ber.ContextConstructed(svcGetNameList), func(svc *ber.Encoder) {
			svc.AppendString(ber.ContextTag(0), domain)
		})
	})
	return e.Bytes()
}

func encodeGetNameListResponse(dst []byte, invokeID uint32, names []string) []byte {
	var e ber.Encoder
	e.UseBuf(dst)
	e.AppendConstructed(tagConfirmedResponse, func(inner *ber.Encoder) {
		inner.AppendUint(0x02, uint64(invokeID))
		inner.AppendConstructed(ber.ContextConstructed(svcGetNameList), func(svc *ber.Encoder) {
			for _, name := range names {
				svc.AppendString(ber.ContextTag(0), name)
			}
		})
	})
	return e.Bytes()
}

func encodeErrorResponse(dst []byte, invokeID uint32, code int64) []byte {
	var e ber.Encoder
	e.UseBuf(dst)
	e.AppendConstructed(tagConfirmedError, func(inner *ber.Encoder) {
		inner.AppendUint(0x02, uint64(invokeID))
		inner.AppendInt(ber.ContextTag(0), code)
	})
	return e.Bytes()
}

// encodeInfoReport builds an unconfirmed information report carrying a named
// variable and its value (IEC 61850 report semantics, simplified).
func encodeInfoReport(dst []byte, ref ObjectReference, v Value) []byte {
	var e ber.Encoder
	e.UseBuf(dst)
	e.AppendConstructed(tagUnconfirmed, func(inner *ber.Encoder) {
		inner.AppendConstructed(ber.ContextConstructed(svcInfoReport), func(svc *ber.Encoder) {
			encodeObjectName(svc, ref)
			encodeValue(svc, v)
		})
	})
	return e.Bytes()
}

func encodeConclude(dst []byte) []byte {
	var e ber.Encoder
	e.UseBuf(dst)
	e.AppendTLV(tagConclude, nil)
	return e.Bytes()
}

// decodePDU parses the outer PDU envelope. The returned pdu's body retains
// the decoded TLV tree, so it uses the allocating package-level decode;
// consumers that process PDUs strictly one at a time (the server's
// per-connection loop) use decodePDUArena instead.
func decodePDU(payload []byte) (pdu, error) {
	t, n, err := ber.Decode(payload)
	return finishPDU(payload, t, n, err)
}

// decodePDUArena decodes with a reusable TLV arena. The returned pdu aliases
// the decoder's arena and is only valid until d's next Decode call.
func decodePDUArena(d *ber.Decoder, payload []byte) (pdu, error) {
	t, n, err := d.Decode(payload)
	return finishPDU(payload, t, n, err)
}

func finishPDU(payload []byte, t ber.TLV, n int, err error) (pdu, error) {
	if err != nil {
		return pdu{}, fmt.Errorf("%w: %v", ErrBadPDU, err)
	}
	if n != len(payload) {
		return pdu{}, fmt.Errorf("%w: trailing bytes", ErrBadPDU)
	}
	out := pdu{kind: t.Tag, body: t}
	switch t.Tag {
	case tagInitiateRequest, tagInitiateResponse, tagUnconfirmed, tagConclude:
		return out, nil
	case tagConfirmedRequest, tagConfirmedResponse, tagConfirmedError:
		if len(t.Children) < 1 {
			return pdu{}, fmt.Errorf("%w: missing invokeID", ErrBadPDU)
		}
		id, err := t.Children[0].Uint()
		if err != nil {
			return pdu{}, fmt.Errorf("%w: invokeID: %v", ErrBadPDU, err)
		}
		out.invokeID = uint32(id)
		if t.Tag == tagConfirmedError {
			if len(t.Children) > 1 {
				out.errCode, _ = t.Children[1].Int()
			}
			return out, nil
		}
		if len(t.Children) < 2 {
			return pdu{}, fmt.Errorf("%w: missing service element", ErrBadPDU)
		}
		out.service = t.Children[1].Tag & 0x1F
		return out, nil
	default:
		return pdu{}, fmt.Errorf("%w: unknown PDU tag 0x%02x", ErrBadPDU, t.Tag)
	}
}
