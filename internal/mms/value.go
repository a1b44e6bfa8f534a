// Package mms implements an MMS (Manufacturing Message Specification,
// ISO 9506) protocol stack for the cyber range, the substitute for
// libiec61850's MMS layer (§III-B).
//
// IEC 61850 uses MMS between SCADA/PLCs and IEDs for interrogation and
// control. This implementation speaks a BER-encoded, MMS-shaped wire protocol
// over the emulated network's TCP streams: initiate handshake, read, write,
// getNameList and information reports, with IEC 61850-style object references
// ("LD0/MMXU1.A.phsA"). Messages are real bytes on the wire — the false
// command injection case study (§IV-B) crafts standard-compliant PDUs with
// this same client, exactly as IEC61850bean does on the original range.
//
// The OSI lower layers (TPKT/COTP/session/presentation) are collapsed into a
// 4-byte TPKT-style framing header; README, "Substitutions", records this
// substitution.
package mms

import (
	"fmt"
	"strings"
	"time"
)

// ValueKind enumerates MMS Data alternatives used by IEC 61850.
type ValueKind int

// Value kinds, numbered after the MMS Data CHOICE context tags.
const (
	KindStructure ValueKind = iota + 1
	KindBool
	KindBitString
	KindInt
	KindUnsigned
	KindFloat
	KindString
	KindUTCTime
)

func (k ValueKind) String() string {
	switch k {
	case KindStructure:
		return "structure"
	case KindBool:
		return "boolean"
	case KindBitString:
		return "bit-string"
	case KindInt:
		return "integer"
	case KindUnsigned:
		return "unsigned"
	case KindFloat:
		return "floating-point"
	case KindString:
		return "visible-string"
	case KindUTCTime:
		return "utc-time"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is one MMS data value.
type Value struct {
	Kind   ValueKind
	Bool   bool
	Int    int64
	Uint   uint64
	Float  float64
	Str    string
	Bits   []byte
	NBits  int
	Time   time.Time
	Fields []Value // for KindStructure
}

// Bool returns a boolean value.
func NewBool(v bool) Value { return Value{Kind: KindBool, Bool: v} }

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// NewUnsigned returns an unsigned value.
func NewUnsigned(v uint64) Value { return Value{Kind: KindUnsigned, Uint: v} }

// NewFloat returns a floating-point value.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// NewString returns a visible-string value.
func NewString(v string) Value { return Value{Kind: KindString, Str: v} }

// NewBitString returns a bit-string value.
func NewBitString(bits []byte, nbits int) Value {
	return Value{Kind: KindBitString, Bits: bits, NBits: nbits}
}

// NewUTCTime returns a UTC timestamp value.
func NewUTCTime(t time.Time) Value { return Value{Kind: KindUTCTime, Time: t} }

// NewStructure returns a structured value.
func NewStructure(fields ...Value) Value { return Value{Kind: KindStructure, Fields: fields} }

// Equal reports deep equality (timestamps compared at microsecond grain,
// matching the wire format's fraction precision).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindBool:
		return v.Bool == o.Bool
	case KindInt:
		return v.Int == o.Int
	case KindUnsigned:
		return v.Uint == o.Uint
	case KindFloat:
		return v.Float == o.Float
	case KindString:
		return v.Str == o.Str
	case KindBitString:
		if v.NBits != o.NBits || len(v.Bits) != len(o.Bits) {
			return false
		}
		for i := range v.Bits {
			if v.Bits[i] != o.Bits[i] {
				return false
			}
		}
		return true
	case KindUTCTime:
		return v.Time.Truncate(time.Microsecond).Equal(o.Time.Truncate(time.Microsecond))
	case KindStructure:
		if len(v.Fields) != len(o.Fields) {
			return false
		}
		for i := range v.Fields {
			if !v.Fields[i].Equal(o.Fields[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func (v Value) String() string {
	switch v.Kind {
	case KindBool:
		return fmt.Sprintf("%t", v.Bool)
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	case KindUnsigned:
		return fmt.Sprintf("%du", v.Uint)
	case KindFloat:
		return fmt.Sprintf("%g", v.Float)
	case KindString:
		return fmt.Sprintf("%q", v.Str)
	case KindBitString:
		return fmt.Sprintf("bits(%d)", v.NBits)
	case KindUTCTime:
		return v.Time.UTC().Format(time.RFC3339Nano)
	case KindStructure:
		parts := make([]string, len(v.Fields))
		for i, f := range v.Fields {
			parts[i] = f.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return "<invalid>"
	}
}

// ObjectReference is an IEC 61850-style reference "LDName/LNName.DO.DA".
type ObjectReference string

// Split returns the domain (logical device) and item parts.
func (r ObjectReference) Split() (domain, item string) {
	s := string(r)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return "", s
}

// Valid reports whether the reference has both domain and item parts.
func (r ObjectReference) Valid() bool {
	d, item := r.Split()
	return d != "" && item != ""
}
