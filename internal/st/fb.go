package st

import (
	"fmt"
	"time"
)

// FB is a standard function-block instance. Invoke runs one evaluation with
// named inputs at the scan instant; Member reads an output; SetMember assigns
// one input at the scan instant (`t.IN := x;`).
type FB interface {
	Invoke(inputs map[string]Value, now time.Time) error
	Member(name string) (Value, error)
	SetMember(name string, v Value, now time.Time) error
}

func newFB(t TypeName) FB {
	switch t {
	case TypeTON:
		return &tonFB{}
	case TypeTOF:
		return &tofFB{}
	case TypeTP:
		return &tpFB{}
	case TypeRTrig:
		return &rtrigFB{}
	case TypeFTrig:
		return &ftrigFB{}
	case TypeSR:
		return &srFB{}
	case TypeRS:
		return &rsFB{}
	case TypeCTU:
		return &ctuFB{}
	case TypeCTD:
		return &ctdFB{}
	}
	return nil
}

func badMember(fb, name string) error {
	return fmt.Errorf("%w: %s.%s", ErrBadMember, fb, name)
}

// tonFB is the on-delay timer: Q rises PT after IN rises.
type tonFB struct {
	in      bool
	pt      time.Duration
	q       bool
	et      time.Duration
	started time.Time
	running bool
}

func (t *tonFB) Invoke(in map[string]Value, now time.Time) error {
	if v, ok := in["PT"]; ok {
		t.pt = v.AsTime()
	}
	if v, ok := in["IN"]; ok {
		t.in = v.AsBool()
	}
	switch {
	case !t.in:
		t.q, t.et, t.running = false, 0, false
	case !t.running:
		t.running = true
		t.started = now
		t.et = 0
		t.q = t.pt == 0
	default:
		t.et = now.Sub(t.started)
		if t.et >= t.pt {
			t.et = t.pt
			t.q = true
		}
	}
	return nil
}

func (t *tonFB) Member(name string) (Value, error) {
	switch name {
	case "Q":
		return BoolVal(t.q), nil
	case "ET":
		return TimeVal(t.et), nil
	case "IN":
		return BoolVal(t.in), nil
	case "PT":
		return TimeVal(t.pt), nil
	}
	return Value{}, badMember("TON", name)
}

func (t *tonFB) SetMember(name string, v Value, _ time.Time) error {
	switch name {
	case "IN":
		t.in = v.AsBool()
		return nil
	case "PT":
		t.pt = v.AsTime()
		return nil
	}
	return badMember("TON", name)
}

// tofFB is the off-delay timer: Q falls PT after IN falls.
type tofFB struct {
	in      bool
	pt      time.Duration
	q       bool
	et      time.Duration
	started time.Time
	timing  bool
}

func (t *tofFB) Invoke(in map[string]Value, now time.Time) error {
	if v, ok := in["PT"]; ok {
		t.pt = v.AsTime()
	}
	if v, ok := in["IN"]; ok {
		t.in = v.AsBool()
	}
	switch {
	case t.in:
		t.q, t.et, t.timing = true, 0, false
	case t.q && !t.timing:
		t.timing = true
		t.started = now
	case t.timing:
		t.et = now.Sub(t.started)
		if t.et >= t.pt {
			t.et = t.pt
			t.q = false
			t.timing = false
		}
	}
	return nil
}

func (t *tofFB) Member(name string) (Value, error) {
	switch name {
	case "Q":
		return BoolVal(t.q), nil
	case "ET":
		return TimeVal(t.et), nil
	}
	return Value{}, badMember("TOF", name)
}

func (t *tofFB) SetMember(name string, v Value, _ time.Time) error {
	switch name {
	case "IN":
		t.in = v.AsBool()
		return nil
	case "PT":
		t.pt = v.AsTime()
		return nil
	}
	return badMember("TOF", name)
}

// tpFB is the pulse timer: Q is true for PT after a rising edge on IN.
type tpFB struct {
	lastIn  bool
	pt      time.Duration
	q       bool
	et      time.Duration
	started time.Time
}

func (t *tpFB) Invoke(in map[string]Value, now time.Time) error {
	if v, ok := in["PT"]; ok {
		t.pt = v.AsTime()
	}
	cur := t.lastIn
	if v, ok := in["IN"]; ok {
		cur = v.AsBool()
	}
	rising := cur && !t.lastIn
	t.lastIn = cur
	if rising && !t.q {
		t.q = true
		t.started = now
		t.et = 0
	}
	if t.q {
		t.et = now.Sub(t.started)
		if t.et >= t.pt {
			t.et = t.pt
			t.q = false
		}
	}
	return nil
}

func (t *tpFB) Member(name string) (Value, error) {
	switch name {
	case "Q":
		return BoolVal(t.q), nil
	case "ET":
		return TimeVal(t.et), nil
	}
	return Value{}, badMember("TP", name)
}

func (t *tpFB) SetMember(name string, v Value, now time.Time) error {
	switch name {
	case "IN":
		return t.Invoke(map[string]Value{"IN": v}, now)
	case "PT":
		t.pt = v.AsTime()
		return nil
	}
	return badMember("TP", name)
}

// rtrigFB detects rising edges.
type rtrigFB struct {
	last bool
	q    bool
}

func (t *rtrigFB) Invoke(in map[string]Value, _ time.Time) error {
	cur := t.last
	if v, ok := in["CLK"]; ok {
		cur = v.AsBool()
	}
	t.q = cur && !t.last
	t.last = cur
	return nil
}

func (t *rtrigFB) Member(name string) (Value, error) {
	if name == "Q" {
		return BoolVal(t.q), nil
	}
	return Value{}, badMember("R_TRIG", name)
}

func (t *rtrigFB) SetMember(name string, v Value, now time.Time) error {
	if name == "CLK" {
		return t.Invoke(map[string]Value{"CLK": v}, now)
	}
	return badMember("R_TRIG", name)
}

// ftrigFB detects falling edges.
type ftrigFB struct {
	last bool
	q    bool
	seen bool
}

func (t *ftrigFB) Invoke(in map[string]Value, _ time.Time) error {
	cur := t.last
	if v, ok := in["CLK"]; ok {
		cur = v.AsBool()
	}
	t.q = t.seen && !cur && t.last
	t.last = cur
	t.seen = true
	return nil
}

func (t *ftrigFB) Member(name string) (Value, error) {
	if name == "Q" {
		return BoolVal(t.q), nil
	}
	return Value{}, badMember("F_TRIG", name)
}

func (t *ftrigFB) SetMember(name string, v Value, now time.Time) error {
	if name == "CLK" {
		return t.Invoke(map[string]Value{"CLK": v}, now)
	}
	return badMember("F_TRIG", name)
}

// srFB is a set-dominant latch.
type srFB struct{ q bool }

func (t *srFB) Invoke(in map[string]Value, _ time.Time) error {
	r := false
	if v, ok := in["R"]; ok {
		r = v.AsBool()
	}
	s := false
	if v, ok := in["S1"]; ok {
		s = v.AsBool()
	} else if v, ok := in["S"]; ok {
		s = v.AsBool()
	}
	// Set dominates.
	t.q = s || (t.q && !r)
	return nil
}

func (t *srFB) Member(name string) (Value, error) {
	if name == "Q" || name == "Q1" {
		return BoolVal(t.q), nil
	}
	return Value{}, badMember("SR", name)
}

func (t *srFB) SetMember(name string, v Value, _ time.Time) error { return badMember("SR", name) }

// rsFB is a reset-dominant latch.
type rsFB struct{ q bool }

func (t *rsFB) Invoke(in map[string]Value, _ time.Time) error {
	s := false
	if v, ok := in["S"]; ok {
		s = v.AsBool()
	}
	r := false
	if v, ok := in["R1"]; ok {
		r = v.AsBool()
	} else if v, ok := in["R"]; ok {
		r = v.AsBool()
	}
	// Reset dominates.
	t.q = (s || t.q) && !r
	return nil
}

func (t *rsFB) Member(name string) (Value, error) {
	if name == "Q" || name == "Q1" {
		return BoolVal(t.q), nil
	}
	return Value{}, badMember("RS", name)
}

func (t *rsFB) SetMember(name string, v Value, _ time.Time) error { return badMember("RS", name) }

// ctuFB counts rising edges on CU up to PV.
type ctuFB struct {
	lastCU bool
	cv     int64
	pv     int64
	q      bool
}

func (t *ctuFB) Invoke(in map[string]Value, _ time.Time) error {
	if v, ok := in["PV"]; ok {
		t.pv = v.AsInt()
	}
	if v, ok := in["R"]; ok && v.AsBool() {
		t.cv = 0
	}
	cur := t.lastCU
	if v, ok := in["CU"]; ok {
		cur = v.AsBool()
	}
	if cur && !t.lastCU {
		t.cv++
	}
	t.lastCU = cur
	t.q = t.cv >= t.pv
	return nil
}

func (t *ctuFB) Member(name string) (Value, error) {
	switch name {
	case "Q":
		return BoolVal(t.q), nil
	case "CV":
		return IntVal(t.cv), nil
	}
	return Value{}, badMember("CTU", name)
}

func (t *ctuFB) SetMember(name string, v Value, _ time.Time) error {
	if name == "PV" {
		t.pv = v.AsInt()
		return nil
	}
	return badMember("CTU", name)
}

// ctdFB counts down from PV on CD edges.
type ctdFB struct {
	lastCD bool
	cv     int64
	pv     int64
	q      bool
}

func (t *ctdFB) Invoke(in map[string]Value, _ time.Time) error {
	if v, ok := in["PV"]; ok {
		t.pv = v.AsInt()
	}
	if v, ok := in["LD"]; ok && v.AsBool() {
		t.cv = t.pv
	}
	cur := t.lastCD
	if v, ok := in["CD"]; ok {
		cur = v.AsBool()
	}
	if cur && !t.lastCD && t.cv > 0 {
		t.cv--
	}
	t.lastCD = cur
	t.q = t.cv <= 0
	return nil
}

func (t *ctdFB) Member(name string) (Value, error) {
	switch name {
	case "Q":
		return BoolVal(t.q), nil
	case "CV":
		return IntVal(t.cv), nil
	}
	return Value{}, badMember("CTD", name)
}

func (t *ctdFB) SetMember(name string, v Value, _ time.Time) error {
	if name == "PV" {
		t.pv = v.AsInt()
		return nil
	}
	return badMember("CTD", name)
}
