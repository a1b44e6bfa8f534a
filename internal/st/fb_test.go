package st

import (
	"testing"
	"time"
)

func TestCTDCountdown(t *testing.T) {
	prog := MustParse(`
		VAR c : CTD; clk, load : BOOL; done : BOOL; left : INT; END_VAR
		c(CD := clk, LD := load, PV := 3);
		done := c.Q;
		left := c.CV;
	`)
	env, err := NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Load the preset.
	env.Set("LOAD", BoolVal(true))
	env.Step(time.Now())
	wantInt(t, env, "LEFT", 3)
	wantBool(t, env, "DONE", false)
	env.Set("LOAD", BoolVal(false))
	// Three falling/rising cycles count down to zero.
	for i := 0; i < 3; i++ {
		env.Set("CLK", BoolVal(true))
		env.Step(time.Now())
		env.Set("CLK", BoolVal(false))
		env.Step(time.Now())
	}
	wantInt(t, env, "LEFT", 0)
	wantBool(t, env, "DONE", true)
	// Does not underflow.
	env.Set("CLK", BoolVal(true))
	env.Step(time.Now())
	wantInt(t, env, "LEFT", 0)
}

func TestFBMemberErrors(t *testing.T) {
	for _, typ := range []TypeName{TypeTON, TypeTOF, TypeTP, TypeRTrig, TypeFTrig, TypeSR, TypeRS, TypeCTU, TypeCTD} {
		fb := newFB(typ)
		if fb == nil {
			t.Fatalf("newFB(%s) = nil", typ)
		}
		if _, err := fb.Member("BOGUS"); err == nil {
			t.Errorf("%s.Member(BOGUS) succeeded", typ)
		}
		if err := fb.SetMember("BOGUS", BoolVal(true), time.Time{}); err == nil {
			t.Errorf("%s.SetMember(BOGUS) succeeded", typ)
		}
	}
	if newFB(TypeBool) != nil {
		t.Error("newFB on scalar returned instance")
	}
}

func TestFBDirectMemberAssignment(t *testing.T) {
	// ST allows assigning FB inputs directly: t.IN := x;
	prog := MustParse(`
		VAR t : TON; q : BOOL; END_VAR
		t.PT := T#50ms;
		t.IN := TRUE;
		t(IN := TRUE);
		q := t.Q;
	`)
	env, err := NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(0, 0)
	if err := env.Step(base); err != nil {
		t.Fatal(err)
	}
	if err := env.Step(base.Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	wantBool(t, env, "Q", true)
}

func TestTONZeroPT(t *testing.T) {
	prog := MustParse(`
		VAR t : TON; q : BOOL; END_VAR
		t(IN := TRUE, PT := T#0s);
		q := t.Q;
	`)
	env, _ := NewEnv(prog)
	env.Step(time.Unix(0, 0))
	wantBool(t, env, "Q", true) // zero delay fires immediately
}

func TestSRLatchDefaultInputNames(t *testing.T) {
	// SR accepts S as an alias for S1; RS accepts R for R1.
	prog := MustParse(`
		VAR sr1 : SR; rs1 : RS; q1, q2 : BOOL; END_VAR
		sr1(S := TRUE, R := FALSE);
		rs1(S := TRUE, R := FALSE);
		q1 := sr1.Q1;
		q2 := rs1.Q1;
	`)
	env, _ := NewEnv(prog)
	env.Step(time.Now())
	wantBool(t, env, "Q1", true)
	wantBool(t, env, "Q2", true)
}

func TestTOFMembers(t *testing.T) {
	fb := newFB(TypeTOF)
	if err := fb.SetMember("PT", TimeVal(time.Second), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := fb.SetMember("IN", BoolVal(true), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := fb.Invoke(map[string]Value{"IN": BoolVal(true)}, time.Now()); err != nil {
		t.Fatal(err)
	}
	q, err := fb.Member("Q")
	if err != nil || !q.AsBool() {
		t.Errorf("TOF Q = %v, %v", q, err)
	}
	if _, err := fb.Member("ET"); err != nil {
		t.Errorf("TOF ET: %v", err)
	}
}

func TestTPMemberAccess(t *testing.T) {
	fb := newFB(TypeTP)
	if err := fb.SetMember("PT", TimeVal(time.Hour), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := fb.SetMember("IN", BoolVal(true), time.Time{}); err != nil {
		t.Fatal(err)
	}
	q, err := fb.Member("Q")
	if err != nil || !q.AsBool() {
		t.Errorf("TP Q after rising edge = %v, %v", q, err)
	}
	if _, err := fb.Member("ET"); err != nil {
		t.Error(err)
	}
}

func TestTPMemberAssignmentUsesScanTime(t *testing.T) {
	// `p.IN := TRUE;` starts the pulse at the scan instant, not the wall
	// clock, so ET and Q follow the scan times alone.
	prog := MustParse(`
		VAR p : TP; END_VAR
		p.PT := T#1s;
		p.IN := TRUE;
	`)
	env, err := NewEnv(prog)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := env.GetFB("P")
	epoch := time.Unix(1_700_000_000, 0)
	member := func(name string) Value {
		t.Helper()
		v, err := fb.Member(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, at := range []time.Duration{0, 400 * time.Millisecond} {
		if err := env.Step(epoch.Add(at)); err != nil {
			t.Fatal(err)
		}
	}
	if et := member("ET").AsTime(); et != 400*time.Millisecond {
		t.Errorf("ET at +400ms = %v, want 400ms", et)
	}
	if !member("Q").AsBool() {
		t.Error("Q at +400ms = false, want true")
	}
	if err := env.Step(epoch.Add(1200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if member("Q").AsBool() {
		t.Error("Q at +1.2s = true, want false")
	}
}

func TestCTUSetMemberPV(t *testing.T) {
	fb := newFB(TypeCTU)
	if err := fb.SetMember("PV", IntVal(2), time.Time{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		fb.Invoke(map[string]Value{"CU": BoolVal(true)}, time.Time{})
		fb.Invoke(map[string]Value{"CU": BoolVal(false)}, time.Time{})
	}
	q, _ := fb.Member("Q")
	if !q.AsBool() {
		t.Error("CTU did not reach preset")
	}
	// Reset.
	fb.Invoke(map[string]Value{"R": BoolVal(true)}, time.Time{})
	cv, _ := fb.Member("CV")
	if cv.AsInt() != 0 {
		t.Errorf("CV after reset = %d", cv.AsInt())
	}
}

func TestCTDSetMemberPV(t *testing.T) {
	fb := newFB(TypeCTD)
	if err := fb.SetMember("PV", IntVal(5), time.Time{}); err != nil {
		t.Fatal(err)
	}
	fb.Invoke(map[string]Value{"LD": BoolVal(true)}, time.Time{})
	cv, _ := fb.Member("CV")
	if cv.AsInt() != 5 {
		t.Errorf("CV after load = %d", cv.AsInt())
	}
}
