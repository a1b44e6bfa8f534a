package powersim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/kvbus"
	"repro/internal/powergrid"
)

func testNet() *powergrid.Network {
	n := powergrid.New("sub1")
	n.AddBus("A", 110, "sub1")
	n.AddBus("B", 110, "sub1")
	n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "A", VmPU: 1.0})
	n.Lines = append(n.Lines, powergrid.Line{
		Name: "L1", FromBus: "A", ToBus: "B", LengthKM: 10,
		ROhmPerKM: 0.06, XOhmPerKM: 0.4, MaxIKA: 0.5, InService: true,
	})
	n.Loads = append(n.Loads, powergrid.Load{Name: "LD1", Bus: "B", PMW: 20, QMVAr: 5, Scaling: 1, InService: true})
	n.Switches = append(n.Switches, powergrid.Switch{Name: "CB1", Bus: "A", Element: "L1", Kind: powergrid.SwitchLine, Closed: true})
	return n
}

func TestStepPublishesMeasurements(t *testing.T) {
	bus := kvbus.New()
	sim := New(testNet(), bus, Options{}, nil)
	res, err := sim.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	vm := bus.GetFloat(kvbus.BusVoltageKey("sub1", "B"), -1)
	if vm <= 0.9 || vm >= 1.0 {
		t.Errorf("published vm = %v", vm)
	}
	if i := bus.GetFloat(kvbus.LineCurrentKey("sub1", "L1"), -1); i <= 0 {
		t.Errorf("published current = %v", i)
	}
	if !bus.GetBool(kvbus.BreakerStatusKey("sub1", "CB1"), false) {
		t.Error("breaker status not published as closed")
	}
	if p := bus.GetFloat(kvbus.LoadPKey("sub1", "LD1"), -1); p != 20 {
		t.Errorf("load P = %v, want 20", p)
	}
}

func TestBreakerCommandTakesEffect(t *testing.T) {
	bus := kvbus.New()
	sim := New(testNet(), bus, Options{}, nil)
	if _, err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	// An IED writes an open command; next step must de-energise bus B.
	bus.SetBool(kvbus.BreakerCmdKey("sub1", "CB1"), false)
	res, err := sim.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Buses["B"].Energized {
		t.Error("bus B still energized after breaker open command")
	}
	if bus.GetBool(kvbus.BreakerStatusKey("sub1", "CB1"), true) {
		t.Error("breaker status still closed on bus")
	}
	if vm := bus.GetFloat(kvbus.BusVoltageKey("sub1", "B"), -1); vm != 0 {
		t.Errorf("dead bus vm = %v, want 0", vm)
	}
	// Close it again: service restored.
	bus.SetBool(kvbus.BreakerCmdKey("sub1", "CB1"), true)
	res, err = sim.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Buses["B"].Energized {
		t.Error("bus B not restored after close command")
	}
}

func TestScheduledLoadProfile(t *testing.T) {
	bus := kvbus.New()
	sim := New(testNet(), bus, Options{Interval: 100 * time.Millisecond}, nil)
	sim.Schedule(
		Event{At: 0, Kind: SetLoadScale, Element: "LD1", Value: 0.5},
		Event{At: 300 * time.Millisecond, Kind: SetLoadScale, Element: "LD1", Value: 1.5},
	)
	r1, err := sim.Step() // t=100ms: scale 0.5 active
	if err != nil {
		t.Fatal(err)
	}
	if p := bus.GetFloat(kvbus.LoadPKey("sub1", "LD1"), -1); p != 10 {
		t.Errorf("scaled load = %v, want 10", p)
	}
	sim.Step() // t=200
	sim.Step() // t=300: scale 1.5 applies
	r4, err := sim.Step()
	if err != nil {
		t.Fatal(err)
	}
	if p := bus.GetFloat(kvbus.LoadPKey("sub1", "LD1"), -1); p != 30 {
		t.Errorf("scaled load = %v, want 30", p)
	}
	// Heavier load ⇒ lower voltage.
	if r4.Buses["B"].VmPU >= r1.Buses["B"].VmPU {
		t.Error("voltage did not drop with higher load")
	}
}

func TestContingencyEvents(t *testing.T) {
	bus := kvbus.New()
	sim := New(testNet(), bus, Options{Interval: time.Second}, nil)
	sim.Schedule(Event{At: 2 * time.Second, Kind: SetLineService, Element: "L1", Value: 0})
	r, err := sim.Step() // t=1s
	if err != nil {
		t.Fatal(err)
	}
	if !r.Buses["B"].Energized {
		t.Fatal("B should be energized before contingency")
	}
	r, err = sim.Step() // t=2s: line outage
	if err != nil {
		t.Fatal(err)
	}
	if r.Buses["B"].Energized {
		t.Error("B energized after line loss contingency")
	}
}

func TestEventErrors(t *testing.T) {
	tests := []struct {
		name string
		ev   Event
	}{
		{"unknown load", Event{Kind: SetLoadScale, Element: "zz", Value: 1}},
		{"unknown loadP", Event{Kind: SetLoadP, Element: "zz", Value: 1}},
		{"unknown gen", Event{Kind: SetGenP, Element: "zz", Value: 1}},
		{"unknown sgen", Event{Kind: SetSGenP, Element: "zz", Value: 1}},
		{"unknown switch", Event{Kind: SetSwitch, Element: "zz", Value: 1}},
		{"unknown line", Event{Kind: SetLineService, Element: "zz", Value: 1}},
		{"bad kind", Event{Kind: 0, Element: "LD1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sim := New(testNet(), kvbus.New(), Options{}, nil)
			sim.Schedule(tt.ev)
			if _, err := sim.Step(); !errors.Is(err, ErrUnknownElement) && tt.ev.Kind != 0 {
				t.Errorf("Step() err = %v, want ErrUnknownElement", err)
			} else if tt.ev.Kind == 0 && err == nil {
				t.Error("Step() with bad kind succeeded")
			}
		})
	}
}

func TestSimTimeAndStats(t *testing.T) {
	sim := New(testNet(), kvbus.New(), Options{Interval: 50 * time.Millisecond}, nil)
	for i := 0; i < 4; i++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sim.SimTime(); got != 200*time.Millisecond {
		t.Errorf("SimTime = %v, want 200ms", got)
	}
	steps, mean := sim.Stats()
	if steps != 4 {
		t.Errorf("steps = %d, want 4", steps)
	}
	if mean <= 0 {
		t.Errorf("mean solve = %v", mean)
	}
	if sim.LastResult() == nil {
		t.Error("LastResult nil after steps")
	}
}

func TestStatsExcludeFailedSolves(t *testing.T) {
	bus := kvbus.New()
	sim := New(testNet(), bus, Options{Interval: 100 * time.Millisecond}, nil)
	for i := 0; i < 3; i++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	stepsBefore, meanBefore := sim.Stats()
	if stepsBefore != 3 {
		t.Fatalf("steps = %d, want 3", stepsBefore)
	}
	// Force a non-convergence: an impossible load on the weak line. The NR
	// loop burns all its iterations before giving up, which must not be
	// averaged into the healthy-step solve time.
	sim.Schedule(Event{At: 300 * time.Millisecond, Kind: SetLoadP, Element: "LD1", Value: 1e7})
	if _, err := sim.Step(); err == nil {
		t.Fatal("expected solve failure")
	}
	steps, mean := sim.Stats()
	if steps != stepsBefore {
		t.Errorf("successful steps = %d after failure, want still %d", steps, stepsBefore)
	}
	if mean != meanBefore {
		t.Errorf("mean solve changed from %v to %v on a failed step", meanBefore, mean)
	}
	if f := sim.Failures(); f != 1 {
		t.Errorf("failures = %d, want 1", f)
	}
	// Recovery: restore the load, stepping resumes counting.
	sim.Schedule(Event{At: 400 * time.Millisecond, Kind: SetLoadP, Element: "LD1", Value: 20})
	if _, err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if steps, _ := sim.Stats(); steps != stepsBefore+1 {
		t.Errorf("steps = %d after recovery, want %d", steps, stepsBefore+1)
	}
}

func TestLoadScaleZeroEventRemovesLoad(t *testing.T) {
	bus := kvbus.New()
	sim := New(testNet(), bus, Options{Interval: 100 * time.Millisecond}, nil)
	sim.Schedule(Event{At: 0, Kind: SetLoadScale, Element: "LD1", Value: 0})
	res, err := sim.Step()
	if err != nil {
		t.Fatal(err)
	}
	// Pandapower semantics: scaling=0 means no load, not "restore nominal".
	if p := bus.GetFloat(kvbus.LoadPKey("sub1", "LD1"), -1); p != 0 {
		t.Errorf("published load P = %v, want 0 for scaling=0", p)
	}
	if got := res.TotalLoadMW(sim.Network()); got != 0 {
		t.Errorf("TotalLoadMW = %v, want 0", got)
	}
	if vm := res.Buses["B"].VmPU; vm < 0.999 {
		t.Errorf("unloaded feeder vm = %v, want ~1.0", vm)
	}
}

func TestWarmStepsStayOnSolverCache(t *testing.T) {
	bus := kvbus.New()
	sim := New(testNet(), bus, Options{Interval: 100 * time.Millisecond}, nil)
	sim.Schedule(
		Event{At: 100 * time.Millisecond, Kind: SetLoadScale, Element: "LD1", Value: 0.8},
		Event{At: 200 * time.Millisecond, Kind: SetLoadScale, Element: "LD1", Value: 1.2},
		Event{At: 400 * time.Millisecond, Kind: SetSwitch, Element: "CB1", Value: 0},
	)
	for i := 0; i < 6; i++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := sim.SolverCacheStats()
	// Load-profile churn stays warm; only the first solve and the breaker
	// trip rebuild the topology.
	if misses != 2 {
		t.Errorf("cache misses = %d, want 2 (initial build + breaker trip)", misses)
	}
	if hits != 4 {
		t.Errorf("cache hits = %d, want 4", hits)
	}
}

func TestSimulatorDoesNotMutateInput(t *testing.T) {
	n := testNet()
	bus := kvbus.New()
	sim := New(n, bus, Options{}, nil)
	bus.SetBool(kvbus.BreakerCmdKey("sub1", "CB1"), false)
	if _, err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if !n.FindSwitch("CB1").Closed {
		t.Error("input network mutated by simulator")
	}
}
