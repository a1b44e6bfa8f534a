package ied

import (
	"strings"
	"testing"
	"time"

	"repro/internal/goose"
	"repro/internal/kvbus"
	"repro/internal/mms"
	"repro/internal/netem"
	"repro/internal/scl"
	"repro/internal/sgmlconf"
)

func lan(t *testing.T, hosts int) []*netem.Host {
	t.Helper()
	n := netem.NewNetwork()
	if _, err := netem.NewSwitch(n, "sw", hosts+1); err != nil {
		t.Fatal(err)
	}
	out := make([]*netem.Host, hosts)
	for i := range out {
		h, err := netem.NewHost(n, string(rune('a'+i))+"-host",
			netem.MAC{2, 0, 0, 0, 0, byte(i + 1)}, netem.IPv4{10, 0, 0, byte(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Connect(h.Name(), 0, "sw", i, 0); err != nil {
			t.Fatal(err)
		}
		out[i] = h
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return out
}

// icdWith builds an ICD declaring the given LN classes.
func icdWith(classes ...string) *scl.Document {
	lns := make([]scl.LN, 0, len(classes))
	for i, c := range classes {
		lns = append(lns, scl.LN{LnClass: c, Inst: "1", LnType: c + "_T"})
		_ = i
	}
	return &scl.Document{
		IEDs: []scl.IED{{
			Name: "TEMPLATE",
			AccessPoints: []scl.AccessPoint{{
				Name:   "AP1",
				Server: &scl.Server{LDevices: []scl.LDevice{{Inst: "LD0", LNs: lns}}},
			}},
		}},
	}
}

func baseEntry() *sgmlconf.IEDEntry {
	return &sgmlconf.IEDEntry{
		Name:       "GIED1",
		Substation: "epic",
		Measures: []sgmlconf.Measure{
			{Point: "busVoltage", Element: "BusA"},
			{Point: "lineCurrent", Element: "L1"},
			{Point: "lineP", Element: "L1"},
			{Point: "lineQ", Element: "L1"},
		},
		Controls: []sgmlconf.Control{{Breaker: "CB1"}},
	}
}

func TestMeasurementRefresh(t *testing.T) {
	hosts := lan(t, 2)
	bus := kvbus.New()
	bus.SetFloat(kvbus.BusVoltageKey("epic", "BusA"), 1.02)
	bus.SetFloat(kvbus.LineCurrentKey("epic", "L1"), 0.151)
	bus.SetFloat(kvbus.LinePKey("epic", "L1"), 12.5)
	bus.SetFloat(kvbus.LineQKey("epic", "L1"), 3.3)
	d, err := New(hosts[0], bus, Config{Name: "GIED1", Substation: "epic", Entry: baseEntry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Serve(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	d.Step(time.Now())

	cli, err := mms.Dial(hosts[1], hosts[0].IP(), 0, mms.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	v, err := cli.Read(RefVoltage())
	if err != nil {
		t.Fatal(err)
	}
	if v.Float != 1.02 {
		t.Errorf("voltage = %v", v)
	}
	i, _ := cli.Read(RefCurrent())
	if i.Float != 0.151 {
		t.Errorf("current = %v", i)
	}
	p, _ := cli.Read(RefActivePower())
	if p.Float != 12.5 {
		t.Errorf("P = %v", p)
	}
	name, _ := cli.Read("LD0/LLN0.NamPlt")
	if name.Str != "GIED1" {
		t.Errorf("nameplate = %v", name)
	}
}

func TestBreakerControlViaMMS(t *testing.T) {
	hosts := lan(t, 2)
	bus := kvbus.New()
	d, err := New(hosts[0], bus, Config{Name: "GIED1", Substation: "epic", Entry: baseEntry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Serve(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	cli, err := mms.Dial(hosts[1], hosts[0].IP(), 0, mms.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// This is exactly the FCI attack primitive: a standard-compliant MMS
	// write to the breaker operate object.
	if err := cli.Write(RefBreakerOper(1), mms.NewBool(false)); err != nil {
		t.Fatal(err)
	}
	if bus.GetBool(kvbus.BreakerCmdKey("epic", "CB1"), true) {
		t.Error("breaker open command not written to bus")
	}
	events := d.Events()
	if len(events) == 0 || events[0].Kind != EventControl {
		t.Errorf("events = %+v", events)
	}
	// Non-bool write rejected.
	if err := cli.Write(RefBreakerOper(1), mms.NewInt(0)); err == nil {
		t.Error("non-bool operate accepted")
	}
}

func protEntry(mutate func(*sgmlconf.IEDEntry)) *sgmlconf.IEDEntry {
	e := baseEntry()
	mutate(e)
	return e
}

func TestPTOCTripsAfterDelay(t *testing.T) {
	hosts := lan(t, 1)
	bus := kvbus.New()
	entry := protEntry(func(e *sgmlconf.IEDEntry) {
		e.Protection.PTOC = &sgmlconf.PTOCConf{ThresholdKA: 0.4, DelayMS: 100, Line: "L1"}
	})
	d, err := New(hosts[0], bus, Config{Name: "GIED1", Substation: "epic", Entry: entry, ICD: icdWith("PTOC")})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	base := time.Unix(0, 0)
	bus.SetFloat(kvbus.LineCurrentKey("epic", "L1"), 0.3) // below threshold
	d.Step(base)
	if d.TripCount() != 0 {
		t.Fatal("tripped below threshold")
	}
	bus.SetFloat(kvbus.LineCurrentKey("epic", "L1"), 0.9) // fault current
	d.Step(base.Add(100 * time.Millisecond))              // arms
	if d.TripCount() != 0 {
		t.Fatal("tripped before delay elapsed")
	}
	d.Step(base.Add(250 * time.Millisecond)) // 150ms armed > 100ms delay
	if d.TripCount() != 1 {
		t.Fatalf("trips = %d, want 1", d.TripCount())
	}
	if bus.GetBool(kvbus.BreakerCmdKey("epic", "CB1"), true) {
		t.Error("trip did not open breaker")
	}
	if v, _ := d.Server().Get(RefProtTrip("PTOC")); !v.Bool {
		t.Error("PTOC.Op.general not raised")
	}
	// Condition clears: trip status resets, no re-trip.
	bus.SetFloat(kvbus.LineCurrentKey("epic", "L1"), 0.0)
	d.Step(base.Add(400 * time.Millisecond))
	if v, _ := d.Server().Get(RefProtTrip("PTOC")); v.Bool {
		t.Error("PTOC status not reset after clear")
	}
	if d.TripCount() != 1 {
		t.Errorf("extra trips: %d", d.TripCount())
	}
}

func TestPTOVAndPTUV(t *testing.T) {
	hosts := lan(t, 1)
	bus := kvbus.New()
	entry := protEntry(func(e *sgmlconf.IEDEntry) {
		e.Protection.PTOV = &sgmlconf.PTOVConf{ThresholdPU: 1.10, DelayMS: 0, Bus: "BusA"}
		e.Protection.PTUV = &sgmlconf.PTUVConf{ThresholdPU: 0.90, DelayMS: 0, Bus: "BusA"}
	})
	d, err := New(hosts[0], bus, Config{Name: "GIED1", Substation: "epic", Entry: entry, ICD: icdWith("PTOV", "PTUV")})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	base := time.Unix(0, 0)

	bus.SetFloat(kvbus.BusVoltageKey("epic", "BusA"), 1.0)
	d.Step(base)
	if d.TripCount() != 0 {
		t.Fatal("tripped at nominal voltage")
	}
	// Over-voltage.
	bus.SetFloat(kvbus.BusVoltageKey("epic", "BusA"), 1.15)
	d.Step(base.Add(time.Second))
	if d.TripCount() != 1 {
		t.Fatalf("PTOV trips = %d", d.TripCount())
	}
	// Recover, then under-voltage.
	bus.SetFloat(kvbus.BusVoltageKey("epic", "BusA"), 1.0)
	d.Step(base.Add(2 * time.Second))
	bus.SetFloat(kvbus.BusVoltageKey("epic", "BusA"), 0.85)
	d.Step(base.Add(3 * time.Second))
	if d.TripCount() != 2 {
		t.Fatalf("PTUV trips = %d total", d.TripCount())
	}
	// Dead bus must NOT trip PTUV.
	bus.SetFloat(kvbus.BusVoltageKey("epic", "BusA"), 1.0)
	d.Step(base.Add(4 * time.Second))
	bus.SetFloat(kvbus.BusVoltageKey("epic", "BusA"), 0.0)
	d.Step(base.Add(5 * time.Second))
	if d.TripCount() != 2 {
		t.Errorf("dead bus tripped PTUV: %d", d.TripCount())
	}
}

func TestICDGatesProtection(t *testing.T) {
	hosts := lan(t, 1)
	bus := kvbus.New()
	entry := protEntry(func(e *sgmlconf.IEDEntry) {
		e.Protection.PTOC = &sgmlconf.PTOCConf{ThresholdKA: 0.4, DelayMS: 0, Line: "L1"}
	})
	// ICD declares only MMXU: PTOC must stay disabled despite config.
	d, err := New(hosts[0], bus, Config{Name: "GIED1", Substation: "epic", Entry: entry, ICD: icdWith("MMXU")})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	bus.SetFloat(kvbus.LineCurrentKey("epic", "L1"), 9.9)
	d.Step(time.Unix(0, 0))
	d.Step(time.Unix(10, 0))
	if d.TripCount() != 0 {
		t.Error("ICD-disabled PTOC tripped")
	}
	if _, ok := d.Server().Get(RefProtTrip("PTOC")); ok {
		t.Error("PTOC object defined despite ICD gating")
	}
}

func TestGOOSEStatusPublication(t *testing.T) {
	hosts := lan(t, 2)
	bus := kvbus.New()
	d, err := New(hosts[0], bus, Config{
		Name: "GIED1", Substation: "epic", Entry: baseEntry(), GooseAppID: 0x0101,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	sub := goose.Subscribe(hosts[1], 0x0101)

	bus.SetBool(kvbus.BreakerStatusKey("epic", "CB1"), true)
	d.Step(time.Now()) // first observation publishes
	select {
	case u := <-sub.Updates():
		if len(u.Message.Values) != 1 || !u.Message.Values[0].Bool {
			t.Errorf("status values = %v", u.Message.Values)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no GOOSE on first status")
	}
	bus.SetBool(kvbus.BreakerStatusKey("epic", "CB1"), false)
	d.Step(time.Now())
	deadline := time.After(2 * time.Second)
	for {
		select {
		case u := <-sub.Updates():
			if u.NewState && !u.Message.Values[0].Bool {
				return // observed the open
			}
		case <-deadline:
			t.Fatal("no GOOSE on status change")
		}
	}
}

func TestCILOInterlock(t *testing.T) {
	hosts := lan(t, 3)
	bus := kvbus.New()
	// Guard IED publishes its breaker status on AppID 0x201.
	guardEntry := &sgmlconf.IEDEntry{
		Name: "GUARD", Substation: "epic",
		Controls: []sgmlconf.Control{{Breaker: "CB0"}},
	}
	guard, err := New(hosts[0], bus, Config{
		Name: "GUARD", Substation: "epic", Entry: guardEntry, GooseAppID: 0x0201,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer guard.Stop()

	entry := protEntry(func(e *sgmlconf.IEDEntry) {
		e.Protection.CILO = &sgmlconf.CILOConf{GuardBreaker: "CB0", GuardIED: "GUARD"}
	})
	d, err := New(hosts[1], bus, Config{
		Name: "GIED1", Substation: "epic", Entry: entry, ICD: icdWith("CILO"),
		GuardAppID: 0x0201,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Serve(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	cli, err := mms.Dial(hosts[2], hosts[1].IP(), 0, mms.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// No guard status yet: close denied.
	if err := cli.Write(RefBreakerOper(1), mms.NewBool(true)); err == nil {
		t.Error("close allowed without guard status")
	}
	// Guard breaker open: still denied.
	bus.SetBool(kvbus.BreakerStatusKey("epic", "CB0"), false)
	guard.Step(time.Now())
	time.Sleep(30 * time.Millisecond)
	d.Step(time.Now())
	if err := cli.Write(RefBreakerOper(1), mms.NewBool(true)); err == nil {
		t.Error("close allowed with guard open")
	}
	// Opening is never interlocked.
	if err := cli.Write(RefBreakerOper(1), mms.NewBool(false)); err != nil {
		t.Errorf("open denied: %v", err)
	}
	// Guard closes: close now allowed.
	bus.SetBool(kvbus.BreakerStatusKey("epic", "CB0"), true)
	guard.Step(time.Now())
	time.Sleep(30 * time.Millisecond)
	d.Step(time.Now())
	if err := cli.Write(RefBreakerOper(1), mms.NewBool(true)); err != nil {
		t.Errorf("close denied with guard closed: %v", err)
	}
	denies := 0
	for _, e := range d.Events() {
		if e.Kind == EventInterlockDeny {
			denies++
			if !strings.Contains(e.Detail, "CB0") {
				t.Errorf("deny detail %q", e.Detail)
			}
		}
	}
	if denies != 2 {
		t.Errorf("interlock denies = %d, want 2", denies)
	}
}

func TestPDIFDifferentialTrip(t *testing.T) {
	hosts := lan(t, 2)
	busA := kvbus.New() // substation A
	busB := kvbus.New() // substation B

	entryA := &sgmlconf.IEDEntry{
		Name: "GWA", Substation: "subA",
		Controls: []sgmlconf.Control{{Breaker: "CBA"}},
		Protection: sgmlconf.Protection{
			PDIF: &sgmlconf.PDIFConf{ThresholdKA: 0.05, DelayMS: 0, Line: "Tie", RemoteIED: "GWB"},
		},
	}
	entryB := &sgmlconf.IEDEntry{
		Name: "GWB", Substation: "subB",
		Controls: []sgmlconf.Control{{Breaker: "CBB"}},
		Protection: sgmlconf.Protection{
			PDIF: &sgmlconf.PDIFConf{ThresholdKA: 0.05, DelayMS: 0, Line: "Tie", RemoteIED: "GWA"},
		},
	}
	a, err := New(hosts[0], busA, Config{
		Name: "GWA", Substation: "subA", Entry: entryA, ICD: icdWith("PDIF"),
		RSVAppID: 0x4100, RSVPeers: []netem.IPv4{hosts[1].IP()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Serve(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	b, err := New(hosts[1], busB, Config{
		Name: "GWB", Substation: "subB", Entry: entryB, ICD: icdWith("PDIF"),
		RSVAppID: 0x4100, RSVPeers: []netem.IPv4{hosts[0].IP()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Serve(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	base := time.Now()
	// Healthy line: equal currents both ends.
	busA.SetFloat(kvbus.LineCurrentKey("subA", "Tie"), 0.350)
	busB.SetFloat(kvbus.LineCurrentKey("subB", "Tie"), 0.350)
	for i := 0; i < 3; i++ {
		a.Step(base.Add(time.Duration(i) * 100 * time.Millisecond))
		b.Step(base.Add(time.Duration(i) * 100 * time.Millisecond))
		time.Sleep(20 * time.Millisecond)
	}
	if a.TripCount() != 0 || b.TripCount() != 0 {
		t.Fatalf("healthy line tripped: a=%d b=%d", a.TripCount(), b.TripCount())
	}
	// Internal fault: currents diverge.
	busA.SetFloat(kvbus.LineCurrentKey("subA", "Tie"), 0.900)
	for i := 3; i < 6; i++ {
		a.Step(base.Add(time.Duration(i) * 100 * time.Millisecond))
		b.Step(base.Add(time.Duration(i) * 100 * time.Millisecond))
		time.Sleep(20 * time.Millisecond)
	}
	if a.TripCount() == 0 {
		t.Error("A-side PDIF did not trip on differential")
	}
	if b.TripCount() == 0 {
		t.Error("B-side PDIF did not trip on differential")
	}
	if busA.GetBool(kvbus.BreakerCmdKey("subA", "CBA"), true) {
		t.Error("A breaker not opened")
	}
}
