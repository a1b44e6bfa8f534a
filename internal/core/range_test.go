package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/epic"
	"repro/internal/kvbus"
	"repro/internal/scl"
	"repro/internal/sgmlconf"
)

func epicModelSet(t *testing.T) *ModelSet {
	t.Helper()
	m, err := epic.NewModel()
	if err != nil {
		t.Fatal(err)
	}
	return &ModelSet{
		Name:        "epic",
		SCDs:        map[string]*scl.Document{m.Substation: m.SCD},
		ICDs:        m.ICDs,
		IEDConfig:   m.IEDConfig,
		SCADAConfig: m.SCADAConfig,
		PowerConfig: m.PowerConfig,
		PLCs:        []PLCSpec{{Config: m.PLCConfig, PLCopenXML: m.PLCopenXML}},
	}
}

func compiledEPIC(t *testing.T) *CyberRange {
	t.Helper()
	r, err := Compile(epicModelSet(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

func TestCompileEPIC(t *testing.T) {
	r := compiledEPIC(t)
	// 8 virtual IEDs; CPLC and SCADA are infra nodes.
	if len(r.IEDs) != 8 {
		t.Errorf("IEDs = %d, want 8", len(r.IEDs))
	}
	if len(r.PLCs) != 1 || r.PLCs["CPLC"] == nil {
		t.Errorf("PLCs = %v", r.PLCs)
	}
	if r.HMI == nil {
		t.Error("HMI missing")
	}
	// Power model: 4 buses, 2 lines, 1 trafo, slack+gen+2 sgens+4 loads.
	if got := len(r.Grid.Buses); got != 4 {
		t.Errorf("buses = %d, want 4", got)
	}
	if got := len(r.Grid.Lines); got != 2 {
		t.Errorf("lines = %d", got)
	}
	if got := len(r.Grid.Trafos); got != 1 {
		t.Errorf("trafos = %d", got)
	}
	if got := len(r.Grid.Loads); got != 4 {
		t.Errorf("loads = %d", got)
	}
	if got := len(r.Grid.Switches); got != 3 {
		t.Errorf("switches = %d, want 3 (CBTie, CBMicro, CBHome)", got)
	}
	// Network: 10 hosts + 5 segment switches + central switch.
	if got := len(r.Built.Hosts); got != 10 {
		t.Errorf("hosts = %d, want 10", got)
	}
	if got := len(r.Built.Switches); got != 6 {
		t.Errorf("switches = %d, want 6", got)
	}
	if r.Interval() != 100*time.Millisecond {
		t.Errorf("interval = %v", r.Interval())
	}
}

func TestFig4TopologyRendering(t *testing.T) {
	r := compiledEPIC(t)
	top := r.Topology()
	for _, want := range []string{"GIED1", "TIED1", "MIED1", "SIED1", "CPLC", "SCADA",
		"sw-GenLAN", "sw-TransLAN", "sw-MicroLAN", "sw-HomeLAN", "sw-ControlLAN", "sw-wan",
		"10.0.1.11", "10.0.1.5"} {
		if !strings.Contains(top, want) {
			t.Errorf("topology missing %q", want)
		}
	}
}

func TestFig5PowerRendering(t *testing.T) {
	r := compiledEPIC(t)
	s := r.PowerSummary()
	for _, want := range []string{"TieLine", "MicroLine", "HomeTrafo", "GenBus", "MainBus", "MicroBus", "HomeBus", "22.0", "0.4"} {
		if !strings.Contains(s, want) {
			t.Errorf("power summary missing %q:\n%s", want, s)
		}
	}
}

func TestEPICEndToEndDataPath(t *testing.T) {
	// Fig 1's full loop: simulator -> kv bus -> IED -> MMS -> PLC -> Modbus
	// -> SCADA, and control back down.
	r := compiledEPIC(t)
	ctx := context.Background()
	if err := r.Start(ctx, false); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i := 0; i < 3; i++ {
		now = now.Add(100 * time.Millisecond)
		if err := r.StepAll(now); err != nil {
			t.Fatal(err)
		}
	}
	// Simulator solved and published.
	res := r.Sim.LastResult()
	if res == nil || !res.Converged {
		t.Fatal("power flow did not converge")
	}
	mainBus := "EPIC/VL22/TransBay/MainBus"
	if !res.Buses[mainBus].Energized {
		t.Fatal("main bus dead")
	}
	vm := res.Buses[mainBus].VmPU
	if vm < 0.9 || vm > 1.1 {
		t.Errorf("main bus vm = %v", vm)
	}
	// IED picked the measurement up from the bus.
	if got := r.Bus.GetFloat(kvbus.BusVoltageKey("epic", mainBus), -1); got != vm {
		t.Errorf("bus voltage key = %v, want %v", got, vm)
	}
	// PLC read it over MMS and exposed it northbound (scaled by 1000).
	plcVal := r.PLCs["CPLC"].Modbus()
	reg := plcVal // input register 0
	_ = reg
	gotReg := float64(plcRead(t, r)) / 1000
	if diff := gotReg - vm; diff < -0.01 || diff > 0.01 {
		t.Errorf("PLC-exposed voltage = %v, sim %v", gotReg, vm)
	}
	// SCADA polled the PLC (MainVoltage point).
	p, err := r.HMI.Point("DP_MainVoltage")
	if err != nil {
		t.Fatal(err)
	}
	if p.Quality.String() != "GOOD" {
		t.Fatalf("SCADA point quality = %v", p.Quality)
	}
	if diff := p.Value - vm; diff < -0.01 || diff > 0.01 {
		t.Errorf("SCADA voltage = %v, sim %v", p.Value, vm)
	}
	// SCADA reads the IED directly over MMS too.
	amps, err := r.HMI.Point("DP_TieCurrent")
	if err != nil {
		t.Fatal(err)
	}
	if amps.Value <= 0 {
		t.Errorf("tie current via MMS = %v", amps.Value)
	}
	// Operator control: ManualTrip coil -> PLC logic -> MMS write -> IED ->
	// breaker command -> next solve de-energises everything downstream.
	if err := r.HMI.Control("DP_ManualTrip", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		now = now.Add(100 * time.Millisecond)
		if err := r.StepAll(now); err != nil {
			t.Fatal(err)
		}
	}
	res = r.Sim.LastResult()
	if res.Buses[mainBus].Energized {
		t.Error("main bus still energized after manual trip")
	}
	if sw := r.Sim.Network().FindSwitch("CBTie"); sw.Closed {
		t.Error("CBTie still closed")
	}
}

// plcRead fetches input register 0 from the CPLC's Modbus table directly.
func plcRead(t *testing.T, r *CyberRange) uint16 {
	t.Helper()
	return r.PLCs["CPLC"].Modbus().InputReg(0)
}

func TestEPICRealTimeMode(t *testing.T) {
	// Real-time mode is paced StepAll: a session of k steps ends in exactly
	// the state of a k-step batch run, with one PLC scan and one HMI poll per
	// step, and no step runs once Stop has returned.
	r := compiledEPIC(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := r.Start(ctx, true); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for r.RealTimeStats().Steps < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("real-time driver made %d steps in 30 s", r.RealTimeStats().Steps)
		}
		time.Sleep(r.Interval() / 10)
	}
	r.Stop()
	st := r.RealTimeStats()
	k := st.Steps
	if st.Failures != 0 {
		t.Errorf("failed steps = %d", st.Failures)
	}
	if st.MaxStep <= 0 {
		t.Errorf("MaxStep = %v", st.MaxStep)
	}

	// The batch run also gives a leaked driver time to step again.
	batch := runSteps(t, epicModelSet(t), k)
	if got := r.RealTimeStats().Steps; got != k || r.StepIndex() != k {
		t.Errorf("steps after Stop: stats %d, step index %d, want %d", got, r.StepIndex(), k)
	}
	scans, _, _, _ := r.PLCs["CPLC"].Stats()
	if scans != uint64(k) || r.HMI.Polls() != uint64(k) {
		t.Errorf("PLC scans = %d, HMI polls = %d, want %d each", scans, r.HMI.Polls(), k)
	}
	diffRanges(t, batch, r)
}

func TestCompileFromSerializedFiles(t *testing.T) {
	// Full round trip: generate EPIC -> serialize to XML -> parse back ->
	// compile. This is the paper's actual workflow (files in, range out).
	m, err := epic.NewModel()
	if err != nil {
		t.Fatal(err)
	}
	files, err := m.Files()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 12 {
		t.Fatalf("files = %d", len(files))
	}
	ms, err := LoadModelFiles("epic", files)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.ICDs) != 8 {
		t.Errorf("ICDs = %d", len(ms.ICDs))
	}
	if len(ms.PLCs) != 1 {
		t.Fatalf("PLCs = %d", len(ms.PLCs))
	}
	r, err := Compile(ms)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	if err := r.StepAll(time.Now()); err != nil {
		t.Fatal(err)
	}
	if res := r.Sim.LastResult(); res == nil || !res.Converged {
		t.Error("round-tripped model does not solve")
	}
}

func TestCompileScaleModel(t *testing.T) {
	sm, err := epic.NewScaleModel(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ms := &ModelSet{
		Name: "scale", SCDs: sm.SCDs, SED: sm.SED,
		IEDConfig: sm.IEDConfigs, PowerConfig: sm.PowerConfig,
	}
	r, err := Compile(ms)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if len(r.IEDs) != 15 { // 3 * (4 feeders + 1 gateway)
		t.Errorf("IEDs = %d, want 15", len(r.IEDs))
	}
	// Power model spans all three substations through ties.
	if err := r.Start(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	if err := r.StepAll(time.Now()); err != nil {
		t.Fatal(err)
	}
	res := r.Sim.LastResult()
	if !res.Converged {
		t.Fatal("scale model did not converge")
	}
	if res.DeadBuses != 0 {
		t.Errorf("dead buses = %d", res.DeadBuses)
	}
	if res.Islands != 1 {
		t.Errorf("islands = %d, want 1 (tied)", res.Islands)
	}
	// Feeder voltages across substations are all near nominal.
	for _, bus := range []string{"S1/VL22/F1/FeederBus", "S3/VL22/F4/FeederBus"} {
		if vm := res.Buses[bus].VmPU; vm < 0.9 || vm > 1.05 {
			t.Errorf("%s vm = %v", bus, vm)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, err := Compile(&ModelSet{}); !errors.Is(err, ErrModel) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("PLC without config", func(t *testing.T) {
		ms := epicModelSet(t)
		ms.PLCs = []PLCSpec{{}}
		if _, err := Compile(ms); !errors.Is(err, ErrModel) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("PLC host missing", func(t *testing.T) {
		ms := epicModelSet(t)
		ms.PLCs[0].Config = &sgmlconf.PLCConfig{Name: "GHOST", Host: "GHOST"}
		if _, err := Compile(ms); !errors.Is(err, ErrModel) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("SCADA host missing", func(t *testing.T) {
		ms := epicModelSet(t)
		ms.SCADAHost = "GHOST"
		if _, err := Compile(ms); !errors.Is(err, ErrModel) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad step kind survives sgmlconf but fails compile", func(t *testing.T) {
		ms := epicModelSet(t)
		ms.PowerConfig.Steps = append(ms.PowerConfig.Steps, sgmlconf.ProfileStep{AtMS: 0, Kind: "explode", Element: "x"})
		if _, err := Compile(ms); err == nil {
			t.Error("bad step accepted")
		}
	})
}

// TestCompileRejectsUnheardCILOGuard pins that a CILO guard the interlocked
// IED could never hear fails Compile instead of silently denying every close.
func TestCompileRejectsUnheardCILOGuard(t *testing.T) {
	epicGuard := func(guard string) *ModelSet {
		ms := epicModelSet(t)
		ms.IEDConfig.Find("MIED1").Protection.CILO.GuardIED = guard
		return ms
	}
	crossSub := func() *ModelSet {
		// The 2-substation scale model: S1's first feeder IED guarded by a
		// feeder IED of S2.
		sm, err := epic.NewScaleModel(2, 2)
		if err != nil {
			t.Fatal(err)
		}
		sm.IEDConfigs.Find("S1_IED1").Protection.CILO = &sgmlconf.CILOConf{GuardBreaker: "S2_CB1", GuardIED: "S2_IED1"}
		return &ModelSet{Name: "cilo", SCDs: sm.SCDs, SED: sm.SED,
			IEDConfig: sm.IEDConfigs, PowerConfig: sm.PowerConfig}
	}
	for _, tc := range []struct {
		name, ied, guard string
		ms               func() *ModelSet
	}{
		{"unknown guard", "MIED1", "GHOST", func() *ModelSet { return epicGuard("GHOST") }},
		{"guard without GSE APPID", "MIED1", "CPLC", func() *ModelSet { return epicGuard("CPLC") }},
		{"guard in another substation", "S1_IED1", "S2_IED1", crossSub},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.ms())
			if !errors.Is(err, ErrModel) {
				t.Fatalf("err = %v, want ErrModel", err)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.ied) || !strings.Contains(msg, tc.guard) {
				t.Errorf("error %q does not name %s and %s", msg, tc.ied, tc.guard)
			}
		})
	}
}

func TestScenarioProfileAffectsRange(t *testing.T) {
	ms := epicModelSet(t)
	// Replace profile: drop PV to zero at t=200ms.
	ms.PowerConfig.Steps = []sgmlconf.ProfileStep{
		{AtMS: 200, Kind: "sgenP", Element: "PV1", Value: 0},
	}
	r, err := Compile(ms)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	r.StepAll(time.Now()) // t=200ms (initial step at Start was t=100ms)
	if got := r.Sim.Network().FindSGen("PV1").PMW; got != 0 {
		t.Errorf("PV output after scenario = %v", got)
	}
}
