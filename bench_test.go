// Benchmark harness regenerating every table and figure of the paper's
// evaluation (README's "Performance" section records the results):
//
//	Table I   — SCL file types:            BenchmarkTableI_*
//	Table II  — protection functions:      BenchmarkTableII_* / TestTableII_*
//	Fig 1     — architecture data path:    TestFig1_ArchitectureDataPath
//	Fig 2     — compile pipeline:          BenchmarkFig2_CompilePipeline
//	Fig 3     — per-stage toolchain:       BenchmarkFig3_*
//	Fig 4     — cyber topology:            BenchmarkFig4_* / TestFig4_*
//	Fig 5     — power topology:            BenchmarkFig5_* / TestFig5_*
//	Fig 6     — MITM measurement tamper:   BenchmarkFig6_* / TestFig6_*
//	§IV-A     — scalability:               BenchmarkScale_* / TestScale_104IEDs100ms
//	§IV-B     — false command injection:   BenchmarkFCI_* / TestFCI_*
//	ablations — design choices:            BenchmarkAblation_* (the sparse
//	                                       solver's is in internal/powerflow)
package sgml_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	sgml "repro"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/epic"
	"repro/internal/goose"
	"repro/internal/ids"
	"repro/internal/ied"
	"repro/internal/kvbus"
	"repro/internal/mms"
	"repro/internal/netem"
	"repro/internal/powerflow"
	"repro/internal/scl"
	"repro/internal/sclmerge"
	"repro/internal/sgmlconf"
)

// ---------------------------------------------------------------------------
// Table I — the four SCL file types
// ---------------------------------------------------------------------------

func epicFileSet(tb testing.TB) map[string][]byte {
	tb.Helper()
	files, err := sgml.EPICFiles()
	if err != nil {
		tb.Fatal(err)
	}
	return files
}

func TestTableI_SCLFileTypes(t *testing.T) {
	files := epicFileSet(t)
	ssd, err := scl.Parse(files["epic.ssd.xml"])
	if err != nil {
		t.Fatal(err)
	}
	scd, err := scl.Parse(files["epic.scd.xml"])
	if err != nil {
		t.Fatal(err)
	}
	icd, err := scl.Parse(files["GIED1.icd.xml"])
	if err != nil {
		t.Fatal(err)
	}
	sm, err := epic.NewScaleModel(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sedData, err := sm.SED.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sed, err := scl.ParseSED(sedData)
	if err != nil {
		t.Fatal(err)
	}
	// Each file classifies as its Table I row.
	rows := []struct {
		kind scl.Kind
		got  scl.Kind
		use  string
	}{
		{scl.KindSSD, ssd.DetectKind(), "single line diagram -> power model"},
		{scl.KindSCD, scd.DetectKind(), "complete substation incl. communication"},
		{scl.KindICD, icd.DetectKind(), "IED capabilities -> virtual IED features"},
		{scl.KindSED, scl.KindSED, "inter-substation connectivity"},
	}
	for _, r := range rows {
		if r.kind != r.got {
			t.Errorf("Table I: want %v, classified %v", r.kind, r.got)
		}
		t.Logf("Table I | %-4v | %s", r.kind, r.use)
	}
	if len(sed.Ties) != 1 {
		t.Errorf("SED ties = %d", len(sed.Ties))
	}
}

func benchParse(b *testing.B, data []byte) {
	b.Helper()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scl.Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI_SCLParseSSD(b *testing.B) { benchParse(b, epicFileSet(b)["epic.ssd.xml"]) }
func BenchmarkTableI_SCLParseSCD(b *testing.B) { benchParse(b, epicFileSet(b)["epic.scd.xml"]) }
func BenchmarkTableI_SCLParseICD(b *testing.B) { benchParse(b, epicFileSet(b)["GIED1.icd.xml"]) }

func BenchmarkTableI_SCLParseSED(b *testing.B) {
	sm, err := epic.NewScaleModel(5, 2)
	if err != nil {
		b.Fatal(err)
	}
	data, err := sm.SED.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scl.ParseSED(data); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table II — the five protection functions
// ---------------------------------------------------------------------------

// protIED builds a standalone IED with the given protection entry, coupled
// to a fresh bus (no network needed for threshold evaluation).
func protIED(tb testing.TB, mutate func(*sgmlconf.IEDEntry)) (*ied.IED, *kvbus.Bus) {
	tb.Helper()
	n := netem.NewNetwork()
	h, err := netem.NewHost(n, "ied", netem.MAC{2, 0, 0, 0, 0, 1}, netem.IPv4{10, 0, 0, 1})
	if err != nil {
		tb.Fatal(err)
	}
	bus := kvbus.New()
	entry := &sgmlconf.IEDEntry{
		Name: "P1", Substation: "s",
		Measures: []sgmlconf.Measure{
			{Point: "busVoltage", Element: "Bus"},
			{Point: "lineCurrent", Element: "L"},
		},
		Controls: []sgmlconf.Control{{Breaker: "CB"}},
	}
	mutate(entry)
	dev, err := ied.New(h, bus, ied.Config{Name: "P1", Substation: "s", Entry: entry})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(dev.Stop)
	return dev, bus
}

func TestTableII_ProtectionFunctions(t *testing.T) {
	// One trip demonstration per Table II row (PTOC/PTOV/PTUV here; PDIF and
	// CILO have dedicated network tests in internal/ied).
	rows := []struct {
		name    string
		mutate  func(*sgmlconf.IEDEntry)
		trigger func(*kvbus.Bus)
		desc    string
	}{
		{"PTOC", func(e *sgmlconf.IEDEntry) {
			e.Protection.PTOC = &sgmlconf.PTOCConf{ThresholdKA: 0.4, DelayMS: 0, Line: "L"}
		}, func(b *kvbus.Bus) {
			b.SetFloat(kvbus.LineCurrentKey("s", "L"), 1.5) // ~4x nominal
		}, "over-current opens breaker"},
		{"PTOV", func(e *sgmlconf.IEDEntry) {
			e.Protection.PTOV = &sgmlconf.PTOVConf{ThresholdPU: 1.10, DelayMS: 0, Bus: "Bus"}
		}, func(b *kvbus.Bus) {
			b.SetFloat(kvbus.BusVoltageKey("s", "Bus"), 1.2)
		}, "over-voltage opens breaker"},
		{"PTUV", func(e *sgmlconf.IEDEntry) {
			e.Protection.PTUV = &sgmlconf.PTUVConf{ThresholdPU: 0.90, DelayMS: 0, Bus: "Bus"}
		}, func(b *kvbus.Bus) {
			b.SetFloat(kvbus.BusVoltageKey("s", "Bus"), 0.8)
		}, "under-voltage opens breaker"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dev, bus := protIED(t, row.mutate)
			base := time.Unix(0, 0)
			dev.Step(base)
			if dev.TripCount() != 0 {
				t.Fatal("tripped at rest")
			}
			row.trigger(bus)
			dev.Step(base.Add(time.Second))
			if dev.TripCount() != 1 {
				t.Fatalf("trips = %d", dev.TripCount())
			}
			if bus.GetBool(kvbus.BreakerCmdKey("s", "CB"), true) {
				t.Error("breaker not opened")
			}
			t.Logf("Table II | %s | %s | OK", row.name, row.desc)
		})
	}
}

func benchProtection(b *testing.B, mutate func(*sgmlconf.IEDEntry), prep func(*kvbus.Bus)) {
	b.Helper()
	dev, bus := protIED(b, mutate)
	prep(bus)
	base := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Step(base.Add(time.Duration(i) * time.Millisecond))
	}
}

func BenchmarkTableII_ProtectionPTOC(b *testing.B) {
	benchProtection(b, func(e *sgmlconf.IEDEntry) {
		e.Protection.PTOC = &sgmlconf.PTOCConf{ThresholdKA: 0.4, DelayMS: 100, Line: "L"}
	}, func(bus *kvbus.Bus) { bus.SetFloat(kvbus.LineCurrentKey("s", "L"), 0.3) })
}

func BenchmarkTableII_ProtectionPTOV(b *testing.B) {
	benchProtection(b, func(e *sgmlconf.IEDEntry) {
		e.Protection.PTOV = &sgmlconf.PTOVConf{ThresholdPU: 1.1, DelayMS: 100, Bus: "Bus"}
	}, func(bus *kvbus.Bus) { bus.SetFloat(kvbus.BusVoltageKey("s", "Bus"), 1.0) })
}

func BenchmarkTableII_ProtectionPTUV(b *testing.B) {
	benchProtection(b, func(e *sgmlconf.IEDEntry) {
		e.Protection.PTUV = &sgmlconf.PTUVConf{ThresholdPU: 0.9, DelayMS: 100, Bus: "Bus"}
	}, func(bus *kvbus.Bus) { bus.SetFloat(kvbus.BusVoltageKey("s", "Bus"), 1.0) })
}

func BenchmarkTableII_ProtectionAllFive(b *testing.B) {
	benchProtection(b, func(e *sgmlconf.IEDEntry) {
		e.Protection.PTOC = &sgmlconf.PTOCConf{ThresholdKA: 0.4, DelayMS: 100, Line: "L"}
		e.Protection.PTOV = &sgmlconf.PTOVConf{ThresholdPU: 1.1, DelayMS: 100, Bus: "Bus"}
		e.Protection.PTUV = &sgmlconf.PTUVConf{ThresholdPU: 0.9, DelayMS: 100, Bus: "Bus"}
		e.Protection.PDIF = &sgmlconf.PDIFConf{ThresholdKA: 0.05, DelayMS: 100, Line: "L", RemoteIED: "R"}
		e.Protection.CILO = &sgmlconf.CILOConf{GuardBreaker: "G", GuardIED: "GI"}
	}, func(bus *kvbus.Bus) {
		bus.SetFloat(kvbus.BusVoltageKey("s", "Bus"), 1.0)
		bus.SetFloat(kvbus.LineCurrentKey("s", "L"), 0.3)
	})
}

// ---------------------------------------------------------------------------
// Fig 1 — architecture data path / Fig 2 — compile pipeline
// ---------------------------------------------------------------------------

func compiledEPIC(tb testing.TB) *sgml.CyberRange {
	tb.Helper()
	ms, err := sgml.EPICModelSet()
	if err != nil {
		tb.Fatal(err)
	}
	r, err := sgml.Compile(ms)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(r.Stop)
	return r
}

func TestFig1_ArchitectureDataPath(t *testing.T) {
	// Fig 1: SCADA HMI / PLC / IEDs on an emulated network, coupled to the
	// power simulator. Verify one full loop: physical -> IED -> PLC -> SCADA
	// and SCADA -> PLC -> IED -> physical.
	r := compiledEPIC(t)
	if err := r.Start(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i := 0; i < 3; i++ {
		now = now.Add(r.Interval())
		if err := r.StepAll(now); err != nil {
			t.Fatal(err)
		}
	}
	up, err := r.HMI.Point("DP_MainVoltage")
	if err != nil {
		t.Fatal(err)
	}
	if up.Value < 0.95 || up.Value > 1.05 {
		t.Fatalf("upward path value = %v", up.Value)
	}
	if err := r.HMI.Control("DP_ManualTrip", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		now = now.Add(r.Interval())
		if err := r.StepAll(now); err != nil {
			t.Fatal(err)
		}
	}
	if r.Sim.LastResult().Buses["EPIC/VL22/TransBay/MainBus"].Energized {
		t.Error("downward control path did not reach the plant")
	}
}

func BenchmarkFig2_CompilePipeline(b *testing.B) {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := sgml.Compile(ms)
		if err != nil {
			b.Fatal(err)
		}
		r.Stop()
	}
}

func BenchmarkFig2_CompileFromFiles(b *testing.B) {
	files := epicFileSet(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ms, err := sgml.LoadModelFiles("epic", files)
		if err != nil {
			b.Fatal(err)
		}
		r, err := sgml.Compile(ms)
		if err != nil {
			b.Fatal(err)
		}
		r.Stop()
	}
}

// ---------------------------------------------------------------------------
// Fig 3 — per-stage toolchain benches
// ---------------------------------------------------------------------------

func scaleDocs(tb testing.TB, subs, feeders int) (*epic.ScaleModel, map[string]*scl.Document) {
	tb.Helper()
	sm, err := epic.NewScaleModel(subs, feeders)
	if err != nil {
		tb.Fatal(err)
	}
	return sm, sm.SCDs
}

func BenchmarkFig3_SSDMerger(b *testing.B) {
	sm, docs := scaleDocs(b, 5, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sclmerge.MergeSSD(docs, sm.SED); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_SCDMerger(b *testing.B) {
	sm, docs := scaleDocs(b, 5, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sclmerge.MergeSCD(docs, sm.SED); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_SSDParser(b *testing.B) {
	sm, docs := scaleDocs(b, 5, 5)
	cons, err := sclmerge.MergeSCD(docs, sm.SED)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GeneratePowerModel("bench", cons, sm.PowerConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_MininetLauncher(b *testing.B) {
	sm, docs := scaleDocs(b, 5, 5)
	cons, err := sclmerge.MergeSCD(docs, sm.SED)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built, err := core.GenerateNetwork(cons)
		if err != nil {
			b.Fatal(err)
		}
		built.Net.Stop()
	}
}

func BenchmarkFig3_SCADAConfigParser(b *testing.B) {
	m, err := epic.NewModel()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := m.SCADAConfig.ToImportJSON()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sgmlconf.ParseImportJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFig3_ToolchainStages(t *testing.T) {
	// Every Fig 3 module runs in sequence on the same multi-substation input.
	sm, docs := scaleDocs(t, 3, 3)
	cons, err := sclmerge.MergeSCD(docs, sm.SED)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := core.GeneratePowerModel("stages", cons, sm.PowerConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Buses) != 3*(3+1) {
		t.Errorf("buses = %d", len(grid.Buses))
	}
	built, err := core.GenerateNetwork(cons)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Net.Stop()
	if len(built.Hosts) != 12 {
		t.Errorf("hosts = %d", len(built.Hosts))
	}
	if _, err := powerflow.Solve(grid, powerflow.Options{}); err != nil {
		t.Fatal(err)
	}
	t.Logf("Fig 3 | SSD/SCD merger -> %d substations consolidated", len(cons.Doc.Substations))
	t.Logf("Fig 3 | SSD parser -> %d buses, %d lines", len(grid.Buses), len(grid.Lines))
	t.Logf("Fig 3 | Mininet launcher -> %d hosts, %d switches", len(built.Hosts), len(built.Switches))
}

// ---------------------------------------------------------------------------
// Fig 4 / Fig 5 — generated topologies
// ---------------------------------------------------------------------------

func TestFig4_EPICNetworkTopology(t *testing.T) {
	r := compiledEPIC(t)
	top := r.Topology()
	// The rounded rectangles of Fig 4: per-segment LANs joined centrally.
	for _, seg := range []string{"sw-GenLAN", "sw-TransLAN", "sw-MicroLAN", "sw-HomeLAN", "sw-ControlLAN", "sw-wan"} {
		if !strings.Contains(top, seg) {
			t.Errorf("Fig 4 topology missing %q", seg)
		}
	}
	t.Logf("Fig 4 artefact:\n%s", top)
}

func BenchmarkFig4_NetworkGeneration(b *testing.B) {
	m, err := epic.NewModel()
	if err != nil {
		b.Fatal(err)
	}
	cons, err := sclmerge.SingleSubstation("EPIC", m.SCD)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		built, err := core.GenerateNetwork(cons)
		if err != nil {
			b.Fatal(err)
		}
		built.Net.Stop()
	}
}

func TestFig5_EPICPowerTopology(t *testing.T) {
	r := compiledEPIC(t)
	s := r.PowerSummary()
	for _, want := range []string{"GenBus", "MainBus", "MicroBus", "HomeBus", "TieLine", "MicroLine", "HomeTrafo"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig 5 power model missing %q", want)
		}
	}
	t.Logf("Fig 5 artefact:\n%s", s)
}

func BenchmarkFig5_PowerModelGeneration(b *testing.B) {
	m, err := epic.NewModel()
	if err != nil {
		b.Fatal(err)
	}
	cons, err := sclmerge.SingleSubstation("EPIC", m.SCD)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.GeneratePowerModel("epic", cons, m.PowerConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_PowerFlowSolveEPIC(b *testing.B) {
	m, err := epic.NewModel()
	if err != nil {
		b.Fatal(err)
	}
	cons, err := sclmerge.SingleSubstation("EPIC", m.SCD)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := core.GeneratePowerModel("epic", cons, m.PowerConfig)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := powerflow.Solve(grid, powerflow.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Fig 6 — MITM measurement manipulation
// ---------------------------------------------------------------------------

func TestFig6_MITMMeasurementTamper(t *testing.T) {
	r := compiledEPIC(t)
	attacker, err := r.Built.AttachHost("attacker",
		netem.MustMAC("02:ba:d0:00:00:99"), netem.MustIPv4("10.0.1.99"), "sw-ControlLAN")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	step := func(n int) {
		for i := 0; i < n; i++ {
			now = now.Add(r.Interval())
			if err := r.StepAll(now); err != nil {
				t.Fatal(err)
			}
		}
	}
	step(3)
	before, _ := r.HMI.Point("DP_MainVoltage")
	if before.Value < 0.95 {
		t.Fatalf("baseline = %v", before.Value)
	}

	m := attack.NewMITM(attacker, r.Built.AddrOf["CPLC"], r.Built.AddrOf["TIED1"])
	m.SetPayloadTamper(attack.ScaleMMSFloats(0.5))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	time.Sleep(50 * time.Millisecond)
	step(3)

	during, _ := r.HMI.Point("DP_MainVoltage")
	ratio := during.Value / before.Value
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("Fig 6: tampered/true ratio = %.3f, want ~0.5", ratio)
	}
	trueVM := r.Sim.LastResult().Buses["EPIC/VL22/TransBay/MainBus"].VmPU
	if trueVM < 0.95 {
		t.Errorf("true grid affected by measurement MITM: %v", trueVM)
	}
	_, mod, _ := m.Stats()
	if mod == 0 {
		t.Error("no packets modified")
	}
	t.Logf("Fig 6 | true %.4f pu, SCADA sees %.4f pu, %d packets rewritten", trueVM, during.Value, mod)
}

func BenchmarkFig6_MITMPayloadRewrite(b *testing.B) {
	// The per-packet cost of the measurement rewrite on a realistic MMS
	// read-response payload.
	var e mms.Value
	_ = e
	payload := make([]byte, 0, 128)
	payload = append(payload, 0x03, 0x00, 0x00, 0x20)
	for i := 0; i < 8; i++ {
		payload = append(payload, 0x87, 9, 11, 0x3F, 0xF0, 0, 0, 0, 0, 0, byte(i))
	}
	fn := attack.ScaleMMSFloats(0.5)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := append([]byte(nil), payload...)
		if _, ok := fn(buf); !ok {
			b.Fatal("dropped")
		}
	}
}

func BenchmarkFig6_ARPPoisonCycle(b *testing.B) {
	// Cost of one poison round (two forged replies) on a live fabric.
	n := netem.NewNetwork()
	if _, err := netem.NewSwitch(n, "sw", 4); err != nil {
		b.Fatal(err)
	}
	mk := func(name string, last byte) *netem.Host {
		h, err := netem.NewHost(n, name, netem.MAC{2, 0, 0, 0, 0, last}, netem.IPv4{10, 0, 0, last})
		if err != nil {
			b.Fatal(err)
		}
		return h
	}
	a := mk("a", 1)
	v := mk("v", 2)
	atk := mk("atk", 3)
	for i, h := range []*netem.Host{a, v, atk} {
		if _, err := n.Connect(h.Name(), 0, "sw", i, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := n.Start(); err != nil {
		b.Fatal(err)
	}
	defer n.Stop()
	if _, err := a.ResolveARP(v.IP(), time.Second); err != nil {
		b.Fatal(err)
	}
	pkt := netem.ARPPacket{Op: netem.ARPReply, SenderMAC: atk.MAC(), SenderIP: v.IP(), TargetMAC: a.MAC(), TargetIP: a.IP()}
	payload := pkt.Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atk.SendFrame(netem.Frame{Dst: a.MAC(), Src: atk.MAC(), EtherType: netem.EtherTypeARP, Payload: payload})
	}
}

// ---------------------------------------------------------------------------
// §IV-B — false command injection
// ---------------------------------------------------------------------------

func TestFCI_BreakerOpensAndFlowChanges(t *testing.T) {
	r := compiledEPIC(t)
	attacker, err := r.Built.AttachHost("attacker",
		netem.MustMAC("02:ba:d0:00:00:66"), netem.MustIPv4("10.0.1.66"), "sw-TransLAN")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i := 0; i < 2; i++ {
		now = now.Add(r.Interval())
		if err := r.StepAll(now); err != nil {
			t.Fatal(err)
		}
	}
	mainBus := "EPIC/VL22/TransBay/MainBus"
	if !r.Sim.LastResult().Buses[mainBus].Energized {
		t.Fatal("bus dead before attack")
	}
	fci := attack.NewFCI(attacker)
	if err := fci.InjectCommand(r.Built.AddrOf["TIED1"], 0, "LD0/XCBR1.Pos.Oper", mms.NewBool(false)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		now = now.Add(r.Interval())
		if err := r.StepAll(now); err != nil {
			t.Fatal(err)
		}
	}
	res := r.Sim.LastResult()
	if res.Buses[mainBus].Energized {
		t.Error("FCI did not de-energise the bus")
	}
	if res.DeadBuses != 3 {
		t.Errorf("dead buses = %d, want 3 (main, micro, home)", res.DeadBuses)
	}
	t.Logf("§IV-B FCI | one MMS write -> %d buses de-energised", res.DeadBuses)
}

func BenchmarkFCI_CommandInjection(b *testing.B) {
	// Cost of a full injection: association + write + conclude.
	r := compiledEPIC(b)
	attacker, err := r.Built.AttachHost("attacker",
		netem.MustMAC("02:ba:d0:00:00:66"), netem.MustIPv4("10.0.1.66"), "sw-TransLAN")
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Start(context.Background(), false); err != nil {
		b.Fatal(err)
	}
	fci := attack.NewFCI(attacker)
	victim := r.Built.AddrOf["TIED1"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fci.InjectCommand(victim, 0, "LD0/XCBR1.Pos.Oper", mms.NewBool(i%2 == 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// §IV-A — scalability: 5 substations / ~104 IEDs @ 100 ms
// ---------------------------------------------------------------------------

func TestScale_104IEDs100ms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ms, total, err := sgml.ScaleModelSet(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if total < 104 {
		t.Fatalf("model has %d IEDs, want >= 104", total)
	}
	r, err := sgml.Compile(ms)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	// 20 deterministic full-range steps; each must fit the 100 ms budget.
	now := time.Now()
	start := time.Now()
	const steps = 20
	for i := 0; i < steps; i++ {
		now = now.Add(r.Interval())
		if err := r.StepAll(now); err != nil {
			t.Fatal(err)
		}
	}
	perStep := time.Since(start) / steps
	_, meanSolve := r.Sim.Stats()
	t.Logf("§IV-A | %d IEDs, 5 substations: full step %v, power solve %v (budget 100ms)", total, perStep, meanSolve)
	if perStep > 100*time.Millisecond {
		t.Errorf("full range step %v exceeds the 100 ms budget", perStep)
	}
	if res := r.Sim.LastResult(); !res.Converged || res.DeadBuses != 0 {
		t.Error("grid unhealthy at scale")
	}
}

func BenchmarkScale_SubstationSweep(b *testing.B) {
	// The headline experiment: power-flow step latency vs substation count
	// at 21 IEDs per substation (5 substations ≈ the paper's 104-IED setup).
	for _, subs := range []int{1, 2, 3, 4, 5} {
		b.Run(fmt.Sprintf("substations=%d", subs), func(b *testing.B) {
			ms, total, err := sgml.ScaleModelSet(subs, 20)
			if err != nil {
				b.Fatal(err)
			}
			r, err := sgml.Compile(ms)
			if err != nil {
				b.Fatal(err)
			}
			defer r.Stop()
			if _, err := r.Sim.Step(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(total), "ieds")
		})
	}
}

func BenchmarkScale_FullRangeStep(b *testing.B) {
	// Whole-range step (solve + 105 IED passes) at the paper's target size.
	ms, _, err := sgml.ScaleModelSet(5, 20)
	if err != nil {
		b.Fatal(err)
	}
	r, err := sgml.Compile(ms)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(context.Background(), false); err != nil {
		b.Fatal(err)
	}
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(r.Interval())
		if err := r.StepAll(now); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScale_CampaignThroughput(b *testing.B) {
	// The campaign ablation: a 20-run seed sweep of a fault drill at the
	// paper's 5×20 scale target (104+ IEDs per range), executed per-run-
	// compile (every run pays the full SG-ML pipeline — the pre-fork
	// reference path, selected with WithPerRunCompile) vs forked (the model
	// compiles once and every run clones the compiled root). Both sweeps use
	// the same oversubscribed worker pool, so the ratio isolates the fork
	// fast path. Besides ns/op, the bench asserts the acceptance contract —
	// the forked sweep's per-run fingerprints are identical to the
	// per-run-compile sweep's.
	ms, _, err := sgml.ScaleModelSet(5, 20)
	if err != nil {
		b.Fatal(err)
	}
	seeds := make([]int64, 20)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	drill := &sgml.Scenario{
		Name:  "campaign-drill",
		Steps: 6,
		Events: []sgml.Event{
			{Name: "trip", Trigger: sgml.At(1), Action: sgml.OpenBreaker("S3_CB1")},
			{Name: "shed", Trigger: sgml.At(2), Action: sgml.ScaleLoad("S1_LD1", 0.5)},
			{Name: "heal", Trigger: sgml.At(4), Action: sgml.CloseBreaker("S3_CB1")},
		},
	}
	campaign := &sgml.Campaign{
		Name:     "scale-sweep",
		Model:    ms,
		Variants: []sgml.CampaignVariant{{Name: "sweep", Scenario: drill, Seeds: seeds}},
	}
	fingerprints := func(b *testing.B, rep *sgml.CampaignReport) map[int64]string {
		b.Helper()
		if !rep.OK() {
			b.Fatalf("campaign not clean: %d failures, %d determinism mismatches",
				rep.Failures, len(rep.Determinism))
		}
		out := make(map[int64]string, len(rep.Runs))
		for _, run := range rep.Runs {
			out[run.Seed] = run.Fingerprint
		}
		return out
	}
	// Runs block on range start/teardown I/O, not pure CPU: oversubscribe.
	workers := runtime.GOMAXPROCS(0) * 2
	var perRunCompile, forked map[int64]string
	runCampaign := func(b *testing.B, out *map[int64]string, opts ...sgml.CampaignOption) {
		b.Helper()
		opts = append([]sgml.CampaignOption{sgml.WithWorkers(workers)}, opts...)
		runs := 0
		for i := 0; i < b.N; i++ {
			rep, err := sgml.RunCampaign(context.Background(), campaign, opts...)
			if err != nil {
				b.Fatal(err)
			}
			*out = fingerprints(b, rep)
			runs += rep.TotalRuns
		}
		b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/s")
	}
	b.Run("per-run-compile", func(b *testing.B) { runCampaign(b, &perRunCompile, sgml.WithPerRunCompile()) })
	b.Run("forked", func(b *testing.B) { runCampaign(b, &forked) })
	if perRunCompile != nil && forked != nil {
		for seed, fp := range perRunCompile {
			if forked[seed] != fp {
				b.Fatalf("seed %d: forked fingerprint %s != per-run-compile %s", seed, forked[seed], fp)
			}
		}
	}

	// The durable result store in the hot path: the forked sweep again, with
	// every completed run framed, checksummed and fsync'd into the JSONL
	// store and the sweep sealed under its Merkle root. The delta against
	// "forked" is the whole persistence overhead (target: within 5% at 20
	// runs — the runs dominate; each record is one fsync on a worker
	// goroutine, off the other workers' critical path). The fingerprints
	// must match the unstored sweeps exactly; the sealed root must verify.
	var stored map[int64]string
	b.Run("store/jsonl", func(b *testing.B) {
		base := b.TempDir()
		runs := 0
		for i := 0; i < b.N; i++ {
			dir := filepath.Join(base, fmt.Sprintf("i%d", i))
			rep, err := sgml.RunCampaign(context.Background(), campaign,
				sgml.WithWorkers(workers), sgml.WithStore(dir))
			if err != nil {
				b.Fatal(err)
			}
			if rep.MerkleRoot == "" {
				b.Fatal("clean sweep not sealed")
			}
			stored = fingerprints(b, rep)
			runs += rep.TotalRuns
			if i == 0 {
				b.StopTimer()
				if _, err := sgml.VerifyStore(dir); err != nil {
					b.Fatalf("store verify: %v", err)
				}
				b.StartTimer()
			}
		}
		b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/s")
	})
	if stored != nil && forked != nil {
		for seed, fp := range forked {
			if stored[seed] != fp {
				b.Fatalf("seed %d: stored fingerprint %s != unstored %s", seed, stored[seed], fp)
			}
		}
	}

	// Provisioning in isolation — what each sweep pays per run to obtain an
	// isolated range, with the (identical) scenario execution factored out.
	// This is the ratio the fork fast path targets: full SG-ML pipeline vs
	// clone-from-artifacts.
	b.Run("provision/per-run-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := sgml.Compile(ms)
			if err != nil {
				b.Fatal(err)
			}
			r.Stop()
		}
	})
	b.Run("provision/forked", func(b *testing.B) {
		root, err := sgml.Compile(ms)
		if err != nil {
			b.Fatal(err)
		}
		defer root.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := root.Fork()
			if err != nil {
				b.Fatal(err)
			}
			f.Stop()
		}
	})
}

// ---------------------------------------------------------------------------
// Ablations — one design choice each, against its alternative
// ---------------------------------------------------------------------------

func BenchmarkAblation_PowerFlowWarmStart(b *testing.B) {
	ms, _, err := sgml.ScaleModelSet(5, 20)
	if err != nil {
		b.Fatal(err)
	}
	r, err := sgml.Compile(ms)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Stop()
	first, err := powerflow.Solve(r.Grid, powerflow.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := powerflow.Solve(r.Grid, powerflow.Options{WarmStart: first}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := powerflow.Solve(r.Grid, powerflow.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblation_ZeroAllocDataPlane(b *testing.B) {
	// The tentpole ablation: one warm GOOSE publish->switch->deliver->decode
	// round, end to end. Each iteration publishes a state and spin-waits for
	// the subscriber-side decode, so ns/op is delivery latency and allocs/op
	// (-benchmem) attributes both ends of the path.
	//
	//   legacy-copy — the seed data plane, kept as the reference path:
	//                 pooling off, values cloned per publish, a fresh marshal
	//                 buffer per frame, and a fresh TLV tree per decode.
	//   zero-alloc  — the shipped path: pooled payloads, append-mode BER,
	//                 reused publisher buffers, arena decode.
	//
	// Delivered bytes, capture output and IDS verdicts are pinned identical
	// across the two paths by TestPooledPublishDeliversIdenticalBytes,
	// TestFramePoolingDifferential and the IDS differential test.
	type fabric struct {
		net      *netem.Network
		pub, sub *netem.Host
	}
	mkFabric := func(b *testing.B, pooling bool) fabric {
		b.Helper()
		n := netem.NewNetwork()
		n.SetFramePooling(pooling)
		if _, err := netem.NewSwitch(n, "sw", 4); err != nil {
			b.Fatal(err)
		}
		pubHost, err := netem.NewHost(n, "pub", netem.MAC{2, 0, 0, 0, 0, 1}, netem.IPv4{10, 0, 0, 1})
		if err != nil {
			b.Fatal(err)
		}
		subHost, err := netem.NewHost(n, "sub", netem.MAC{2, 0, 0, 0, 0, 2}, netem.IPv4{10, 0, 0, 2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n.Connect("pub", 0, "sw", 0, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := n.Connect("sub", 0, "sw", 1, 0); err != nil {
			b.Fatal(err)
		}
		return fabric{net: n, pub: pubHost, sub: subHost}
	}
	const appID = 0x0001
	// A realistic interlocking dataset: breaker positions and trip flags,
	// exactly what the range's IEDs put in their GOOSE control blocks.
	vals := []mms.Value{mms.NewBool(true), mms.NewBool(false), mms.NewBool(true), mms.NewBool(false)}
	await := func(b *testing.B, received *atomic.Uint64, target uint64) {
		b.Helper()
		for spins := 0; received.Load() < target; spins++ {
			if spins > 100_000_000 {
				b.Fatal("delivery stalled")
			}
			runtime.Gosched() // single-CPU friendly: let the device workers run
		}
	}

	b.Run("legacy-copy", func(b *testing.B) {
		f := mkFabric(b, false)
		var received atomic.Uint64
		lastSt := map[string]uint32{}
		f.sub.JoinMulticast(netem.GooseMAC(appID))
		f.sub.HandleEtherType(netem.EtherTypeGOOSE, func(fr netem.Frame) {
			// The seed decode path: fresh TLV tree and Message per packet.
			gotID, msg, err := goose.Unmarshal(fr.Payload)
			if err != nil || gotID != appID {
				return
			}
			lastSt[msg.GocbRef] = msg.StNum
			received.Add(1)
		})
		if err := f.net.Start(); err != nil {
			b.Fatal(err)
		}
		defer f.net.Stop()
		var stNum uint32
		publish := func() {
			// The seed publish path: clone the dataset, marshal into a fresh
			// buffer, send a plain frame.
			stNum++
			msg := goose.Message{
				GocbRef: "GIED1LD0/LLN0$GO$gcb1", DatSet: "ds", GoID: "gcb1",
				Timestamp: time.Unix(1_700_000_000, 0), StNum: stNum,
				TTLMillis: 2000, ConfRev: 1,
				Values: append([]mms.Value(nil), vals...),
			}
			f.pub.SendFrame(netem.Frame{
				Dst: netem.GooseMAC(appID), Src: f.pub.MAC(),
				EtherType: netem.EtherTypeGOOSE, Payload: goose.Marshal(appID, msg),
			})
		}
		publish()
		await(b, &received, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			publish()
			await(b, &received, uint64(i)+2)
		}
		b.StopTimer()
		if elapsed := b.Elapsed(); elapsed > 0 {
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "pkts/s")
		}
	})

	b.Run("zero-alloc", func(b *testing.B) {
		f := mkFabric(b, true)
		sub := goose.Subscribe(f.sub, appID)
		var received atomic.Uint64
		go func() {
			for range sub.Updates() {
				received.Add(1)
			}
		}()
		if err := f.net.Start(); err != nil {
			b.Fatal(err)
		}
		defer f.net.Stop()
		pub := goose.NewPublisher(f.pub, goose.PublisherConfig{
			GocbRef: "GIED1LD0/LLN0$GO$gcb1", DatSet: "ds", GoID: "gcb1",
			AppID: appID, ConfRev: 1, FixedInterval: time.Hour,
		})
		defer pub.Stop()
		pub.Publish(vals...) // warm buffers, pool and arenas
		await(b, &received, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pub.Publish(vals...)
			await(b, &received, uint64(i)+2)
		}
		b.StopTimer()
		if elapsed := b.Elapsed(); elapsed > 0 {
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "pkts/s")
		}
	})
}

func BenchmarkAblation_KVBusCoupling(b *testing.B) {
	// DB-style cache coupling (paper's choice) vs a plain map: what the
	// indirection costs per measurement write+read.
	b.Run("kvbus", func(b *testing.B) {
		bus := kvbus.New()
		key := kvbus.BusVoltageKey("s", "b")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bus.SetFloat(key, 1.0123)
			_ = bus.GetFloat(key, 0)
		}
	})
	b.Run("directmap", func(b *testing.B) {
		m := map[string]float64{}
		key := "pw/s/bus/b/vm_pu"
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m[key] = 1.0123
			_ = m[key]
		}
	})
}

func BenchmarkAblation_GooseBackoffVsFixed(b *testing.B) {
	// Frames needed to keep one state alive for 2 s of simulated schedule:
	// exponential backoff (standard) vs fixed 10 ms retransmission.
	count := func(fixed time.Duration) int {
		frames := 0
		elapsed := time.Duration(0)
		n := 1
		for elapsed < 2*time.Second {
			var d time.Duration
			if fixed > 0 {
				d = fixed
			} else {
				d = goose.RetransmissionSchedule(n, time.Second)
			}
			elapsed += d
			frames++
			n++
		}
		return frames
	}
	b.Run("backoff", func(b *testing.B) {
		var frames int
		for i := 0; i < b.N; i++ {
			frames = count(0)
		}
		b.ReportMetric(float64(frames), "frames/2s")
	})
	b.Run("fixed10ms", func(b *testing.B) {
		var frames int
		for i := 0; i < b.N; i++ {
			frames = count(10 * time.Millisecond)
		}
		b.ReportMetric(float64(frames), "frames/2s")
	})
}

func BenchmarkAblation_MergedVsPerSubstationCompile(b *testing.B) {
	// Consolidated multi-substation compile vs compiling each substation as
	// its own isolated range (no ties, no WAN).
	sm, err := epic.NewScaleModel(3, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("consolidated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ms := &core.ModelSet{Name: "m", SCDs: sm.SCDs, SED: sm.SED, IEDConfig: sm.IEDConfigs, PowerConfig: sm.PowerConfig}
			r, err := core.Compile(ms)
			if err != nil {
				b.Fatal(err)
			}
			r.Stop()
		}
	})
	b.Run("per-substation", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for name, doc := range sm.SCDs {
				if name != "S1" {
					continue // only S1 has a slack; others cannot stand alone
				}
				ms := &core.ModelSet{
					Name: name, SCDs: map[string]*scl.Document{name: doc},
					IEDConfig: sm.IEDConfigs, PowerConfig: sm.PowerConfig,
				}
				r, err := core.Compile(ms)
				if err != nil {
					b.Fatal(err)
				}
				r.Stop()
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Extension benches — IDS overhead and protocol codec costs
// ---------------------------------------------------------------------------

func BenchmarkIDS_InspectionThroughput(b *testing.B) {
	// Per-frame cost of transmitting through a sensor-monitored fabric vs
	// the bare fabric: the IDS overhead a monitored range pays on every hop.
	arp := netem.ARPPacket{
		Op: netem.ARPReply, SenderMAC: netem.MAC{2, 0, 0, 0, 0, 1},
		SenderIP: netem.IPv4{10, 0, 0, 1}, TargetIP: netem.IPv4{10, 0, 0, 2},
	}
	frames := []netem.Frame{
		{Src: netem.MAC{2, 0, 0, 0, 0, 1}, EtherType: netem.EtherTypeARP, Payload: arp.Marshal()},
		{Src: netem.MAC{2, 0, 0, 0, 0, 1}, EtherType: netem.EtherTypeGOOSE,
			Payload: goose.Marshal(1, goose.Message{GocbRef: "g", StNum: 1, Timestamp: time.Unix(0, 0)})},
		{Src: netem.MAC{2, 0, 0, 0, 0, 1}, EtherType: netem.EtherTypeIPv4,
			Payload: netem.IPPacket{Src: netem.IPv4{10, 0, 0, 1}, Dst: netem.IPv4{10, 0, 0, 2},
				Protocol: netem.IPProtoTCP, Payload: make([]byte, 40)}.Marshal()},
	}
	run := func(b *testing.B, monitored bool) {
		n := netem.NewNetwork()
		if _, err := netem.NewSwitch(n, "sw", 2); err != nil {
			b.Fatal(err)
		}
		h, err := netem.NewHost(n, "h", netem.MAC{2, 0xFF, 0, 0, 0, 1}, netem.IPv4{10, 9, 9, 9})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n.Connect("h", 0, "sw", 0, 0); err != nil {
			b.Fatal(err)
		}
		if monitored {
			ids.New(ids.Options{AuthorizedWriters: []netem.IPv4{{10, 0, 0, 2}}}).Attach(n)
		}
		if err := n.Start(); err != nil {
			b.Fatal(err)
		}
		defer n.Stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.SendFrame(frames[i%len(frames)])
		}
	}
	b.Run("monitored", func(b *testing.B) { run(b, true) })
	b.Run("bare", func(b *testing.B) { run(b, false) })
}

func BenchmarkGOOSE_MarshalUnmarshal(b *testing.B) {
	msg := goose.Message{
		GocbRef: "GIED1LD0/LLN0$GO$gcb1", DatSet: "ds", GoID: "gcb1",
		Timestamp: time.Unix(1_700_000_000, 0), StNum: 42, SqNum: 3,
		TTLMillis: 2000, ConfRev: 1,
		Values: []mms.Value{mms.NewBool(true), mms.NewBool(false), mms.NewString("trip")},
	}
	payload := goose.Marshal(1, msg)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := goose.Marshal(1, msg)
		if _, _, err := goose.Unmarshal(out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMMS_ReadRoundTripOverFabric(b *testing.B) {
	// Full MMS read over the emulated network: association reused, one
	// request/response per iteration (the PLC's per-scan unit cost).
	n := netem.NewNetwork()
	if _, err := netem.NewSwitch(n, "sw", 4); err != nil {
		b.Fatal(err)
	}
	srvHost, _ := netem.NewHost(n, "srv", netem.MAC{2, 0, 0, 0, 0, 1}, netem.IPv4{10, 0, 0, 1})
	cliHost, _ := netem.NewHost(n, "cli", netem.MAC{2, 0, 0, 0, 0, 2}, netem.IPv4{10, 0, 0, 2})
	n.Connect("srv", 0, "sw", 0, 0)
	n.Connect("cli", 0, "sw", 1, 0)
	if err := n.Start(); err != nil {
		b.Fatal(err)
	}
	defer n.Stop()
	srv := mms.NewServer("bench", "srv")
	srv.Define("LD0/MMXU1.A.phsA", mms.NewFloat(0.42))
	if err := srv.Serve(srvHost, 0); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := mms.Dial(cliHost, srvHost.IP(), 0, mms.DialOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Read("LD0/MMXU1.A.phsA"); err != nil {
			b.Fatal(err)
		}
	}
}
