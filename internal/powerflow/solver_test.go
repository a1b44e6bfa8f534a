package powerflow

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/powergrid"
)

// twoBus builds slack --line--> load network: 110 kV, 10 km line, 20 MW load.
func twoBus() *powergrid.Network {
	n := powergrid.New("two-bus")
	n.AddBus("A", 110, "sub1")
	n.AddBus("B", 110, "sub1")
	n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "grid", Bus: "A", VmPU: 1.0})
	n.Lines = append(n.Lines, powergrid.Line{
		Name: "L1", FromBus: "A", ToBus: "B", LengthKM: 10,
		ROhmPerKM: 0.06, XOhmPerKM: 0.4, CNFPerKM: 10, MaxIKA: 0.5, InService: true,
	})
	n.Loads = append(n.Loads, powergrid.Load{Name: "LD1", Bus: "B", PMW: 20, QMVAr: 5, Scaling: 1, InService: true})
	return n
}

func TestTwoBusConverges(t *testing.T) {
	res, err := Solve(twoBus(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	b := res.Buses["B"]
	if !b.Energized {
		t.Fatal("bus B not energized")
	}
	if b.VmPU >= 1.0 || b.VmPU < 0.9 {
		t.Errorf("load bus voltage = %v pu, want in (0.9, 1.0)", b.VmPU)
	}
	if b.VaDeg >= 0 {
		t.Errorf("load bus angle = %v deg, want negative", b.VaDeg)
	}
	ext := res.ExtGrids["grid"]
	// Slack must cover load plus small positive losses.
	if ext.PMW <= 20 || ext.PMW > 21 {
		t.Errorf("slack P = %v MW, want slightly above 20", ext.PMW)
	}
	line := res.Lines["L1"]
	if line.PFromMW <= 0 {
		t.Errorf("line P from = %v, want positive flow A->B", line.PFromMW)
	}
	if line.PLossMW <= 0 {
		t.Errorf("line losses = %v MW, want positive", line.PLossMW)
	}
	if line.LoadingPercent <= 0 || line.LoadingPercent > 100 {
		t.Errorf("loading = %v%%", line.LoadingPercent)
	}
}

// TestLosslessLineAnalytic checks the NR solution against the closed-form
// P = Vm_A*Vm_B*sin(delta)/X for a lossless line with fixed |V| at both ends.
func TestLosslessLineAnalytic(t *testing.T) {
	n := powergrid.New("analytic")
	n.AddBus("A", 110, "s")
	n.AddBus("B", 110, "s")
	n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "A", VmPU: 1.0})
	// X = 0.1 pu total: Zbase = 110^2/100 = 121 ohm; 12.1 ohm over 1 km.
	n.Lines = append(n.Lines, powergrid.Line{
		Name: "L", FromBus: "A", ToBus: "B", LengthKM: 1,
		ROhmPerKM: 1e-9, XOhmPerKM: 12.1, InService: true,
	})
	// A PV generator holds B at 1.0 pu while drawing 50 MW of load.
	n.Gens = append(n.Gens, powergrid.Generator{Name: "gen", Bus: "B", PMW: 0, VmPU: 1.0, InService: true})
	n.Loads = append(n.Loads, powergrid.Load{Name: "ld", Bus: "B", PMW: 50, Scaling: 1, InService: true})

	res, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// P = 50 MW = 0.5 pu; sin(delta) = P*X = 0.05 -> delta = 2.866 deg.
	wantDelta := -math.Asin(0.5*0.1) * 180 / math.Pi
	got := res.Buses["B"].VaDeg
	if math.Abs(got-wantDelta) > 0.01 {
		t.Errorf("angle = %v deg, want %v", got, wantDelta)
	}
	if vm := res.Buses["B"].VmPU; math.Abs(vm-1.0) > 1e-6 {
		t.Errorf("PV bus vm = %v, want 1.0", vm)
	}
}

func TestPowerBalanceProperty(t *testing.T) {
	f := func(rawP, rawQ uint8) bool {
		p := 1 + float64(rawP%60)  // 1..60 MW
		q := float64(rawQ%20) - 10 // -10..10 MVAr
		n := twoBus()
		n.Loads[0].PMW = p
		n.Loads[0].QMVAr = q
		res, err := Solve(n, Options{})
		if err != nil {
			return false
		}
		ext := res.ExtGrids["grid"]
		loss := res.Lines["L1"].PLossMW
		// Generation = load + losses within tolerance.
		return math.Abs(ext.PMW-(p+loss)) < 1e-3 && loss >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHigherLoadLowersVoltage(t *testing.T) {
	var prev = 2.0
	for _, p := range []float64{5, 15, 30, 45} {
		n := twoBus()
		n.Loads[0].PMW = p
		res, err := Solve(n, Options{})
		if err != nil {
			t.Fatalf("P=%v: %v", p, err)
		}
		vm := res.Buses["B"].VmPU
		if vm >= prev {
			t.Errorf("P=%v MW: vm=%v not lower than previous %v", p, vm, prev)
		}
		prev = vm
	}
}

func TestOpenBreakerIslandsLoadBus(t *testing.T) {
	n := twoBus()
	n.Switches = append(n.Switches, powergrid.Switch{
		Name: "CB1", Bus: "B", Element: "L1", Kind: powergrid.SwitchLine, Closed: false,
	})
	res, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Buses["B"]
	if b.Energized {
		t.Error("bus B energized despite open breaker")
	}
	if b.VmPU != 0 {
		t.Errorf("dead bus vm = %v, want 0", b.VmPU)
	}
	if res.DeadBuses != 1 {
		t.Errorf("dead buses = %d, want 1", res.DeadBuses)
	}
	if line := res.Lines["L1"]; line.InService || line.PFromMW != 0 {
		t.Errorf("open line result = %+v", line)
	}
	// Slack supplies nothing but keeps the island energised.
	if ext := res.ExtGrids["grid"]; math.Abs(ext.PMW) > 1e-6 {
		t.Errorf("slack P = %v, want ~0", ext.PMW)
	}
}

func TestGeneratorIslandStaysEnergized(t *testing.T) {
	// Micro-grid scenario: gen+load island separated from the slack.
	n := powergrid.New("microgrid")
	n.AddBus("A", 110, "main")
	n.AddBus("B", 110, "mg")
	n.AddBus("C", 110, "mg")
	n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "A", VmPU: 1.0})
	n.Lines = append(n.Lines,
		powergrid.Line{Name: "tie", FromBus: "A", ToBus: "B", LengthKM: 5, ROhmPerKM: 0.06, XOhmPerKM: 0.4, InService: false},
		powergrid.Line{Name: "mg", FromBus: "B", ToBus: "C", LengthKM: 1, ROhmPerKM: 0.06, XOhmPerKM: 0.4, InService: true},
	)
	n.Gens = append(n.Gens, powergrid.Generator{Name: "pv", Bus: "B", PMW: 5, VmPU: 1.0, InService: true})
	n.Loads = append(n.Loads, powergrid.Load{Name: "home", Bus: "C", PMW: 3, Scaling: 1, InService: true})
	res, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Buses["B"].Energized || !res.Buses["C"].Energized {
		t.Error("micro-grid island de-energised despite local generator")
	}
	if res.Islands != 2 {
		t.Errorf("islands = %d, want 2", res.Islands)
	}
	if vm := res.Buses["C"].VmPU; vm < 0.95 || vm > 1.0 {
		t.Errorf("micro-grid load vm = %v", vm)
	}
}

func TestBusCouplerFusesBuses(t *testing.T) {
	n := powergrid.New("coupler")
	n.AddBus("A", 110, "s")
	n.AddBus("B1", 110, "s")
	n.AddBus("B2", 110, "s")
	n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "A", VmPU: 1.0})
	n.Lines = append(n.Lines, powergrid.Line{Name: "L", FromBus: "A", ToBus: "B1", LengthKM: 10, ROhmPerKM: 0.06, XOhmPerKM: 0.4, InService: true})
	n.Loads = append(n.Loads, powergrid.Load{Name: "ld", Bus: "B2", PMW: 10, Scaling: 1, InService: true})
	n.Switches = append(n.Switches, powergrid.Switch{Name: "cpl", Bus: "B1", Element: "B2", Kind: powergrid.SwitchBusBus, Closed: true})

	res, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Buses["B2"].Energized {
		t.Fatal("B2 dead despite closed coupler")
	}
	if res.Buses["B1"].VmPU != res.Buses["B2"].VmPU {
		t.Errorf("fused buses differ: %v vs %v", res.Buses["B1"].VmPU, res.Buses["B2"].VmPU)
	}
	// Open the coupler: B2 has no source.
	n.Switches[0].Closed = false
	res, err = Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Buses["B2"].Energized {
		t.Error("B2 energized with open coupler")
	}
}

func TestTransformerStepDown(t *testing.T) {
	n := powergrid.New("trafo")
	n.AddBus("HV", 110, "s")
	n.AddBus("LV", 20, "s")
	n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "HV", VmPU: 1.0})
	n.Trafos = append(n.Trafos, powergrid.Transformer{
		Name: "T1", HVBus: "HV", LVBus: "LV", SnMVA: 40,
		VnHVKV: 110, VnLVKV: 20, VKPercent: 10, VKRPercent: 0.5, InService: true,
	})
	n.Loads = append(n.Loads, powergrid.Load{Name: "ld", Bus: "LV", PMW: 15, QMVAr: 3, Scaling: 1, InService: true})
	res, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lv := res.Buses["LV"]
	if !lv.Energized || lv.VmPU >= 1.0 || lv.VmPU < 0.9 {
		t.Errorf("LV vm = %v, want in (0.9, 1.0)", lv.VmPU)
	}
	tr := res.Trafos["T1"]
	if tr.PFromMW <= 15 {
		t.Errorf("trafo HV-side P = %v, want > 15 (load + losses)", tr.PFromMW)
	}
	if tr.PLossMW <= 0 {
		t.Errorf("trafo losses = %v", tr.PLossMW)
	}
}

func TestTransformerTapRaisesVoltage(t *testing.T) {
	build := func(tap int) *powergrid.Network {
		n := powergrid.New("tap")
		n.AddBus("HV", 110, "s")
		n.AddBus("LV", 20, "s")
		n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "HV", VmPU: 1.0})
		n.Trafos = append(n.Trafos, powergrid.Transformer{
			Name: "T1", HVBus: "HV", LVBus: "LV", SnMVA: 40,
			VnHVKV: 110, VnLVKV: 20, VKPercent: 10, VKRPercent: 0.5,
			TapPos: tap, TapStepPC: 2.5, InService: true,
		})
		n.Loads = append(n.Loads, powergrid.Load{Name: "ld", Bus: "LV", PMW: 15, Scaling: 1, InService: true})
		return n
	}
	r0, err := Solve(build(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Negative tap on the HV side lowers the effective ratio and raises LV volts.
	rNeg, err := Solve(build(-2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rNeg.Buses["LV"].VmPU <= r0.Buses["LV"].VmPU {
		t.Errorf("tap -2 vm %v not above neutral %v", rNeg.Buses["LV"].VmPU, r0.Buses["LV"].VmPU)
	}
}

func TestQLimitEnforcement(t *testing.T) {
	n := powergrid.New("qlim")
	n.AddBus("A", 110, "s")
	n.AddBus("B", 110, "s")
	n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "A", VmPU: 1.0})
	n.Lines = append(n.Lines, powergrid.Line{Name: "L", FromBus: "A", ToBus: "B", LengthKM: 20, ROhmPerKM: 0.06, XOhmPerKM: 0.4, InService: true})
	// Gen tries to hold 1.05 pu but is Q-starved.
	n.Gens = append(n.Gens, powergrid.Generator{Name: "gen", Bus: "B", PMW: 0, VmPU: 1.05, MinQMVAr: -1, MaxQMVAr: 1, InService: true})
	n.Loads = append(n.Loads, powergrid.Load{Name: "ld", Bus: "B", PMW: 30, QMVAr: 10, Scaling: 1, InService: true})

	free, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vm := free.Buses["B"].VmPU; math.Abs(vm-1.05) > 1e-6 {
		t.Fatalf("unlimited PV vm = %v, want 1.05", vm)
	}
	lim, err := Solve(n, Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	if vm := lim.Buses["B"].VmPU; vm >= 1.05-1e-9 {
		t.Errorf("Q-limited vm = %v, want < 1.05", vm)
	}
}

func TestClampedGenReportsQLimit(t *testing.T) {
	// A Q-starved generator at B is clamped at its MaxQMVAr; the one at C has
	// room and stays voltage-controlled.
	n := powergrid.New("qclamp")
	n.AddBus("A", 110, "s")
	n.AddBus("B", 110, "s")
	n.AddBus("C", 110, "s")
	n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "A", VmPU: 1.0})
	n.Lines = append(n.Lines,
		powergrid.Line{Name: "LB", FromBus: "A", ToBus: "B", LengthKM: 20, ROhmPerKM: 0.06, XOhmPerKM: 0.4, InService: true},
		powergrid.Line{Name: "LC", FromBus: "A", ToBus: "C", LengthKM: 20, ROhmPerKM: 0.06, XOhmPerKM: 0.4, InService: true})
	n.Gens = append(n.Gens,
		powergrid.Generator{Name: "clamped", Bus: "B", PMW: 0, VmPU: 1.05, MinQMVAr: -1, MaxQMVAr: 1, InService: true},
		powergrid.Generator{Name: "free", Bus: "C", PMW: 5, VmPU: 1.01, MinQMVAr: -100, MaxQMVAr: 100, InService: true})
	n.Loads = append(n.Loads,
		powergrid.Load{Name: "ldB", Bus: "B", PMW: 30, QMVAr: 10, Scaling: 1, InService: true},
		powergrid.Load{Name: "ldC", Bus: "C", PMW: 10, QMVAr: 4, Scaling: 1, InService: true})

	res, err := Solve(n, Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	if vm := res.Buses["B"].VmPU; vm >= 1.05-1e-9 {
		t.Fatalf("bus B vm = %v: the generator was not clamped", vm)
	}
	if q := res.GenQMVAr["clamped"]; math.Abs(q-1) > 1e-6 {
		t.Errorf("clamped generator Q = %v MVAr, want its 1 MVAr limit", q)
	}
	if vm := res.Buses["C"].VmPU; math.Abs(vm-1.01) > 1e-6 {
		t.Fatalf("bus C vm = %v: the free generator lost voltage control", vm)
	}
	// An unclamped generator supplies the bus's net Q injection plus its load.
	if q, want := res.GenQMVAr["free"], res.Buses["C"].QMVAr+4; math.Abs(q-want) > 1e-9 {
		t.Errorf("free generator Q = %v MVAr, want %v", q, want)
	}
}

func TestWarmStartConvergesFaster(t *testing.T) {
	n := twoBus()
	n.Loads[0].PMW = 45
	cold, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n.Loads[0].PMW = 46 // small perturbation, as in the 100 ms loop
	warm, err := Solve(n, Options{WarmStart: cold})
	if err != nil {
		t.Fatal(err)
	}
	coldAgain, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > coldAgain.Iterations {
		t.Errorf("warm start took %d iterations, cold %d", warm.Iterations, coldAgain.Iterations)
	}
}

func TestValidationErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func() *powergrid.Network
	}{
		{"unknown bus in line", func() *powergrid.Network {
			n := twoBus()
			n.Lines[0].ToBus = "nope"
			return n
		}},
		{"no slack", func() *powergrid.Network {
			n := twoBus()
			n.Externals = nil
			return n
		}},
		{"duplicate load", func() *powergrid.Network {
			n := twoBus()
			n.Loads = append(n.Loads, n.Loads[0])
			return n
		}},
		{"zero-voltage bus", func() *powergrid.Network {
			n := twoBus()
			n.Buses[0].VnKV = 0
			return n
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Solve(tt.build(), Options{}); err == nil {
				t.Error("Solve succeeded, want validation error")
			}
		})
	}
}

func TestMeshedNetwork(t *testing.T) {
	// Triangle mesh with two load buses; checks a non-radial Jacobian.
	n := powergrid.New("mesh")
	n.AddBus("A", 110, "s")
	n.AddBus("B", 110, "s")
	n.AddBus("C", 110, "s")
	n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "A", VmPU: 1.02})
	mk := func(name, f, to string, km float64) powergrid.Line {
		return powergrid.Line{Name: name, FromBus: f, ToBus: to, LengthKM: km, ROhmPerKM: 0.06, XOhmPerKM: 0.4, CNFPerKM: 9, MaxIKA: 0.6, InService: true}
	}
	n.Lines = append(n.Lines, mk("AB", "A", "B", 10), mk("BC", "B", "C", 8), mk("CA", "C", "A", 12))
	n.Loads = append(n.Loads,
		powergrid.Load{Name: "lb", Bus: "B", PMW: 25, QMVAr: 8, Scaling: 1, InService: true},
		powergrid.Load{Name: "lc", Bus: "C", PMW: 15, QMVAr: 4, Scaling: 1, InService: true},
	)
	res, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 || res.Iterations > 10 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	totalLoss := res.Lines["AB"].PLossMW + res.Lines["BC"].PLossMW + res.Lines["CA"].PLossMW
	ext := res.ExtGrids["g"]
	if math.Abs(ext.PMW-(40+totalLoss)) > 1e-3 {
		t.Errorf("balance: slack %v vs load+loss %v", ext.PMW, 40+totalLoss)
	}
	// Opening one mesh line must still leave everything energised.
	n.Lines[1].InService = false
	res2, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.DeadBuses != 0 {
		t.Errorf("dead buses = %d after opening one mesh line", res2.DeadBuses)
	}
	// Flows must rearrange: AB now carries everything to B.
	if res2.Lines["AB"].PFromMW <= res.Lines["AB"].PFromMW {
		t.Error("AB flow did not increase after BC outage")
	}
}

func TestSolveDense(t *testing.T) {
	a := []float64{2, 1, -1, -3, -1, 2, -2, 1, 2}
	b := []float64{8, -11, -3}
	x, err := solveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveDenseSingular(t *testing.T) {
	a := []float64{1, 2, 2, 4}
	b := []float64{1, 2}
	if _, err := solveDense(a, b); err == nil {
		t.Error("singular solve succeeded")
	}
}

func TestSolveDenseNeedsPivot(t *testing.T) {
	// Zero on the first diagonal forces a pivot.
	a := []float64{0, 1, 1, 0}
	b := []float64{3, 5}
	x, err := solveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-5) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [5 3]", x)
	}
}

func TestSolveDenseProperty(t *testing.T) {
	// Random diagonally-dominant systems: check A*x == b after solve.
	f := func(seed int64) bool {
		rng := newLCG(seed)
		n := 3 + int(rng.next()%6)
		a := make([]float64, n*n)
		orig := make([]float64, n*n)
		b := make([]float64, n)
		origB := make([]float64, n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				v := rng.float() - 0.5
				a[i*n+j] = v
				rowSum += math.Abs(v)
			}
			a[i*n+i] += rowSum + 1 // dominance
			b[i] = rng.float() * 10
		}
		copy(orig, a)
		copy(origB, b)
		x, err := solveDense(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += orig[i*n+j] * x[j]
			}
			if math.Abs(sum-origB[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// lcg is a tiny deterministic generator so property tests are reproducible
// without math/rand seeding ceremony.
type lcg struct{ s uint64 }

func newLCG(seed int64) *lcg  { return &lcg{s: uint64(seed)*2862933555777941757 + 3037000493} }
func (l *lcg) next() uint64   { l.s = l.s*6364136223846793005 + 1442695040888963407; return l.s >> 11 }
func (l *lcg) float() float64 { return float64(l.next()%1_000_000) / 1_000_000 }
