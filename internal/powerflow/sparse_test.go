package powerflow

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/powergrid"
)

// randSparseSystem builds an n×n diagonally dominant matrix with a random
// symmetric sparsity structure, returned both dense (row-major) and CSR.
func randSparseSystem(rng *lcg, n int) (dense []float64, rowPtr, colIdx []int, vals []float64, b []float64) {
	dense = make([]float64, n*n)
	for i := 0; i < n; i++ {
		dense[i*n+i] = 1 // placeholder; dominance fixed below
	}
	edges := 2 * n
	for e := 0; e < edges; e++ {
		i := int(rng.next() % uint64(n))
		j := int(rng.next() % uint64(n))
		if i == j {
			continue
		}
		dense[i*n+j] = rng.float() - 0.5
		dense[j*n+i] = rng.float() - 0.5 // symmetric structure, unsymmetric values
	}
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				rowSum += math.Abs(dense[i*n+j])
			}
		}
		dense[i*n+i] = rowSum + 1 + rng.float()
	}
	rowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if dense[i*n+j] != 0 {
				colIdx = append(colIdx, j)
				vals = append(vals, dense[i*n+j])
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	b = make([]float64, n)
	for i := range b {
		b[i] = rng.float()*10 - 5
	}
	return
}

func TestSparseLUMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := newLCG(seed)
		n := 4 + int(rng.next()%20)
		dense, rowPtr, colIdx, vals, b := randSparseSystem(rng, n)

		perm := minDegreeOrder(n, rowPtr, colIdx)
		sym := luSymbolicFactor(n, rowPtr, colIdx, perm)
		num := newLUNumeric(sym)
		maxAbs := 0.0
		for _, v := range vals {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if err := num.factor(sym, rowPtr, colIdx, vals, maxAbs); err != nil {
			return false
		}
		xs := append([]float64(nil), b...)
		num.solve(sym, xs)

		xd, err := solveDense(append([]float64(nil), dense...), append([]float64(nil), b...))
		if err != nil {
			return false
		}
		for i := range xs {
			if math.Abs(xs[i]-xd[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMinDegreeOrderIsPermutation(t *testing.T) {
	rng := newLCG(7)
	for trial := 0; trial < 10; trial++ {
		n := 3 + int(rng.next()%30)
		_, rowPtr, colIdx, _, _ := randSparseSystem(rng, n)
		perm := minDegreeOrder(n, rowPtr, colIdx)
		if len(perm) != n {
			t.Fatalf("perm length %d, want %d", len(perm), n)
		}
		got := append([]int(nil), perm...)
		sort.Ints(got)
		for i, v := range got {
			if v != i {
				t.Fatalf("perm is not a permutation: %v", perm)
			}
		}
	}
}

func TestSparseLUSingular(t *testing.T) {
	// Row 2 = 2 × row 0: structurally fine, numerically singular.
	rowPtr := []int{0, 2, 4, 6}
	colIdx := []int{0, 2, 1, 2, 0, 2}
	vals := []float64{1, 2, 1, 1, 2, 4}
	perm := []int{0, 1, 2} // natural order keeps the dependency intact
	sym := luSymbolicFactor(3, rowPtr, colIdx, perm)
	num := newLUNumeric(sym)
	if err := num.factor(sym, rowPtr, colIdx, vals, 4); !errors.Is(err, ErrSingular) {
		t.Errorf("factor err = %v, want ErrSingular", err)
	}
}

// TestSolveDenseRelativeThreshold covers the satellite fix: the singularity
// test must be relative to the matrix norm, so a uniformly tiny
// well-conditioned system solves, and a uniformly huge singular system is
// rejected rather than "solved" on rounding noise.
func TestSolveDenseRelativeThreshold(t *testing.T) {
	t.Run("tiny well-conditioned solves", func(t *testing.T) {
		// Entries far below the old absolute 1e-12 cutoff.
		a := []float64{2e-13, 1e-13, 1e-13, 3e-13}
		b := []float64{5e-13, 8e-13}
		x, err := solveDense(append([]float64(nil), a...), append([]float64(nil), b...))
		if err != nil {
			t.Fatalf("solveDense: %v", err)
		}
		// Verify A·x = b.
		if got := a[0]*x[0] + a[1]*x[1]; math.Abs(got-b[0]) > 1e-20 {
			t.Errorf("residual row 0: %v", got-b[0])
		}
		if got := a[2]*x[0] + a[3]*x[1]; math.Abs(got-b[1]) > 1e-20 {
			t.Errorf("residual row 1: %v", got-b[1])
		}
	})
	t.Run("huge singular rejected", func(t *testing.T) {
		// Row 1 = row 0 / 3 with rounding: the elimination residual is far
		// above an absolute 1e-12 but far below the matrix scale.
		a := []float64{3e15, 1e15, 1e15, 1e15 / 3}
		b := []float64{1, 2}
		if _, err := solveDense(a, b); !errors.Is(err, ErrSingular) {
			t.Errorf("err = %v, want ErrSingular", err)
		}
	})
	t.Run("all-zero matrix rejected", func(t *testing.T) {
		if _, err := solveDense(make([]float64, 4), make([]float64, 2)); !errors.Is(err, ErrSingular) {
			t.Errorf("err = %v, want ErrSingular", err)
		}
	})
}

// solveBoth runs the same network through the dense reference and the
// sparse engine and asserts the solutions agree.
func solveBoth(t *testing.T, n *powergrid.Network, opts Options) (*Result, *Result) {
	t.Helper()
	dres, derr := Solve(n, DenseReference(opts))
	sres, serr := Solve(n, opts)
	if (derr == nil) != (serr == nil) {
		t.Fatalf("method disagreement: dense err %v, sparse err %v", derr, serr)
	}
	if derr != nil {
		return dres, sres
	}
	assertResultsAgree(t, dres, sres, 1e-8, 1e-6)
	return dres, sres
}

// assertResultsAgree checks vm within vmTol pu and branch flows within
// flowTol MVA between two solutions.
func assertResultsAgree(t *testing.T, a, b *Result, vmTol, flowTol float64) {
	t.Helper()
	if a.Converged != b.Converged || a.DeadBuses != b.DeadBuses || a.Islands != b.Islands {
		t.Fatalf("topology disagreement: %+v vs %+v",
			[3]interface{}{a.Converged, a.DeadBuses, a.Islands},
			[3]interface{}{b.Converged, b.DeadBuses, b.Islands})
	}
	for name, ab := range a.Buses {
		bb := b.Buses[name]
		if math.Abs(ab.VmPU-bb.VmPU) > vmTol {
			t.Errorf("bus %s vm: dense %v sparse %v", name, ab.VmPU, bb.VmPU)
		}
		if ab.Energized != bb.Energized {
			t.Errorf("bus %s energized: %v vs %v", name, ab.Energized, bb.Energized)
		}
	}
	check := func(kind string, am, bm map[string]BranchResult) {
		for name, ab := range am {
			bb := bm[name]
			if math.Abs(ab.PFromMW-bb.PFromMW) > flowTol || math.Abs(ab.QFromMVAr-bb.QFromMVAr) > flowTol {
				t.Errorf("%s %s from-flow: dense (%v, %v) sparse (%v, %v)",
					kind, name, ab.PFromMW, ab.QFromMVAr, bb.PFromMW, bb.QFromMVAr)
			}
		}
	}
	check("line", a.Lines, b.Lines)
	check("trafo", a.Trafos, b.Trafos)
}

func TestSparseMatchesDenseSmallNetworks(t *testing.T) {
	t.Run("two-bus", func(t *testing.T) { solveBoth(t, twoBus(), Options{}) })
	t.Run("mesh", func(t *testing.T) {
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
		solveBoth(t, n, Options{})
	})
	t.Run("trafo-and-island", func(t *testing.T) {
		n := powergrid.New("mix")
		n.AddBus("HV", 110, "s")
		n.AddBus("LV", 20, "s")
		n.AddBus("ISL", 20, "s")
		n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "HV", VmPU: 1.0})
		n.Trafos = append(n.Trafos, powergrid.Transformer{
			Name: "T1", HVBus: "HV", LVBus: "LV", SnMVA: 40,
			VnHVKV: 110, VnLVKV: 20, VKPercent: 10, VKRPercent: 0.5, TapPos: -1, TapStepPC: 2.5, InService: true,
		})
		n.Loads = append(n.Loads, powergrid.Load{Name: "ld", Bus: "LV", PMW: 15, QMVAr: 3, Scaling: 1, InService: true})
		// ISL is sourceless and disconnected: must be dead under both paths.
		n.Lines = append(n.Lines, powergrid.Line{Name: "off", FromBus: "LV", ToBus: "ISL", LengthKM: 1, ROhmPerKM: 0.1, XOhmPerKM: 0.3, InService: false})
		dres, _ := solveBoth(t, n, Options{})
		if dres.DeadBuses != 1 {
			t.Errorf("dead buses = %d, want 1", dres.DeadBuses)
		}
	})
	t.Run("q-limits", func(t *testing.T) {
		n := powergrid.New("qlim")
		n.AddBus("A", 110, "s")
		n.AddBus("B", 110, "s")
		n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "A", VmPU: 1.0})
		n.Lines = append(n.Lines, powergrid.Line{Name: "L", FromBus: "A", ToBus: "B", LengthKM: 20, ROhmPerKM: 0.06, XOhmPerKM: 0.4, InService: true})
		n.Gens = append(n.Gens, powergrid.Generator{Name: "gen", Bus: "B", PMW: 0, VmPU: 1.05, MinQMVAr: -1, MaxQMVAr: 1, InService: true})
		n.Loads = append(n.Loads, powergrid.Load{Name: "ld", Bus: "B", PMW: 30, QMVAr: 10, Scaling: 1, InService: true})
		solveBoth(t, n, Options{EnforceQLimits: true})
	})
}

// TestLoadScalingZero is the satellite-fix table test: an explicit scaling
// of zero must remove the load (Pandapower semantics), while an untouched
// zero-value field keeps the 1.0 default.
func TestLoadScalingZero(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*powergrid.Load)
		wantLoad float64 // expected effective MW of the 20 MW load
	}{
		{"explicit scaling 1", func(l *powergrid.Load) { l.SetScaling(1) }, 20},
		{"explicit scaling 0 removes load", func(l *powergrid.Load) { l.SetScaling(0) }, 0},
		{"explicit scaling 0.5", func(l *powergrid.Load) { l.SetScaling(0.5) }, 10},
		{"unset field defaults to 1", func(l *powergrid.Load) { l.Scaling = 0; l.ScalingSet = false }, 20},
		{"literal non-zero scaling honoured", func(l *powergrid.Load) { l.Scaling = 2; l.ScalingSet = false }, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := twoBus()
			tc.mutate(&n.Loads[0])
			res, err := Solve(n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.TotalLoadMW(n); math.Abs(got-tc.wantLoad) > 1e-9 {
				t.Errorf("TotalLoadMW = %v, want %v", got, tc.wantLoad)
			}
			// The slack must actually supply that load (plus small losses,
			// including the µW-scale loss driven by line charging current).
			ext := res.ExtGrids["grid"]
			if ext.PMW < tc.wantLoad-1e-6 || ext.PMW > tc.wantLoad*1.05+1e-4 {
				t.Errorf("slack P = %v MW for effective load %v MW", ext.PMW, tc.wantLoad)
			}
		})
	}
}

func TestSolverCacheWarmPath(t *testing.T) {
	n := twoBus()
	sv := NewSolver()
	var last *Result
	for i := 0; i < 5; i++ {
		n.Loads[0].PMW = 20 + float64(i) // load churn must not invalidate
		res, err := sv.Solve(n, Options{WarmStart: last})
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	hits, misses := sv.CacheStats()
	if misses != 1 || hits != 4 {
		t.Fatalf("cache stats = %d hits / %d misses, want 4/1", hits, misses)
	}

	// A breaker state change must invalidate exactly once.
	n.Switches = append(n.Switches, powergrid.Switch{Name: "CB", Bus: "B", Element: "L1", Kind: powergrid.SwitchLine, Closed: true})
	if _, err := sv.Solve(n, Options{WarmStart: last}); err != nil {
		t.Fatal(err)
	}
	n.Switches[0].Closed = false
	res, err := sv.Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Buses["B"].Energized {
		t.Error("cached solve missed the breaker opening")
	}
	n.Switches[0].Closed = true
	if _, err := sv.Solve(n, Options{}); err != nil {
		t.Fatal(err)
	}
	hits, misses = sv.CacheStats()
	if misses != 4 {
		t.Errorf("misses = %d, want 4 (initial + switch add + open + close)", misses)
	}
	_ = hits

	// Cached warm-path results must equal one-shot results.
	oneShot, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := sv.Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsAgree(t, oneShot, cached, 1e-12, 1e-9)
}

func TestSolverCacheTracksGenOutage(t *testing.T) {
	// A generator dropping out changes bus kinds (PV -> PQ), which the cache
	// signature must catch.
	n := powergrid.New("genout")
	n.AddBus("A", 110, "s")
	n.AddBus("B", 110, "s")
	n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "A", VmPU: 1.0})
	n.Lines = append(n.Lines, powergrid.Line{Name: "L", FromBus: "A", ToBus: "B", LengthKM: 10, ROhmPerKM: 0.06, XOhmPerKM: 0.4, InService: true})
	n.Gens = append(n.Gens, powergrid.Generator{Name: "gen", Bus: "B", PMW: 5, VmPU: 1.03, InService: true})
	n.Loads = append(n.Loads, powergrid.Load{Name: "ld", Bus: "B", PMW: 10, Scaling: 1, InService: true})

	sv := NewSolver()
	withGen, err := sv.Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vm := withGen.Buses["B"].VmPU; math.Abs(vm-1.03) > 1e-6 {
		t.Fatalf("PV bus vm = %v, want 1.03", vm)
	}
	n.Gens[0].InService = false
	withoutGen, err := sv.Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vm := withoutGen.Buses["B"].VmPU; vm >= 1.0 {
		t.Errorf("bus B vm = %v after gen outage, want < 1.0 (PQ sag)", vm)
	}
}

func TestSolverCatchesRehomedLoadOnWarmPath(t *testing.T) {
	// Re-homing a load onto a nonexistent bus between solves must invalidate
	// the cache and surface the validation error, not index a stale node
	// mapping (load values are outside the signature, bus attachment is not).
	n := twoBus()
	sv := NewSolver()
	if _, err := sv.Solve(n, Options{}); err != nil {
		t.Fatal(err)
	}
	n.Loads[0].Bus = "nope"
	if _, err := sv.Solve(n, Options{}); !errors.Is(err, powergrid.ErrUnknownBus) {
		t.Errorf("err = %v, want ErrUnknownBus", err)
	}
}

func TestSolverValidatesSetpointsOnWarmPath(t *testing.T) {
	// Gen/ext voltage setpoints are per-solve inputs (outside the topology
	// signature), so an invalid mutation must still be rejected on a cache
	// hit with the same error the one-shot path gives.
	n := powergrid.New("setpoints")
	n.AddBus("A", 110, "s")
	n.AddBus("B", 110, "s")
	n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "ext", Bus: "A", VmPU: 1.0})
	n.Lines = append(n.Lines, powergrid.Line{Name: "L", FromBus: "A", ToBus: "B", LengthKM: 10, ROhmPerKM: 0.06, XOhmPerKM: 0.4, InService: true})
	n.Gens = append(n.Gens, powergrid.Generator{Name: "gen", Bus: "B", PMW: 2, VmPU: 1.0, InService: true})

	sv := NewSolver()
	if _, err := sv.Solve(n, Options{}); err != nil {
		t.Fatal(err)
	}
	n.Externals[0].VmPU = 0
	if _, err := sv.Solve(n, Options{}); !errors.Is(err, powergrid.ErrBadParameter) {
		t.Errorf("ext vm=0: err = %v, want ErrBadParameter", err)
	}
	n.Externals[0].VmPU = 1.0
	n.Gens[0].VmPU = 0
	if _, err := sv.Solve(n, Options{}); !errors.Is(err, powergrid.ErrBadParameter) {
		t.Errorf("gen vm=0: err = %v, want ErrBadParameter", err)
	}
	n.Gens[0].VmPU = 1.0
	if _, err := sv.Solve(n, Options{}); err != nil {
		t.Errorf("restored setpoints: %v", err)
	}
}

func TestSparseStateCachedPerKindPartition(t *testing.T) {
	// Q-limit clamping flips the PV bus to PQ mid-solve, so each step uses
	// two bus-kind partitions. Both must stay cached across steps instead of
	// evicting each other.
	n := powergrid.New("qlim")
	n.AddBus("A", 110, "s")
	n.AddBus("B", 110, "s")
	n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "A", VmPU: 1.0})
	n.Lines = append(n.Lines, powergrid.Line{Name: "L", FromBus: "A", ToBus: "B", LengthKM: 20, ROhmPerKM: 0.06, XOhmPerKM: 0.4, InService: true})
	n.Gens = append(n.Gens, powergrid.Generator{Name: "gen", Bus: "B", PMW: 0, VmPU: 1.05, MinQMVAr: -1, MaxQMVAr: 1, InService: true})
	n.Loads = append(n.Loads, powergrid.Load{Name: "ld", Bus: "B", PMW: 30, QMVAr: 10, Scaling: 1, InService: true})

	sv := NewSolver()
	opts := Options{EnforceQLimits: true}
	if _, err := sv.Solve(n, opts); err != nil {
		t.Fatal(err)
	}
	if got := len(sv.cache.sparse); got != 2 {
		t.Fatalf("sparse states after first solve = %d, want 2 (template + clamped)", got)
	}
	before := append([]*sparseState(nil), sv.cache.sparse...)
	for i := 0; i < 3; i++ {
		if _, err := sv.Solve(n, opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sv.cache.sparse); got != 2 {
		t.Fatalf("sparse states after warm solves = %d, want still 2", got)
	}
	for _, st := range sv.cache.sparse {
		if st != before[0] && st != before[1] {
			t.Error("warm solve rebuilt a symbolic state instead of reusing the cached partition")
		}
	}
}

func TestSparseNearSingularFallsBackToDense(t *testing.T) {
	// A network that stresses static pivoting: near-zero-impedance line in
	// parallel with a normal one. The sparse path must still produce the
	// dense answer (via its internal fallback if needed).
	n := powergrid.New("stiff")
	n.AddBus("A", 110, "s")
	n.AddBus("B", 110, "s")
	n.Externals = append(n.Externals, powergrid.ExternalGrid{Name: "g", Bus: "A", VmPU: 1.0})
	n.Lines = append(n.Lines,
		powergrid.Line{Name: "stiff", FromBus: "A", ToBus: "B", LengthKM: 1, ROhmPerKM: 1e-7, XOhmPerKM: 1e-6, InService: true},
		powergrid.Line{Name: "soft", FromBus: "A", ToBus: "B", LengthKM: 10, ROhmPerKM: 0.06, XOhmPerKM: 0.4, InService: true},
	)
	n.Loads = append(n.Loads, powergrid.Load{Name: "ld", Bus: "B", PMW: 20, QMVAr: 5, Scaling: 1, InService: true})
	solveBoth(t, n, Options{})
}
