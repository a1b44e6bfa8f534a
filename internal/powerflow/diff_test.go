// Differential tests for the sparse power-flow engine on the models the repo
// ships: the sparse path (CSR Jacobian + cached sparse LU) must reproduce the
// dense reference on cold starts, warm-started load churn and topology
// changes alike, within the engine's contract (vm within 1e-8 pu, branch
// flows within 1e-6 MVA); and a forked solver must solve byte-identically to
// a cold one. The package is external so it can build the shipped models
// through internal/core, which itself depends on powerflow.
package powerflow_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/epic"
	"repro/internal/powerflow"
	"repro/internal/powergrid"
	"repro/internal/sclmerge"
)

func scaleGrid(tb testing.TB, subs, feeders int) *powergrid.Network {
	tb.Helper()
	sm, err := epic.NewScaleModel(subs, feeders)
	if err != nil {
		tb.Fatal(err)
	}
	cons, err := sclmerge.MergeSCD(sm.SCDs, sm.SED)
	if err != nil {
		tb.Fatal(err)
	}
	grid, err := core.GeneratePowerModel(fmt.Sprintf("scale-%dx%d", subs, feeders), cons, sm.PowerConfig)
	if err != nil {
		tb.Fatal(err)
	}
	return grid
}

func xlGrid(tb testing.TB) *powergrid.Network {
	tb.Helper()
	sm, err := epic.NewScaleModelXL()
	if err != nil {
		tb.Fatal(err)
	}
	cons, err := sclmerge.MergeSCD(sm.SCDs, sm.SED)
	if err != nil {
		tb.Fatal(err)
	}
	grid, err := core.GeneratePowerModel("scale-xl", cons, sm.PowerConfig)
	if err != nil {
		tb.Fatal(err)
	}
	return grid
}

func epicGrid(tb testing.TB) *powergrid.Network {
	tb.Helper()
	m, err := epic.NewModel()
	if err != nil {
		tb.Fatal(err)
	}
	cons, err := sclmerge.SingleSubstation("EPIC", m.SCD)
	if err != nil {
		tb.Fatal(err)
	}
	grid, err := core.GeneratePowerModel("epic", cons, m.PowerConfig)
	if err != nil {
		tb.Fatal(err)
	}
	return grid
}

func requireAgreement(t *testing.T, step string, dense, sparse *powerflow.Result) {
	t.Helper()
	const vmTol, flowTol = 1e-8, 1e-6
	if dense.Converged != sparse.Converged || dense.DeadBuses != sparse.DeadBuses || dense.Islands != sparse.Islands {
		t.Fatalf("%s: topology disagreement: dense conv=%v dead=%d isl=%d, sparse conv=%v dead=%d isl=%d",
			step, dense.Converged, dense.DeadBuses, dense.Islands, sparse.Converged, sparse.DeadBuses, sparse.Islands)
	}
	for name, d := range dense.Buses {
		s := sparse.Buses[name]
		if d.Energized != s.Energized {
			t.Fatalf("%s: bus %s energized dense=%v sparse=%v", step, name, d.Energized, s.Energized)
		}
		if math.Abs(d.VmPU-s.VmPU) > vmTol {
			t.Errorf("%s: bus %s vm dense=%.12f sparse=%.12f", step, name, d.VmPU, s.VmPU)
		}
	}
	branches := func(kind string, dm, sm map[string]powerflow.BranchResult) {
		for name, d := range dm {
			s := sm[name]
			if math.Abs(d.PFromMW-s.PFromMW) > flowTol || math.Abs(d.QFromMVAr-s.QFromMVAr) > flowTol ||
				math.Abs(d.PToMW-s.PToMW) > flowTol || math.Abs(d.QToMVAr-s.QToMVAr) > flowTol {
				t.Errorf("%s: %s %s flows disagree: dense (%.9f %.9f / %.9f %.9f) sparse (%.9f %.9f / %.9f %.9f)",
					step, kind, name,
					d.PFromMW, d.QFromMVAr, d.PToMW, d.QToMVAr,
					s.PFromMW, s.QFromMVAr, s.PToMW, s.QToMVAr)
			}
		}
	}
	branches("line", dense.Lines, sparse.Lines)
	branches("trafo", dense.Trafos, sparse.Trafos)
}

// diffSequence runs a warm-started solve sequence (load churn plus a breaker
// cycle) through a dense-reference solver and the cached sparse solver in
// lockstep, comparing every step.
func diffSequence(t *testing.T, grid *powergrid.Network) {
	denseSv := powerflow.NewSolver()
	sparseSv := powerflow.NewSolver()
	var denseLast, sparseLast *powerflow.Result

	solveStep := func(step string) {
		t.Helper()
		dres, derr := denseSv.Solve(grid, powerflow.DenseReference(powerflow.Options{WarmStart: denseLast}))
		sres, serr := sparseSv.Solve(grid, powerflow.Options{WarmStart: sparseLast})
		if derr != nil || serr != nil {
			t.Fatalf("%s: dense err %v, sparse err %v", step, derr, serr)
		}
		requireAgreement(t, step, dres, sres)
		denseLast, sparseLast = dres, sres
	}

	solveStep("cold")
	for i := 0; i < 3; i++ {
		for j := range grid.Loads {
			grid.Loads[j].SetScaling(0.8 + 0.1*float64((i+j)%5))
		}
		solveStep(fmt.Sprintf("warm-load-%d", i))
	}
	if len(grid.Switches) > 0 {
		sw := &grid.Switches[0]
		sw.Closed = false
		solveStep("breaker-open")
		solveStep("breaker-open-warm")
		sw.Closed = true
		solveStep("breaker-reclose")
	}
	hits, _ := sparseSv.CacheStats()
	if hits == 0 {
		t.Error("sparse solver never hit its topology cache during the warm sequence")
	}
}

func TestSparseDenseDifferential3x4(t *testing.T)  { diffSequence(t, scaleGrid(t, 3, 4)) }
func TestSparseDenseDifferential5x20(t *testing.T) { diffSequence(t, scaleGrid(t, 5, 20)) }
func TestSparseDenseDifferentialEPIC(t *testing.T) { diffSequence(t, epicGrid(t)) }

func TestSparseDenseDifferentialXL(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the 10x50 dense reference solve is slow")
	}
	diffSequence(t, xlGrid(t))
}

func TestScaleXLModelSolves(t *testing.T) {
	grid := xlGrid(t)
	if got, want := len(grid.Buses), epic.ScaleXLSubs*(epic.ScaleXLFeeders+1); got != want {
		t.Fatalf("XL grid has %d buses, want %d", got, want)
	}
	res, err := powerflow.Solve(grid, powerflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.DeadBuses != 0 {
		t.Fatalf("XL grid unhealthy: converged=%v dead=%d", res.Converged, res.DeadBuses)
	}
	for name, b := range res.Buses {
		if b.VmPU < 0.9 || b.VmPU > 1.1 {
			t.Errorf("bus %s vm = %v pu, want within ±10%%", name, b.VmPU)
		}
	}
}

// clampedGrid returns a copy of grid plus a generator at its last bus whose
// reactive limits bind, so a Q-limit-enforcing solve flips that bus from PV
// to PQ mid-solve and the solver caches a second bus-kind partition.
func clampedGrid(grid *powergrid.Network) (n *powergrid.Network, genBus string) {
	n = grid.Clone()
	genBus = n.Buses[len(n.Buses)-1].Name
	n.Gens = append(n.Gens, powergrid.Generator{
		Name: "clamp", Bus: genBus, VmPU: clampSetpoint, MinQMVAr: -0.01, MaxQMVAr: 0.01, InService: true,
	})
	return n, genBus
}

const clampSetpoint = 1.05

// TestForkedSolverMatchesCold pins Solver.Fork's contract on the shipped
// models, with a Q-limit partition in play: a fork of a warmed template
// solves byte-identically to a cold solver and starts on the cache-hit path,
// and a topology change on one fork rebuilds only that fork, leaving the
// template and a sibling fork hitting their shared cache with unchanged
// results.
func TestForkedSolverMatchesCold(t *testing.T) {
	grids := []struct {
		name string
		grid func(testing.TB) *powergrid.Network
	}{
		{"EPIC", epicGrid},
		{"3x4", func(tb testing.TB) *powergrid.Network { return scaleGrid(tb, 3, 4) }},
	}
	opts := powerflow.Options{EnforceQLimits: true}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			grid, genBus := clampedGrid(g.grid(t))
			cold := func(n *powergrid.Network) *powerflow.Result {
				t.Helper()
				res, err := powerflow.NewSolver().Solve(n, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := cold(grid)
			if vm := want.Buses[genBus].VmPU; math.Abs(vm-clampSetpoint) < 1e-6 {
				t.Fatalf("generator bus %s held its %v pu setpoint: the Q limit never bound", genBus, vm)
			}

			tmpl := powerflow.NewSolver()
			if _, err := tmpl.Solve(grid, opts); err != nil {
				t.Fatal(err)
			}
			a, b := tmpl.Fork(), tmpl.Fork()
			solve := func(sv *powerflow.Solver, n *powergrid.Network, who string) *powerflow.Result {
				t.Helper()
				res, err := sv.Solve(n, opts)
				if err != nil {
					t.Fatalf("%s: %v", who, err)
				}
				return res
			}
			for _, f := range []struct {
				sv  *powerflow.Solver
				who string
			}{{a, "fork a"}, {b, "fork b"}} {
				if got := solve(f.sv, grid, f.who); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: result differs from a cold solver's", f.who)
				}
				if hits, misses := f.sv.CacheStats(); hits != 1 || misses != 0 {
					t.Fatalf("%s: cache hits/misses = %d/%d, want 1/0", f.who, hits, misses)
				}
			}

			// Open a breaker on fork a's network only.
			open := grid.Clone()
			open.Switches[0].Closed = false
			if got := solve(a, open, "fork a, breaker open"); !reflect.DeepEqual(got, cold(open)) {
				t.Fatal("fork a after a topology change: result differs from a cold solver's")
			}
			if _, misses := a.CacheStats(); misses != 1 {
				t.Fatalf("fork a: misses = %d after a topology change, want 1", misses)
			}

			// The template and the sibling still hit and still agree.
			for _, f := range []struct {
				sv           *powerflow.Solver
				who          string
				hits, misses uint64
			}{{tmpl, "template", 1, 1}, {b, "fork b", 2, 0}} {
				if got := solve(f.sv, grid, f.who); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: result changed after fork a's topology change", f.who)
				}
				if hits, misses := f.sv.CacheStats(); hits != f.hits || misses != f.misses {
					t.Errorf("%s: cache hits/misses = %d/%d, want %d/%d", f.who, hits, misses, f.hits, f.misses)
				}
			}
		})
	}
}

func BenchmarkAblation_SparseSolver(b *testing.B) {
	// The sparse-engine ablation: one warm-started power-flow step under
	// load-profile churn (the 100 ms loop's workload), comparing
	//   dense-rebuild  — topology rebuilt every step, dense O(n³) Gaussian
	//                    elimination;
	//   dense-warm     — persistent Solver, dense elimination: what EPIC and
	//                    3x4 ran when small systems were routed to the dense
	//                    path;
	//   sparse-rebuild — sparse LU but still rebuilding topology per step;
	//   sparse-warm    — the shipped path: persistent Solver whose topology
	//                    cache reuses islands, Ybus and the symbolic
	//                    factorization across steps.
	// Loads are re-scaled every iteration so each step performs real NR
	// iterations instead of short-circuiting on an already-converged state.
	sizes := []struct {
		name string
		grid func(testing.TB) *powergrid.Network
	}{
		{"EPIC", epicGrid},
		{"3x4", func(tb testing.TB) *powergrid.Network { return scaleGrid(tb, 3, 4) }},
		{"5x20", func(tb testing.TB) *powergrid.Network { return scaleGrid(tb, 5, 20) }},
		{"10x50-XL", func(tb testing.TB) *powergrid.Network { return xlGrid(tb) }},
	}
	for _, size := range sizes {
		b.Run(size.name, func(b *testing.B) {
			grid := size.grid(b)
			first, err := powerflow.Solve(grid, powerflow.Options{})
			if err != nil {
				b.Fatal(err)
			}
			runSeq := func(b *testing.B, sv *powerflow.Solver, dense bool) {
				b.Helper()
				last := first
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					scale := 0.95 + 0.01*float64(i%10)
					for j := range grid.Loads {
						grid.Loads[j].SetScaling(scale)
					}
					opts := powerflow.Options{WarmStart: last}
					if dense {
						opts = powerflow.DenseReference(opts)
					}
					var res *powerflow.Result
					var err error
					if sv != nil {
						res, err = sv.Solve(grid, opts)
					} else {
						res, err = powerflow.Solve(grid, opts)
					}
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
			}
			b.Run("dense-rebuild", func(b *testing.B) { runSeq(b, nil, true) })
			b.Run("dense-warm", func(b *testing.B) { runSeq(b, powerflow.NewSolver(), true) })
			b.Run("sparse-rebuild", func(b *testing.B) { runSeq(b, nil, false) })
			b.Run("sparse-warm", func(b *testing.B) { runSeq(b, powerflow.NewSolver(), false) })
		})
	}
}
