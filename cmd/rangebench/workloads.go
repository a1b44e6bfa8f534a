package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	sgml "repro"

	"repro/internal/powersim"
	"repro/mms"
	"repro/netem"
)

// workload is one benchmark input: a model, an untraced measurement loop and
// the cells its traced run drives. README.md records why each was chosen.
type workload struct {
	name  string
	model func() (*sgml.ModelSet, string, error)
	// measure runs the workload's closed loop for the budget and returns the
	// per-operation samples.
	measure func(b *bench, ms *sgml.ModelSet) (opStats, error)
	// cells describes the traced run's cells on a root compiled with one
	// step-engine worker.
	cells func(b *bench, root *sgml.CyberRange) cellSpec
	// extra runs the traced measurements that are not step cells: the store
	// comparison and the search counters. Nil when the workload has none.
	extra func(b *bench, ms *sgml.ModelSet, t *tracer) (extraLayers, error)
}

// The workloads, in the order -workload all runs them.
var workloads = []*workload{
	{
		name:  "steady-5x20",
		model: scaleModel,
		measure: func(b *bench, ms *sgml.ModelSet) (opStats, error) {
			return measureSteps(b, ms, steadyPlan)
		},
		cells: func(b *bench, root *sgml.CyberRange) cellSpec {
			return stepCells(steadyPlan(root, b.seed))
		},
	},
	{
		name:  "breaker-churn-xl",
		model: xlModel,
		measure: func(b *bench, ms *sgml.ModelSet) (opStats, error) {
			return measureSteps(b, ms, churnPlan)
		},
		cells: func(b *bench, root *sgml.CyberRange) cellSpec {
			return stepCells(churnPlan(root, b.seed))
		},
	},
	{
		name:  "attack-campaign-epic",
		model: epicModel,
		measure: func(b *bench, ms *sgml.ModelSet) (opStats, error) {
			return measureCampaign(b, attackCampaign(ms, b.seed, b.size.attackSeeds), "attack-campaign-epic")
		},
		cells: attackCells,
	},
	{
		name:  "fault-sweep-5x20",
		model: scaleModel,
		measure: func(b *bench, ms *sgml.ModelSet) (opStats, error) {
			return measureCampaign(b, sweepCampaign(ms, b.seed, b.size.sweepSeeds), "fault-sweep-5x20")
		},
		cells: drillCells,
		extra: storeLayers,
	},
	{
		name:    "search-epic",
		model:   epicModel,
		measure: measureSearch,
		cells:   searchCells,
		extra:   searchLayers,
	},
}

// pinnedRoots are the sealed Merkle roots of the campaign batches at the
// default seed, by workload and size: the stored run fingerprints must
// reproduce them exactly.
var pinnedRoots = map[string]string{
	"attack-campaign-epic/full":  "a01c1492dd6aa04329c30c3e72c55a6f788478bf7c21534835cbe7796585b0b3",
	"attack-campaign-epic/smoke": "802b83b2a680c4110d1d0726da8076ad79a7c6d8f7e3fd6418976bb1e22e7772",
	"fault-sweep-5x20/full":      "140a10b25696464742402a59feabfa3b1d4f93597f21354b3bea0f74d5d2463a",
	"fault-sweep-5x20/smoke":     "a43a4bb91fdd133a7894e1d653e2f666699f865b042cc4413c955d906958666b",
}

func scaleModel() (*sgml.ModelSet, string, error) {
	ms, ieds, err := sgml.ScaleModelSet(5, 20)
	return ms, fmt.Sprintf("5x20 scale model, %d IEDs", ieds), err
}

func xlModel() (*sgml.ModelSet, string, error) {
	ms, ieds, err := sgml.ScaleModelSetXL()
	return ms, fmt.Sprintf("10x50 XL scale model, %d IEDs", ieds), err
}

func epicModel() (*sgml.ModelSet, string, error) {
	ms, err := sgml.EPICModelSet()
	return ms, "EPIC testbed model", err
}

// baseTime is the virtual clock origin of every step loop, so the traced and
// untraced ranges of a run see identical timestamps.
var baseTime = time.Unix(1_700_000_000, 0)

// mix is SplitMix64 over (seed, i): a random-access stream, so any two ranges
// fed from the same seed draw identical inputs for the same step.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(i)
	z += 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// loadProfile is the seeded load profile: every tenth step sets one load,
// chosen by the seed, to between 0.9 and 1.1 of its nominal power.
func loadProfile(r *sgml.CyberRange, seed int64) func(i int) []powersim.Event {
	loads := make([]string, len(r.Grid.Loads))
	for i := range r.Grid.Loads {
		loads[i] = r.Grid.Loads[i].Name
	}
	return func(i int) []powersim.Event {
		if i%10 != 0 || len(loads) == 0 {
			return nil
		}
		h := mix(seed, i)
		return []powersim.Event{{
			Kind:    powersim.SetLoadScale,
			Element: loads[h%uint64(len(loads))],
			Value:   0.9 + 0.2*float64(h>>11)/(1<<53),
		}}
	}
}

// stepPlan is a step workload's input stream and its output checks.
type stepPlan struct {
	// inputs are the events applied through Sim.Apply before step i.
	inputs func(i int) []powersim.Event
	// verify checks a finished loop: the dead-bus count of every step and
	// the solver topology-cache misses the steps caused.
	verify func(b *bench, dead []int, misses uint64)
}

func steadyPlan(r *sgml.CyberRange, seed int64) stepPlan {
	return stepPlan{
		inputs: loadProfile(r, seed),
		verify: func(b *bench, dead []int, misses uint64) {
			bad := 0
			for _, d := range dead {
				if d != 0 {
					bad++
				}
			}
			b.check(bad == 0, "%d of %d steps had dead buses, want none", bad, len(dead))
			b.check(misses == 0, "%d solver topology-cache misses, want none", misses)
		},
	}
}

// churnBreaker is the feeder breaker breaker-churn-xl toggles before every
// step.
const churnBreaker = "S5_CB1"

func churnPlan(r *sgml.CyberRange, seed int64) stepPlan {
	profile := loadProfile(r, seed)
	return stepPlan{
		inputs: func(i int) []powersim.Event {
			// Even steps open the breaker, odd steps close it again.
			return append(profile(i), powersim.Event{Kind: powersim.SetSwitch, Element: churnBreaker, Value: float64(i % 2)})
		},
		verify: func(b *bench, dead []int, misses uint64) {
			b.check(misses == uint64(len(dead)), "%d solver topology-cache misses over %d steps, want one per step", misses, len(dead))
			alternates := len(dead) < 2 || dead[0] != dead[1]
			for i := range dead {
				alternates = alternates && dead[i] == dead[i%2]
			}
			b.check(alternates, "dead-bus counts do not alternate between two values (first steps: %v)", dead[:min(len(dead), 6)])
		},
	}
}

// warmupSteps run before the measured steps of a step workload. Even, so the
// measured steps of breaker-churn-xl start on an opening step.
const warmupSteps = 20

// measureSteps compiles the model, forks it and drives the fork with StepAll
// until the budget is spent, applying the plan's inputs before each step.
func measureSteps(b *bench, ms *sgml.ModelSet, planFor func(*sgml.CyberRange, int64) stepPlan) (opStats, error) {
	root, err := sgml.Compile(ms)
	if err != nil {
		return opStats{}, err
	}
	defer root.Stop()
	r, err := root.Fork()
	if err != nil {
		return opStats{}, err
	}
	defer r.Stop()
	plan := planFor(r, b.seed)
	if err := r.Start(context.Background(), false); err != nil {
		return opStats{}, err
	}
	now := baseTime
	step := func(i int) (time.Duration, error) {
		for _, ev := range plan.inputs(i) {
			if err := r.Sim.Apply(ev); err != nil {
				return 0, err
			}
		}
		now = now.Add(r.Interval())
		start := time.Now()
		err := r.StepAll(now)
		return time.Since(start), err
	}
	for i := 0; i < warmupSteps; i++ {
		if _, err := step(i); err != nil {
			return opStats{}, fmt.Errorf("warm-up step %d: %w", i, err)
		}
	}

	var st opStats
	var dead []int
	_, miss0 := r.Sim.SolverCacheStats()
	alloc0 := totalAlloc()
	start := time.Now()
	for i := warmupSteps; len(st.lat) == 0 || time.Since(start) < b.budget; i++ {
		d, err := step(i)
		st.lat = append(st.lat, d)
		if err == nil && !r.Sim.LastResult().Converged {
			err = fmt.Errorf("step %d: power flow did not converge", i)
		}
		b.op(err)
		if err == nil {
			dead = append(dead, r.Sim.LastResult().DeadBuses)
		}
	}
	st.wall = time.Since(start)
	st.alloc = totalAlloc() - alloc0
	_, miss1 := r.Sim.SolverCacheStats()
	plan.verify(b, dead, miss1-miss0)
	return st, nil
}

// campaignSeeds derives n distinct positive run seeds from the seed.
func campaignSeeds(seed int64, n int) []int64 {
	out := make([]int64, 0, n)
	seen := map[int64]bool{}
	for i := 0; len(out) < n; i++ {
		s := int64(mix(seed, i)>>33) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// redBlue is the examples/redblue engagement: IDS, port scan, false command
// injection on the scan alert, then a three-step MITM on the write alert.
func redBlue() *sgml.Scenario {
	return &sgml.Scenario{
		Name: "redblue",
		Seed: 7,
		Attackers: []sgml.AttackerSpec{
			{Name: "redbox", Switch: "sw-TransLAN", IP: netem.MustIPv4("10.0.1.13")},
		},
		Events: []sgml.Event{
			{Name: "blue-sensor", Trigger: sgml.At(0), Action: sgml.DeployIDS{
				Name: "blue", AuthorizedWriters: []string{"SCADA", "CPLC"}, PortScanThreshold: 5,
			}},
			{Name: "recon", Trigger: sgml.At(3), Action: sgml.PortScan{Attacker: "redbox", Target: "TIED1"}},
			{Name: "fci", Trigger: sgml.OnAlert(sgml.AlertPortScan).Plus(1), Action: sgml.FalseCommand{
				Attacker: "redbox", Target: "TIED1", Ref: "LD0/XCBR1.Pos.Oper", Value: mms.NewBool(false),
			}},
			{Name: "mitm", Trigger: sgml.OnAlert(sgml.AlertUnauthorizedWrite).Plus(1), Action: sgml.StartMITM{
				Attacker: "redbox", VictimA: "CPLC", VictimB: "TIED1", ScaleFloats: 1.0, ForSteps: 3,
			}},
		},
		Steps: 16,
	}
}

// attackCampaign sweeps the red-blue engagement over n seeds; the first two
// seeds run twice, so every batch also probes run determinism.
func attackCampaign(ms *sgml.ModelSet, seed int64, n int) *sgml.Campaign {
	seeds := campaignSeeds(seed, n)
	k := min(2, n)
	c := &sgml.Campaign{
		Name:     "rangebench-redblue",
		Model:    ms,
		Variants: []sgml.CampaignVariant{{Name: "repeat", Scenario: redBlue(), Seeds: seeds[:k], Repeat: 2}},
	}
	if n > k {
		c.Variants = append(c.Variants, sgml.CampaignVariant{Name: "sweep", Scenario: redBlue(), Seeds: seeds[k:]})
	}
	return c
}

// drillEvents are the trip/shed/heal fault drill of
// BenchmarkScale_CampaignThroughput: each power step and the step it fires
// at. The campaign runs them as a scenario, the traced cells through
// Sim.Apply.
var drillEvents = []struct {
	name   string
	at     int
	action sgml.PowerStep
}{
	{"trip", 1, sgml.OpenBreaker("S3_CB1")},
	{"shed", 2, sgml.ScaleLoad("S1_LD1", 0.5)},
	{"heal", 4, sgml.CloseBreaker("S3_CB1")},
}

func drill() *sgml.Scenario {
	sc := &sgml.Scenario{Name: "campaign-drill", Steps: 6}
	for _, e := range drillEvents {
		sc.Events = append(sc.Events, sgml.Event{Name: e.name, Trigger: sgml.At(e.at), Action: e.action})
	}
	return sc
}

func sweepCampaign(ms *sgml.ModelSet, seed int64, n int) *sgml.Campaign {
	return &sgml.Campaign{
		Name:     "rangebench-fault-sweep",
		Model:    ms,
		Variants: []sgml.CampaignVariant{{Name: "sweep", Scenario: drill(), Seeds: campaignSeeds(seed, n)}},
	}
}

// measureCampaign runs the campaign in batches, each into a fresh result
// store, until the next batch would overrun the budget. A run's latency is
// its CompileTime + Duration; the store audit runs outside the timer.
func measureCampaign(b *bench, c *sgml.Campaign, name string) (opStats, error) {
	want := ""
	if b.seed == defaultSeed {
		want = pinnedRoots[name+"/"+b.sizeKey]
	}
	var st opStats
	var last time.Duration
	start := time.Now()
	for batch := 0; batch == 0 || time.Since(start)+last <= b.budget; batch++ {
		dir, err := os.MkdirTemp("", "rangebench-store-")
		if err != nil {
			return st, err
		}
		alloc0 := totalAlloc()
		t0 := time.Now()
		rep, err := sgml.RunCampaign(context.Background(), c, sgml.WithWorkers(b.workers), sgml.WithStore(dir))
		last = time.Since(t0)
		st.alloc += totalAlloc() - alloc0
		st.wall += last
		if err != nil {
			os.RemoveAll(dir)
			return st, err
		}
		for i := range rep.Runs {
			run := &rep.Runs[i]
			st.lat = append(st.lat, run.CompileTime+run.Duration)
			var err error
			if run.Failed() {
				err = fmt.Errorf("run %s/seed=%d#%d failed: %s %v", run.Variant, run.Seed, run.Attempt, run.Err, run.EventErrors)
			}
			b.op(err)
		}
		b.check(rep.OK(), "batch %d: campaign not clean: %d failures, %d determinism mismatches", batch, rep.Failures, len(rep.Determinism))
		_, verr := sgml.VerifyStore(dir)
		b.check(verr == nil, "batch %d: store verification: %v", batch, verr)
		if want == "" {
			want = rep.MerkleRoot
		}
		b.check(rep.MerkleRoot != "" && rep.MerkleRoot == want, "batch %d: Merkle root %q, want %q", batch, rep.MerkleRoot, want)
		if err := os.RemoveAll(dir); err != nil {
			return st, err
		}
	}
	return st, nil
}

// searchInput is the search-epic input: the seed scenario of
// examples/search, searched at the corpus's coordinates (search seed 3,
// budget 16 at full size). What a search costs depends on which oracles
// fire: across search seeds one search took from 60 ms to 6.5 s, which
// would swamp any change in the code. So the benchmark seed goes into the
// scenario's replay seed instead, which leaves the cost unchanged; the
// offset makes the default seed replay at the corpus's seed 11.
func searchInput(b *bench) (*sgml.Scenario, sgml.SearchOptions, error) {
	sc, err := sgml.LoadScenarioFile("examples/search/seed.scenario.xml")
	if err != nil {
		return nil, sgml.SearchOptions{}, err
	}
	sc.Seed = b.seed + 8
	return sc, sgml.SearchOptions{SearchSeed: 3, Budget: b.size.budget, Workers: b.workers}, nil
}

// measureSearch repeats one search until the next would overrun the budget.
// At the default seed every search must reproduce the pinned corpus
// fingerprints; at any seed the searches must agree with each other.
func measureSearch(b *bench, ms *sgml.ModelSet) (opStats, error) {
	seed, opts, err := searchInput(b)
	if err != nil {
		return opStats{}, err
	}
	var want map[string]string
	if b.seed == defaultSeed && b.sizeKey == "full" {
		entries, err := sgml.ReadSearchCorpus("testdata/corpus")
		if err != nil {
			return opStats{}, err
		}
		want = map[string]string{}
		for _, e := range entries {
			want[e.Oracle] = e.Fingerprint
		}
	}
	var st opStats
	var last time.Duration
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start)+last <= b.budget; rep++ {
		alloc0 := totalAlloc()
		t0 := time.Now()
		res, err := sgml.Search(context.Background(), ms, seed, opts)
		last = time.Since(t0)
		st.alloc += totalAlloc() - alloc0
		st.wall += last
		st.lat = append(st.lat, last)
		b.op(err)
		if err != nil {
			continue
		}
		b.check(res.Candidates == b.size.budget, "search %d: %d candidates, want %d", rep, res.Candidates, b.size.budget)
		got := map[string]string{}
		for _, f := range res.Finds {
			got[f.Oracle] = f.Fingerprint
		}
		if want == nil {
			want = got
		}
		b.check(sameFinds(got, want), "search %d: finds %v differ from %v", rep, keys(got), keys(want))
	}
	return st, nil
}

func sameFinds(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
