package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	sgml "repro"

	"repro/attack"
	"repro/ids"
	"repro/internal/core"
	"repro/internal/powerflow"
	"repro/internal/powersim"
	"repro/internal/sclmerge"
	"repro/mms"
	"repro/netem"
)

// span is one timed call into a layer. Parent indexes the enclosing span in
// the trace (-1 for a root); Op identifies the operation the span belongs to:
// a setup probe, a traced cell or one step. Times are nanoseconds since the
// traced run began.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
	ops    int
	// device holds single IED Step durations, for ied.device_us_p50.
	device []time.Duration
}

// maxDeviceSamples bounds the memory the IED samples take (8 MiB).
const maxDeviceSamples = 1 << 20

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// op allocates the next operation identifier.
func (t *tracer) op() int {
	t.ops++
	return t.ops
}

func (t *tracer) begin(name string, op, parent int) int {
	now := time.Since(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.origin).Nanoseconds() }

// call runs fn inside a span.
func (t *tracer) call(name string, op, parent int, fn func() error) error {
	id := t.begin(name, op, parent)
	err := fn()
	t.end(id)
	return err
}

// child records a span of known duration inside parent, placed at the
// parent's start. The power-flow solve is recorded this way: Sim.Stats
// reports how long it took, not where inside Sim.Step it ran.
func (t *tracer) child(name string, parent int, d time.Duration) {
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Op: p.Op, Parent: parent, Start: p.Start, End: p.Start + d.Nanoseconds()})
}

// self sums, per span name, the spans' self times: each span's duration
// minus its children's.
func (t *tracer) self() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += s.dur()
		if s.Parent >= 0 {
			out[t.spans[s.Parent].Name] -= s.dur()
		}
	}
	return out
}

// durations lists the durations of the spans with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// rig is one forked range driven step by step, with the attacker state the
// traced cells act on.
type rig struct {
	r        *sgml.CyberRange
	now      time.Time
	ieds     []string // sorted: the order StepAll commits IED writes in
	plcs     []string // in Shards order: the order StepAll scans PLCs in
	attacker *netem.Host
	mitm     *attack.MITM
	sensor   *ids.Sensor
}

// attackerIP is where the workloads' attacker sits, as in examples/redblue.
var attackerIP = netem.MustIPv4("10.0.1.13")

func newRig(root *sgml.CyberRange, withAttacker bool, mac netem.MAC) (*rig, error) {
	r, err := root.Fork()
	if err != nil {
		return nil, err
	}
	g := &rig{r: r, now: baseTime}
	for name := range r.IEDs {
		g.ieds = append(g.ieds, name)
	}
	slices.Sort(g.ieds)
	for _, s := range r.Shards() {
		g.plcs = append(g.plcs, s.PLCs...)
	}
	if withAttacker {
		if g.attacker, err = r.Built.AttachHost("redbox", mac, attackerIP, "sw-TransLAN"); err != nil {
			r.Stop()
			return nil, err
		}
	}
	return g, nil
}

func (g *rig) stop() {
	g.stopMITM()
	g.r.Stop()
}

func (g *rig) apply(ev powersim.Event) func() error {
	return func() error { return g.r.Sim.Apply(ev) }
}

// deployIDS attaches the blue team's sensor, as DeployIDS does.
func (g *rig) deployIDS() error {
	writers := []netem.IPv4{g.r.Built.AddrOf["SCADA"], g.r.Built.AddrOf["CPLC"]}
	g.sensor = ids.New(ids.Options{AuthorizedWriters: writers, PortScanThreshold: 5})
	g.sensor.Attach(g.r.Net)
	return nil
}

// scan probes TIED1 with the default port list in a seeded order, as
// PortScan does, and requires the MMS port to answer.
func (g *rig) scan(h uint64) error {
	ports := slices.Clone(core.DefaultScanPorts)
	rand.New(rand.NewSource(int64(h>>1))).Shuffle(len(ports), func(i, j int) { ports[i], ports[j] = ports[j], ports[i] })
	for _, res := range attack.ScanPorts(g.attacker, g.r.Built.AddrOf["TIED1"], ports) {
		if res.Port == 102 && res.Open {
			return nil
		}
	}
	return fmt.Errorf("port scan of TIED1 did not find port 102 open")
}

func (g *rig) inject() error {
	return attack.NewFCI(g.attacker).InjectCommand(g.r.Built.AddrOf["TIED1"], 0, "LD0/XCBR1.Pos.Oper", mms.NewBool(false))
}

func (g *rig) startMITM() error {
	g.mitm = attack.NewMITM(g.attacker, g.r.Built.AddrOf["CPLC"], g.r.Built.AddrOf["TIED1"])
	g.mitm.SetPayloadTamper(attack.ScaleMMSFloats(1))
	return g.mitm.Start(context.Background())
}

func (g *rig) stopMITM() error {
	if g.mitm != nil {
		g.mitm.Stop()
		g.mitm = nil
	}
	return nil
}

// caller runs one call due before a step; the traced range's caller records
// it as a span named after its layer.
type caller func(layer string, fn func() error) error

// cellSpec describes a traced run's cells. A cell is one range lifetime:
// fork, start, steps and stop. Each traced cell has an untraced twin, forked
// from the same root, that gets the same calls and steps with StepAll.
type cellSpec struct {
	steps    int  // steps per cell; 0 runs one cell until the budget is spent
	cells    int  // cells to run; 0 runs cells until the budget is spent
	attacker bool // attach the attacker host before start
	// pre makes the calls due before step i of cell c.
	pre func(g *rig, c, i int, call caller) error
	// verify, when set, checks the traced cell's dead-bus counts and solver
	// cache misses.
	verify func(b *bench, dead []int, misses uint64)
}

func stepCells(plan stepPlan) cellSpec {
	return cellSpec{
		cells: 1,
		pre: func(g *rig, _, i int, call caller) error {
			for _, ev := range plan.inputs(i) {
				if err := call("powersim.apply", g.apply(ev)); err != nil {
					return err
				}
			}
			return nil
		},
		verify: plan.verify,
	}
}

// attackCells mirror the red-blue engagement at the steps its triggers fire
// on: IDS at 0, scan at 3, false command at 5 and the MITM over steps 7-9.
func attackCells(b *bench, _ *sgml.CyberRange) cellSpec {
	return cellSpec{
		steps:    16,
		cells:    b.size.cells,
		attacker: true,
		pre: func(g *rig, c, i int, call caller) error {
			switch i {
			case 0:
				return call("ids.deploy", g.deployIDS)
			case 3:
				return call("attack.scan", func() error { return g.scan(mix(b.seed, c)) })
			case 5:
				return call("attack.fci", g.inject)
			case 7:
				return call("attack.mitm", g.startMITM)
			case 10:
				return call("attack.mitm", g.stopMITM)
			}
			return nil
		},
	}
}

// drillCells run the fault drill of fault-sweep-5x20 through Sim.Apply.
func drillCells(*bench, *sgml.CyberRange) cellSpec {
	return cellSpec{
		steps: drill().Steps,
		pre: func(g *rig, _, i int, call caller) error {
			for _, e := range drillEvents {
				if e.at != i {
					continue
				}
				ev, err := core.EventSpec{Kind: e.action.Kind, Element: e.action.Element, Value: e.action.Value}.SimEvent()
				if err != nil {
					return err
				}
				if err := call("powersim.apply", g.apply(ev)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// searchCells run the search's seed scenario,
// examples/search/seed.scenario.xml: IDS at 0, a load nudge at 2.
func searchCells(*bench, *sgml.CyberRange) cellSpec {
	return cellSpec{
		steps:    12,
		attacker: true,
		pre: func(g *rig, _, i int, call caller) error {
			switch i {
			case 0:
				return call("ids.deploy", g.deployIDS)
			case 2:
				return call("powersim.apply", g.apply(powersim.Event{Kind: powersim.SetLoadScale, Element: "Home1", Value: 0.8}))
			}
			return nil
		},
	}
}

// cellTotals accumulate the traced cells' step counters.
type cellTotals struct {
	steps               int
	twin                []time.Duration // untraced StepAll times
	solve, rebuildSolve time.Duration
	misses              uint64
	iters               int
	frames, drops       uint64
	poolGets, poolHits  uint64
	idsFrames           uint64
}

func runCells(b *bench, t *tracer, root *sgml.CyberRange, spec cellSpec, deadline time.Time) (*cellTotals, error) {
	tot := &cellTotals{}
	for c := 0; within(c, spec.cells, deadline); c++ {
		if err := runCell(b, t, root, spec, c, deadline, tot); err != nil {
			return nil, err
		}
	}
	return tot, nil
}

// within reports whether item i of a loop of n items runs; n = 0 runs items
// until the deadline instead, and at least one.
func within(i, n int, deadline time.Time) bool {
	if n > 0 {
		return i < n
	}
	return i == 0 || time.Now().Before(deadline)
}

// runCell runs traced cell c and its untraced twin in lockstep: each step
// feeds both ranges the same calls, then steps the traced range through its
// layers and the twin through StepAll. Both must end in the same bus state.
// The twin's share of each step is recorded as an "untraced" span, so it can
// be told apart from the traced range's time.
func runCell(b *bench, t *tracer, root *sgml.CyberRange, spec cellSpec, c int, deadline time.Time, tot *cellTotals) error {
	ctx := context.Background()
	h := mix(b.seed, c)
	mac := netem.MAC{0x02, 0x5c, byte(h), byte(h >> 8), byte(h >> 16), byte(h >> 24)}
	twin, err := newRig(root, spec.attacker, mac)
	if err != nil {
		return err
	}
	defer twin.stop()
	if err := twin.r.Start(ctx, false); err != nil {
		return err
	}

	op := t.op()
	cell := t.begin("cell", op, -1)
	defer t.end(cell)
	var g *rig
	if err := t.call("core.fork", op, cell, func() (err error) { g, err = newRig(root, spec.attacker, mac); return err }); err != nil {
		return err
	}
	if err := t.call("core.start", op, cell, func() error { return g.r.Start(ctx, false) }); err != nil {
		g.stop()
		return err
	}

	traced := func(layer string, fn func() error) error { return t.call(layer, op, cell, fn) }
	plain := func(_ string, fn func() error) error { return fn() }
	dp0 := g.r.DataPlaneStats()
	var dead []int
	var misses uint64
	for i := 0; within(i, spec.steps, deadline); i++ {
		if err := spec.pre(g, c, i, traced); err != nil {
			b.op(fmt.Errorf("cell %d step %d: %w", c, i, err))
		}
		_, m0 := g.r.Sim.SolverCacheStats()
		out, err := t.step(g, t.op(), cell)
		_, m1 := g.r.Sim.SolverCacheStats()
		if err == nil && !out.res.Converged {
			err = fmt.Errorf("cell %d step %d: power flow did not converge", c, i)
		}
		b.op(err)
		if err == nil {
			tot.steps++
			tot.solve += out.solve
			if m1 > m0 {
				tot.rebuildSolve += out.solve
			}
			misses += m1 - m0
			tot.iters += out.res.Iterations
			dead = append(dead, out.res.DeadBuses)
		}

		u := t.begin("untraced", op, cell)
		if err := spec.pre(twin, c, i, plain); err != nil {
			b.op(fmt.Errorf("cell %d step %d, untraced: %w", c, i, err))
		}
		twin.now = twin.now.Add(twin.r.Interval())
		start := time.Now()
		err = twin.r.StepAll(twin.now)
		tot.twin = append(tot.twin, time.Since(start))
		t.end(u)
		if err != nil {
			b.op(fmt.Errorf("cell %d step %d, untraced: %w", c, i, err))
		}
	}
	tot.misses += misses
	dp1 := g.r.DataPlaneStats()
	tot.frames += dp1.Transmitted - dp0.Transmitted
	tot.drops += dp1.Dropped - dp0.Dropped
	tot.poolGets += dp1.PoolGets - dp0.PoolGets
	tot.poolHits += dp1.PoolHits - dp0.PoolHits
	if g.sensor != nil {
		tot.idsFrames += g.sensor.Frames()
	}
	if spec.verify != nil {
		spec.verify(b, dead, misses)
	}
	key, a, z := firstDiff(g.r.Bus.Snapshot(), twin.r.Bus.Snapshot())
	b.check(key == "", "cell %d: bus key %q is %q traced but %q untraced", c, key, a, z)
	t.call("core.stop", op, cell, func() error { g.stop(); return nil })
	return nil
}

// firstDiff returns the smallest key on which two bus snapshots differ and
// its two values ("" when they are equal).
func firstDiff(a, b map[string]string) (key, va, vb string) {
	var diff []string
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			diff = append(diff, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diff = append(diff, k)
		}
	}
	if len(diff) == 0 {
		return "", "", ""
	}
	k := slices.Min(diff)
	return k, a[k], b[k]
}

type stepOut struct {
	res   *powerflow.Result
	solve time.Duration
}

// step advances g one interval through the calls StepAll makes, in the order
// it commits them: Sim.Step, every IED's Step in name order, every PLC's
// Scan in shard order, and one HMI poll.
func (t *tracer) step(g *rig, op, parent int) (stepOut, error) {
	id := t.begin("step", op, parent)
	defer t.end(id)
	g.now = g.now.Add(g.r.Interval())
	n0, mean0 := g.r.Sim.Stats()
	sim := t.begin("powersim.step", op, id)
	res, err := g.r.Sim.Step()
	t.end(sim)
	if err != nil {
		return stepOut{}, err
	}
	n1, mean1 := g.r.Sim.Stats()
	out := stepOut{res: res, solve: time.Duration(n1)*mean1 - time.Duration(n0)*mean0}
	t.child("powerflow.solve", sim, out.solve)

	devs := t.begin("ied.step", op, id)
	for _, name := range g.ieds {
		start := time.Now()
		g.r.IEDs[name].Step(g.now)
		if len(t.device) < maxDeviceSamples {
			t.device = append(t.device, time.Since(start))
		}
	}
	t.end(devs)
	var scanErr error
	for _, name := range g.plcs {
		if err := t.call("plc.scan", op, id, func() error { return g.r.PLCs[name].Scan(g.now) }); err != nil && scanErr == nil {
			scanErr = err
		}
	}
	if scanErr != nil {
		return out, scanErr
	}
	if g.r.HMI != nil {
		t.call("scada.poll", op, id, func() error { g.r.HMI.PollOnce(); return nil })
	}
	return out, nil
}

// merge is the compile pipeline's first stage, as Compile runs it.
func merge(ms *sgml.ModelSet) (*sclmerge.Consolidated, error) {
	if len(ms.SCDs) == 1 && ms.SED == nil {
		for name, doc := range ms.SCDs {
			return sclmerge.SingleSubstation(name, doc)
		}
	}
	return sclmerge.MergeSCD(ms.SCDs, ms.SED)
}

// probeSetup times the compile pipeline's stages as standalone calls, then a
// whole sgml.Compile and the compiled range's first Fork. Each call starts
// on a freshly collected heap, so no stage pays for another's garbage.
func (t *tracer) probeSetup(b *bench, ms *sgml.ModelSet) error {
	for rep := 0; rep < b.size.probes; rep++ {
		op := t.op()
		id := t.begin("setup", op, -1)
		var cons *sclmerge.Consolidated
		var built *core.BuiltNetwork
		var r, f *sgml.CyberRange
		stages := []struct {
			name string
			fn   func() error
		}{
			{"sclmerge.merge", func() (err error) { cons, err = merge(ms); return err }},
			{"core.power_model", func() error { _, err := core.GeneratePowerModel(ms.Name, cons, ms.PowerConfig); return err }},
			{"core.network", func() (err error) { built, err = core.GenerateNetwork(cons); return err }},
			{"sgml.compile", func() (err error) { r, err = sgml.Compile(ms); return err }},
			{"core.fork_first", func() (err error) { f, err = r.Fork(); return err }},
		}
		var err error
		for _, s := range stages {
			runtime.GC()
			if err = t.call(s.name, op, id, s.fn); err != nil {
				break
			}
		}
		for _, x := range []*sgml.CyberRange{f, r} {
			if x != nil {
				x.Stop()
			}
		}
		if built != nil {
			built.Net.Stop()
		}
		t.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// probeProvision times fork, Start and Stop cycles on a compiled root.
func (t *tracer) probeProvision(b *bench, root *sgml.CyberRange) error {
	for rep := 0; rep < b.size.probes; rep++ {
		runtime.GC()
		op := t.op()
		id := t.begin("provision", op, -1)
		var f *sgml.CyberRange
		err := t.call("core.fork", op, id, func() (err error) { f, err = root.Fork(); return err })
		if err == nil {
			err = t.call("core.start", op, id, func() error { return f.Start(context.Background(), false) })
			t.call("core.stop", op, id, func() error { f.Stop(); return nil })
		}
		t.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// extraLayers are the per-layer counters measured outside the step cells.
type extraLayers struct {
	storeOverheadPct, storeBytesPerRun         float64
	runsPerCandidate, invalidPct, minimizeRuns float64
}

// storeLayers runs the fault sweep with and without a result store, in
// alternating pairs, and attributes the difference to the store.
func storeLayers(b *bench, ms *sgml.ModelSet, t *tracer) (extraLayers, error) {
	c := sweepCampaign(ms, b.seed, b.size.storeSeeds)
	var plain, stored time.Duration
	var runs int
	var bytes int64
	for pair := 0; pair < 2; pair++ {
		op := t.op()
		for _, withStore := range []bool{false, true} {
			opts := []sgml.CampaignOption{sgml.WithWorkers(b.workers)}
			name, dir := "campaign.sweep", ""
			if withStore {
				var err error
				if dir, err = os.MkdirTemp("", "rangebench-store-"); err != nil {
					return extraLayers{}, err
				}
				opts = append(opts, sgml.WithStore(dir))
				name = "campaign.sweep_store"
			}
			var rep *sgml.CampaignReport
			start := time.Now()
			err := t.call(name, op, -1, func() (err error) { rep, err = sgml.RunCampaign(context.Background(), c, opts...); return err })
			d := time.Since(start)
			if err != nil {
				return extraLayers{}, err
			}
			b.check(rep.OK(), "store comparison: campaign not clean: %d failures", rep.Failures)
			if withStore {
				stored += d
				runs += rep.TotalRuns
				n, err := dirSize(dir)
				if err != nil {
					return extraLayers{}, err
				}
				bytes += n
				if err := os.RemoveAll(dir); err != nil {
					return extraLayers{}, err
				}
			} else {
				plain += d
			}
		}
	}
	return extraLayers{
		storeOverheadPct: 100 * (stored - plain).Seconds() / plain.Seconds(),
		storeBytesPerRun: float64(bytes) / float64(runs),
	}, nil
}

// searchLayers runs one search and reports its counters.
func searchLayers(b *bench, ms *sgml.ModelSet, t *tracer) (extraLayers, error) {
	seed, opts, err := searchInput(b)
	if err != nil {
		return extraLayers{}, err
	}
	var res *sgml.SearchResult
	err = t.call("search.run", t.op(), -1, func() (err error) {
		res, err = sgml.Search(context.Background(), ms, seed, opts)
		return err
	})
	b.op(err)
	if err != nil {
		return extraLayers{}, nil
	}
	minimize := 0
	for _, f := range res.Finds {
		minimize += f.MinimizeRuns
	}
	return extraLayers{
		runsPerCandidate: float64(res.Runs) / float64(res.Candidates),
		invalidPct:       100 * float64(res.Invalid) / float64(res.Candidates),
		minimizeRuns:     float64(minimize),
	}, nil
}

// traceWorkload is the traced run: setup and provisioning probes, the
// workload's extra measurements, then traced cells until the budget is spent.
func traceWorkload(b *bench, w *workload, ms *sgml.ModelSet) ([]span, error) {
	t := newTracer()
	cpu0, wall0 := cpuTime(), time.Now()
	deadline := wall0.Add(b.budget)
	if err := t.probeSetup(b, ms); err != nil {
		return nil, err
	}
	root, err := sgml.Compile(ms, sgml.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	defer root.Stop()
	if err := t.probeProvision(b, root); err != nil {
		return nil, err
	}
	var extra extraLayers
	if w.extra != nil {
		if extra, err = w.extra(b, ms, t); err != nil {
			return nil, err
		}
	}
	tot, err := runCells(b, t, root, w.cells(b, root), deadline)
	if err != nil {
		return nil, err
	}
	cpuUtil := 100 * float64(cpuTime()-cpu0) / (float64(time.Since(wall0)) * float64(runtime.NumCPU()))
	putLayers(b, t, tot, extra, cpuUtil)
	return t.spans, nil
}

// putLayers derives the per-layer metrics from the spans and counters.
func putLayers(b *bench, t *tracer, tot *cellTotals, extra extraLayers, cpuUtil float64) {
	median := func(name string) float64 { return msOf(percentile(t.durations(name), 0.5)) }
	b.put("sclmerge.merge_ms", "ms", median("sclmerge.merge"))
	b.put("core.power_model_ms", "ms", median("core.power_model"))
	b.put("core.network_ms", "ms", median("core.network"))
	merges, models, nets, compiles := t.durations("sclmerge.merge"), t.durations("core.power_model"), t.durations("core.network"), t.durations("sgml.compile")
	rest := make([]time.Duration, len(compiles))
	for i := range compiles {
		rest[i] = compiles[i] - merges[i] - models[i] - nets[i]
	}
	b.put("core.compile_rest_ms", "ms", msOf(percentile(rest, 0.5)))
	b.put("core.fork_first_ms", "ms", median("core.fork_first"))
	b.put("core.fork_ms", "ms", median("core.fork"))
	b.put("core.start_ms", "ms", median("core.start"))
	b.put("core.stop_ms", "ms", median("core.stop"))

	self := t.self()
	n := float64(tot.steps)
	perStep := func(name string) float64 { return msOf(self[name]) / n }
	b.put("powersim.publish_ms", "ms", perStep("powersim.step"))
	b.put("powerflow.solve_ms", "ms", perStep("powerflow.solve"))
	b.put("ied.step_ms", "ms", perStep("ied.step"))
	b.put("ied.device_us_p50", "us", float64(percentile(t.device, 0.5))/float64(time.Microsecond))

	// Shares are of the traced ranges' run time: the cells without their
	// untraced twins.
	var runWall time.Duration
	for _, d := range t.durations("cell") {
		runWall += d
	}
	for _, d := range t.durations("untraced") {
		runWall -= d
	}
	share := func(name string) float64 { return 100 * self[name].Seconds() / runWall.Seconds() }
	b.put("powerflow.solve_pct", "%", share("powerflow.solve"))
	b.put("ied.step_pct", "%", share("ied.step"))
	b.put("plc.scan_pct", "%", share("plc.scan"))
	b.put("scada.poll_pct", "%", share("scada.poll"))
	b.put("attack.scan_pct", "%", share("attack.scan"))
	b.put("attack.fci_pct", "%", share("attack.fci"))
	b.put("attack.mitm_pct", "%", share("attack.mitm"))

	b.put("powerflow.rebuilds_per_step", "1/step", float64(tot.misses)/n)
	b.put("powerflow.rebuild_pct", "%", 100*tot.rebuildSolve.Seconds()/tot.solve.Seconds())
	b.put("powerflow.nr_iters", "count", float64(tot.iters)/n)
	b.put("netem.frames_per_step", "count", float64(tot.frames)/n)
	b.put("netem.drops_per_step", "count", float64(tot.drops)/n)
	b.put("netem.pool_hit_pct", "%", 100*float64(tot.poolHits)/float64(tot.poolGets))
	b.put("ids.frames_per_step", "count", float64(tot.idsFrames)/n)
	b.put("store.overhead_pct", "%", extra.storeOverheadPct)
	b.put("store.bytes_per_run", "B", extra.storeBytesPerRun)
	b.put("search.runs_per_candidate", "ratio", extra.runsPerCandidate)
	b.put("search.invalid_pct", "%", extra.invalidPct)
	b.put("search.minimize_runs", "count", extra.minimizeRuns)
	b.put("process.cpu_util_pct", "%", cpuUtil)

	var stepWall time.Duration
	steps := t.durations("step")
	for _, d := range steps {
		stepWall += d
	}
	b.put("trace.coverage_pct", "%", 100*(1-self["step"].Seconds()/stepWall.Seconds()))
	b.put("trace.overhead_pct", "%", 100*(percentile(steps, 0.5).Seconds()/percentile(tot.twin, 0.5).Seconds()-1))
}

// cpuTime is the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
