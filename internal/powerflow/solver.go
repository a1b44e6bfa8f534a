package powerflow

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sync"

	"repro/internal/powergrid"
)

// Frequency of the simulated system in Hz (IEC grids are 50 Hz).
const Frequency = 50.0

// ErrNotConverged is returned when NR fails to reach tolerance.
var ErrNotConverged = errors.New("powerflow: did not converge")

// Options tunes the solver.
type Options struct {
	MaxIterations  int     // default 30
	ToleranceMVA   float64 // mismatch tolerance in MVA; default 1e-6 * BaseMVA
	EnforceQLimits bool    // switch PV buses to PQ at their Q limits
	// WarmStart, when non-nil, seeds bus voltages from a previous result
	// (matched by bus name). Buses absent from the warm start use flat start.
	WarmStart *Result

	// denseReference runs Newton-Raphson on the dense partial-pivot
	// elimination instead of the sparse LU. Only the differential tests set
	// it (export_test.go), to check the sparse engine against the reference.
	denseReference bool
}

// BusResult holds per-bus solution values.
type BusResult struct {
	VmPU      float64
	VaDeg     float64
	PMW       float64 // net injection
	QMVAr     float64
	Energized bool
}

// BranchResult holds per-branch flows (lines and transformers).
type BranchResult struct {
	FromBus        string
	ToBus          string
	PFromMW        float64
	QFromMVAr      float64
	PToMW          float64
	QToMVAr        float64
	IFromKA        float64
	IToKA          float64
	LoadingPercent float64
	PLossMW        float64
	InService      bool
}

// Result is a complete power-flow solution.
type Result struct {
	Converged  bool
	Iterations int
	Buses      map[string]BusResult
	Lines      map[string]BranchResult
	Trafos     map[string]BranchResult
	// ExtGrids reports the slack injections per external grid name.
	ExtGrids map[string]struct{ PMW, QMVAr float64 }
	// GenQMVAr reports solved reactive power for voltage-controlled gens.
	GenQMVAr map[string]float64
	// Islands is the number of energised electrical islands.
	Islands int
	// DeadBuses counts de-energised buses.
	DeadBuses int
}

// TotalLoadMW sums bus withdrawals (for sanity checks in tests).
func (r *Result) TotalLoadMW(n *powergrid.Network) float64 {
	var sum float64
	for i := range n.Loads {
		l := &n.Loads[i]
		if l.InService {
			if b, ok := r.Buses[l.Bus]; ok && b.Energized {
				sum += l.PMW * l.EffectiveScaling()
			}
		}
	}
	return sum
}

// bus solve types
type busKind int

const (
	busPQ busKind = iota + 1
	busPV
	busSlack
	busDead
)

// node is a fused electrical node (one or more buses joined by closed
// bus-bus switches).
type node struct {
	kind    busKind
	vm, va  float64 // current estimate, pu / radians
	vaBase  float64 // slack reference angle, radians
	pSpec   float64 // specified net injection, pu
	qSpec   float64
	vSet    float64 // voltage setpoint for PV/slack
	buses   []int   // powergrid bus indices mapped to this node
	qMin    float64 // aggregate gen Q limits, pu
	qMax    float64
	hasQLim bool
	qClamp  float64 // limit a Q-clamped PV node's qSpec includes, pu
	island  int
}

type branch struct {
	kind     string // "line" or "trafo"
	name     string
	fromNode int
	toNode   int
	fromBus  string // original bus names for reporting
	toBus    string
	y        complex128 // series admittance, pu
	yshFrom  complex128 // shunt admittance at from side, pu
	yshTo    complex128
	tap      complex128 // off-nominal ratio at from side
	maxIKA   float64
	vnFromKV float64
	vnToKV   float64
	inSvc    bool
}

// Solver is a reusable power-flow engine with a per-topology cache. The
// zero value is ready to use; Solve is safe for serial reuse across steps
// (an internal mutex also makes concurrent calls safe, serialised).
type Solver struct {
	mu           sync.Mutex
	cache        *topoCache
	hits, misses uint64
}

// NewSolver returns an empty-cache solver for a stepped solve loop.
func NewSolver() *Solver { return &Solver{} }

// Fork returns an independent solver that shares sv's read-only topology
// artifacts: the fused-node template, branch list, CSR Ybus, element->node
// index tables and the symbolic LU factorizations (pattern + ordering) of
// every cached bus-kind partition. Numeric state is never shared — each fork
// gets fresh LU value storage and Jacobian buffers — so concurrent Solve
// calls on different forks are race-free and byte-identical to a cold solver
// solving the same network. Forking an empty solver yields an empty solver;
// cache statistics start at zero.
//
// The intended use is the compiled-range fork path: warm one template solver
// once per model, then fork it per run so every run's first solve is a cache
// hit instead of a full topology + symbolic rebuild.
func (sv *Solver) Fork() *Solver {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	nf := &Solver{}
	if sv.cache != nil {
		nf.cache = sv.cache.fork()
	}
	return nf
}

// fork duplicates the cache for an independent solver: structural fields are
// shared (read-only for the cache's lifetime), sparse states share their
// symbolic half (kinds, assembly plan, ordered pattern) but get private
// numeric storage.
func (c *topoCache) fork() *topoCache {
	nc := *c
	nc.sparse = make([]*sparseState, len(c.sparse))
	for i, st := range c.sparse {
		nc.sparse[i] = &sparseState{
			kinds:   st.kinds,
			plan:    st.plan,
			sym:     st.sym,
			num:     newLUNumeric(st.sym),
			jacVals: make([]float64, len(st.jacVals)),
		}
	}
	return &nc
}

// CacheStats reports warm-path reuse: hits are Solves that reused the cached
// topology (islands, Ybus, symbolic factorization), misses are full rebuilds
// (first solve or a topology/in-service change).
func (sv *Solver) CacheStats() (hits, misses uint64) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.hits, sv.misses
}

// Solve runs an AC power flow, reusing the topology cache when the network's
// structure is unchanged since the previous call.
func (sv *Solver) Solve(n *powergrid.Network, opts Options) (*Result, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()

	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 30
	}
	tol := opts.ToleranceMVA
	if tol <= 0 {
		tol = 1e-6 * n.BaseMVA
	}
	// Per-solve inputs that Validate guards but the topology signature
	// deliberately excludes must be re-checked on every call, or a setpoint
	// mutated to an invalid value would ride a cache hit past validation.
	if err := n.ValidateSetpoints(); err != nil {
		return nil, err
	}
	tolPU := tol / n.BaseMVA

	sig := topoSignature(n)
	if sv.cache == nil || sv.cache.sig != sig {
		if err := n.Validate(); err != nil {
			return nil, err
		}
		c, err := buildTopology(n)
		if err != nil {
			return nil, err
		}
		c.sig = sig
		sv.cache = c
		sv.misses++
	} else {
		sv.hits++
	}

	p := sv.cache.instantiate(n, opts)
	res, err := p.iterate(opts.MaxIterations, tolPU)
	if err != nil {
		return res, err
	}
	if opts.EnforceQLimits {
		// Re-solve with PV→PQ switching until no more violations (bounded).
		for pass := 0; pass < 5; pass++ {
			if !p.clampQViolations() {
				break
			}
			res, err = p.iterate(opts.MaxIterations, tolPU)
			if err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// Solve runs a one-shot AC power flow on the network (no cache reuse; the
// stepped loop should hold a Solver instead).
func Solve(n *powergrid.Network, opts Options) (*Result, error) {
	return (&Solver{}).Solve(n, opts)
}

// sparseState is the sparse linear-system state for one bus-kind partition:
// the Jacobian assembly plan plus the ordered symbolic LU and its value
// storage.
type sparseState struct {
	kinds   []busKind
	plan    *jacPlan
	sym     *luSymbolic
	num     *luNumeric
	jacVals []float64
}

// maxSparseStates bounds the per-topology symbolic cache. Two partitions
// (the template kinds and one Q-limit-clamped variant) cover the steady
// 100 ms loop; a little headroom absorbs multi-generator clamping without
// letting pathological kind churn hoard memory.
const maxSparseStates = 4

// topoCache is everything derivable from the network's structure alone:
// valid until a topology or in-service change flips the signature.
type topoCache struct {
	sig      uint64
	busNode  []int  // bus index -> node index
	nodeTmpl []node // kinds, islands, fused-bus lists; injections zeroed
	branches []branch
	y        *csrComplex
	// Element -> fused-node indices, precomputed so the per-solve injection
	// pass is O(elements) instead of re-resolving bus names every step.
	// Element identity and bus attachment are in the signature, so these
	// stay valid for the cache's lifetime.
	loadNode  []int
	shuntNode []int
	sgenNode  []int
	genNode   []int
	extNode   []int

	// Sparse linear-system states, MRU-first, one per bus-kind partition
	// seen under this topology (Q-limit clamping flips PV buses to PQ
	// mid-solve, changing the Jacobian structure); populated lazily by the
	// sparse iterate.
	sparse []*sparseState
}

type problem struct {
	net      *powergrid.Network
	nodes    []node
	busNode  []int
	branches []branch
	y        *csrComplex
	nn       int
	opts     Options
	cache    *topoCache
}

// topoSignature hashes the structural and admittance-affecting state of the
// network (FNV-1a). Load/sgen/shunt values and in-service flags are excluded
// on purpose: they feed only the per-solve injections.
func topoSignature(n *powergrid.Network) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	w64 := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			mix(byte(v >> s))
		}
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	ws := func(s string) {
		for i := 0; i < len(s); i++ {
			mix(s[i])
		}
		mix(0xfe)
	}
	wb := func(b bool) {
		if b {
			mix(1)
		} else {
			mix(0)
		}
	}
	wf(n.BaseMVA)
	w64(uint64(len(n.Buses)))
	w64(uint64(len(n.Lines)))
	w64(uint64(len(n.Trafos)))
	w64(uint64(len(n.Loads)))
	w64(uint64(len(n.SGens)))
	w64(uint64(len(n.Shunts)))
	w64(uint64(len(n.Gens)))
	w64(uint64(len(n.Externals)))
	w64(uint64(len(n.Switches)))
	for i := range n.Buses {
		ws(n.Buses[i].Name)
		wf(n.Buses[i].VnKV)
	}
	for i := range n.Lines {
		l := &n.Lines[i]
		ws(l.Name)
		ws(l.FromBus)
		ws(l.ToBus)
		wf(l.LengthKM)
		wf(l.ROhmPerKM)
		wf(l.XOhmPerKM)
		wf(l.CNFPerKM)
		wf(l.MaxIKA)
		wb(l.InService)
	}
	for i := range n.Trafos {
		t := &n.Trafos[i]
		ws(t.Name)
		ws(t.HVBus)
		ws(t.LVBus)
		wf(t.SnMVA)
		wf(t.VnHVKV)
		wf(t.VnLVKV)
		wf(t.VKPercent)
		wf(t.VKRPercent)
		w64(uint64(int64(t.TapPos)))
		wf(t.TapStepPC)
		wb(t.InService)
	}
	for i := range n.Switches {
		s := &n.Switches[i]
		ws(s.Name)
		ws(s.Bus)
		ws(s.Element)
		w64(uint64(s.Kind))
		wb(s.Closed)
	}
	for i := range n.Gens {
		ws(n.Gens[i].Name)
		ws(n.Gens[i].Bus)
		wb(n.Gens[i].InService)
	}
	for i := range n.Externals {
		ws(n.Externals[i].Name)
		ws(n.Externals[i].Bus)
	}
	// Injection elements: identity and bus attachment only (a re-homed or
	// renamed element must rebuild so Validate sees it), never their values
	// or in-service flags — those are per-solve inputs and must not evict
	// the warm path.
	for i := range n.Loads {
		ws(n.Loads[i].Name)
		ws(n.Loads[i].Bus)
	}
	for i := range n.SGens {
		ws(n.SGens[i].Name)
		ws(n.SGens[i].Bus)
	}
	for i := range n.Shunts {
		ws(n.Shunts[i].Name)
		ws(n.Shunts[i].Bus)
	}
	return h
}

// buildTopology is the cache-miss path: fused nodes, bus kinds, branches,
// island assignment and the CSR Ybus.
func buildTopology(n *powergrid.Network) (*topoCache, error) {
	nb := len(n.Buses)

	// Union-find over buses to fuse closed bus-bus couplers.
	parent := make([]int, nb)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for _, sw := range n.Switches {
		if sw.Kind == powergrid.SwitchBusBus && sw.Closed {
			union(n.BusIndex(sw.Bus), n.BusIndex(sw.Element))
		}
	}

	c := &topoCache{busNode: make([]int, nb)}
	repToNode := make(map[int]int)
	for i := 0; i < nb; i++ {
		r := find(i)
		ni, ok := repToNode[r]
		if !ok {
			ni = len(c.nodeTmpl)
			repToNode[r] = ni
			c.nodeTmpl = append(c.nodeTmpl, node{kind: busPQ})
		}
		c.busNode[i] = ni
		c.nodeTmpl[ni].buses = append(c.nodeTmpl[ni].buses, i)
	}

	// Bus kinds (voltage setpoints and injections come per-solve).
	for _, g := range n.Gens {
		if !g.InService {
			continue
		}
		c.nodeTmpl[c.busNode[n.BusIndex(g.Bus)]].kind = busPV
	}
	for _, e := range n.Externals {
		c.nodeTmpl[c.busNode[n.BusIndex(e.Bus)]].kind = busSlack
	}

	// Branches.
	base := n.BaseMVA
	for _, l := range n.Lines {
		inSvc := n.LineConnected(l.Name)
		fi, ti := c.busNode[n.BusIndex(l.FromBus)], c.busNode[n.BusIndex(l.ToBus)]
		vn := n.Buses[n.BusIndex(l.FromBus)].VnKV
		zBase := vn * vn / base
		z := complex(l.ROhmPerKM*l.LengthKM/zBase, l.XOhmPerKM*l.LengthKM/zBase)
		var y complex128
		if z != 0 {
			y = 1 / z
		}
		// Shunt susceptance from capacitance: b = ωC (total), split per end.
		bTot := 2 * math.Pi * Frequency * l.CNFPerKM * 1e-9 * l.LengthKM * zBase
		ysh := complex(0, bTot/2)
		c.branches = append(c.branches, branch{
			kind: "line", name: l.Name, fromNode: fi, toNode: ti,
			fromBus: l.FromBus, toBus: l.ToBus,
			y: y, yshFrom: ysh, yshTo: ysh, tap: 1,
			maxIKA: l.MaxIKA, vnFromKV: vn, vnToKV: n.Buses[n.BusIndex(l.ToBus)].VnKV,
			inSvc: inSvc,
		})
	}
	for _, tr := range n.Trafos {
		inSvc := n.TrafoConnected(tr.Name)
		hvIdx, lvIdx := n.BusIndex(tr.HVBus), n.BusIndex(tr.LVBus)
		fi, ti := c.busNode[hvIdx], c.busNode[lvIdx]
		// Impedance referred to transformer rating, converted to system base.
		zk := tr.VKPercent / 100 * base / tr.SnMVA
		rk := tr.VKRPercent / 100 * base / tr.SnMVA
		xk := math.Sqrt(math.Max(zk*zk-rk*rk, 1e-12))
		y := 1 / complex(rk, xk)
		// Off-nominal tap: rated voltages vs connected bus nominals, plus taps.
		tapFactor := 1 + float64(tr.TapPos)*tr.TapStepPC/100
		aHV := tr.VnHVKV * tapFactor / n.Buses[hvIdx].VnKV
		aLV := tr.VnLVKV / n.Buses[lvIdx].VnKV
		ratio := complex(aHV/aLV, 0)
		c.branches = append(c.branches, branch{
			kind: "trafo", name: tr.Name, fromNode: fi, toNode: ti,
			fromBus: tr.HVBus, toBus: tr.LVBus,
			y: y, tap: ratio,
			maxIKA:   tr.SnMVA / (math.Sqrt(3) * n.Buses[hvIdx].VnKV),
			vnFromKV: n.Buses[hvIdx].VnKV, vnToKV: n.Buses[lvIdx].VnKV,
			inSvc: inSvc,
		})
	}

	// Element -> node index tables for the per-solve injection pass.
	nodeIdx := func(bus string) int { return c.busNode[n.BusIndex(bus)] }
	c.loadNode = make([]int, len(n.Loads))
	for i := range n.Loads {
		c.loadNode[i] = nodeIdx(n.Loads[i].Bus)
	}
	c.shuntNode = make([]int, len(n.Shunts))
	for i := range n.Shunts {
		c.shuntNode[i] = nodeIdx(n.Shunts[i].Bus)
	}
	c.sgenNode = make([]int, len(n.SGens))
	for i := range n.SGens {
		c.sgenNode[i] = nodeIdx(n.SGens[i].Bus)
	}
	c.genNode = make([]int, len(n.Gens))
	for i := range n.Gens {
		c.genNode[i] = nodeIdx(n.Gens[i].Bus)
	}
	c.extNode = make([]int, len(n.Externals))
	for i := range n.Externals {
		c.extNode[i] = nodeIdx(n.Externals[i].Bus)
	}

	if err := assignIslands(c.nodeTmpl, c.branches); err != nil {
		return nil, err
	}
	c.y = buildYbus(len(c.nodeTmpl), c.branches)
	return c, nil
}

// assignIslands labels connected components, elects per-island slacks, and
// marks sourceless islands dead.
func assignIslands(nodes []node, branches []branch) error {
	nn := len(nodes)
	adj := make([][]int, nn)
	for _, br := range branches {
		if !br.inSvc {
			continue
		}
		adj[br.fromNode] = append(adj[br.fromNode], br.toNode)
		adj[br.toNode] = append(adj[br.toNode], br.fromNode)
	}
	island := make([]int, nn)
	for i := range island {
		island[i] = -1
	}
	next := 0
	for s := 0; s < nn; s++ {
		if island[s] != -1 {
			continue
		}
		queue := []int{s}
		island[s] = next
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if island[v] == -1 {
					island[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	hasSlack := make([]bool, next)
	genNode := make([]int, next)
	for i := range genNode {
		genNode[i] = -1
	}
	for ni := range nodes {
		nodes[ni].island = island[ni]
		switch nodes[ni].kind {
		case busSlack:
			hasSlack[island[ni]] = true
		case busPV:
			if genNode[island[ni]] == -1 {
				genNode[island[ni]] = ni
			}
		}
	}
	for isl := 0; isl < next; isl++ {
		if hasSlack[isl] {
			continue
		}
		if g := genNode[isl]; g != -1 {
			// Promote the island's first generator to slack (micro-grid mode).
			nodes[g].kind = busSlack
			continue
		}
		// Sourceless island: de-energise.
		for ni := range nodes {
			if nodes[ni].island == isl {
				nodes[ni].kind = busDead
			}
		}
	}
	return nil
}

// buildYbus assembles the CSR admittance matrix from in-service branches.
// Duplicate contributions are summed in branch order, matching the dense
// accumulation the reference implementation used.
func buildYbus(nn int, branches []branch) *csrComplex {
	triplets := make([]coo, 0, 4*len(branches))
	add := func(r, col int, v complex128) {
		triplets = append(triplets, coo{row: r, col: col, val: v})
	}
	for _, br := range branches {
		if !br.inSvc {
			continue
		}
		f, t := br.fromNode, br.toNode
		a := br.tap
		a2 := a * a
		add(f, f, (br.y+br.yshFrom)/a2)
		add(t, t, br.y+br.yshTo)
		add(f, t, -br.y/a)
		add(t, f, -br.y/a)
	}
	return newCSRComplex(nn, triplets)
}

// instantiate builds the per-solve problem from the cached structure: fresh
// node state, current injections and setpoints, warm-started voltages.
func (c *topoCache) instantiate(n *powergrid.Network, opts Options) *problem {
	p := &problem{
		net:      n,
		nodes:    make([]node, len(c.nodeTmpl)),
		busNode:  c.busNode,
		branches: c.branches,
		y:        c.y,
		nn:       len(c.nodeTmpl),
		opts:     opts,
		cache:    c,
	}
	copy(p.nodes, c.nodeTmpl)
	for i := range p.nodes {
		nd := &p.nodes[i]
		nd.pSpec, nd.qSpec = 0, 0
		nd.vSet = 1
		nd.vaBase = 0
		nd.qMin, nd.qMax = math.Inf(-1), math.Inf(1)
		nd.hasQLim = false
		nd.qClamp = 0
	}

	base := n.BaseMVA
	for i := range n.Loads {
		l := &n.Loads[i]
		if !l.InService {
			continue
		}
		nd := &p.nodes[c.loadNode[i]]
		s := l.EffectiveScaling()
		nd.pSpec -= l.PMW * s / base
		nd.qSpec -= l.QMVAr * s / base
	}
	for i := range n.Shunts {
		s := &n.Shunts[i]
		if !s.InService {
			continue
		}
		// Constant-admittance shunt folded in as constant power at V≈1 for
		// simplicity of the Jacobian (adequate for breaker-level studies).
		nd := &p.nodes[c.shuntNode[i]]
		nd.pSpec -= s.PMW / base
		nd.qSpec -= s.QMVAr / base
	}
	for i := range n.SGens {
		g := &n.SGens[i]
		if !g.InService {
			continue
		}
		nd := &p.nodes[c.sgenNode[i]]
		nd.pSpec += g.PMW / base
		nd.qSpec += g.QMVAr / base
	}
	for i := range n.Gens {
		g := &n.Gens[i]
		if !g.InService {
			continue
		}
		nd := &p.nodes[c.genNode[i]]
		nd.pSpec += g.PMW / base
		nd.vSet = g.VmPU
		if g.MinQMVAr != 0 || g.MaxQMVAr != 0 {
			nd.hasQLim = true
			nd.qMin = g.MinQMVAr / base
			nd.qMax = g.MaxQMVAr / base
		}
	}
	for i := range n.Externals {
		e := &n.Externals[i]
		nd := &p.nodes[c.extNode[i]]
		nd.vSet = e.VmPU
		nd.vaBase = e.VaDeg * math.Pi / 180
	}

	// Initial voltages by kind, then the warm start for PQ nodes.
	for i := range p.nodes {
		nd := &p.nodes[i]
		switch nd.kind {
		case busDead:
			nd.vm, nd.va = 0, 0
		case busSlack:
			nd.vm, nd.va = nd.vSet, nd.vaBase
		case busPV:
			nd.vm, nd.va = nd.vSet, 0
		default:
			nd.vm, nd.va = 1, 0
		}
	}
	if ws := opts.WarmStart; ws != nil {
		for bi, b := range n.Buses {
			if br, ok := ws.Buses[b.Name]; ok && br.Energized && br.VmPU > 0.1 {
				nd := &p.nodes[p.busNode[bi]]
				if nd.kind == busPQ {
					nd.vm = br.VmPU
					nd.va = br.VaDeg * math.Pi / 180
				}
			}
		}
	}
	return p
}

// calcPQ computes net injections at a node under current voltages.
func (p *problem) calcPQ(i int) (float64, float64) {
	vi := p.nodes[i].vm
	ti := p.nodes[i].va
	var pc, qc float64
	cols, vals := p.y.row(i)
	for o, k := range cols {
		yik := vals[o]
		if yik == 0 {
			continue
		}
		g, b := real(yik), imag(yik)
		vk := p.nodes[k].vm
		dt := ti - p.nodes[k].va
		ct, st := math.Cos(dt), math.Sin(dt)
		pc += vi * vk * (g*ct + b*st)
		qc += vi * vk * (g*st - b*ct)
	}
	return pc, qc
}

// kindsOf snapshots the current bus-kind partition (it changes under
// Q-limit clamping, which invalidates the cached Jacobian symbolic state).
func (p *problem) kindsOf() []busKind {
	out := make([]busKind, len(p.nodes))
	for i := range p.nodes {
		out[i] = p.nodes[i].kind
	}
	return out
}

// sparseState returns (building or reusing) the Jacobian assembly plan and
// LU symbolic factorization for the current bus-kind partition. States are
// cached per partition (MRU-first), so alternating between the template
// kinds and a Q-limit-clamped variant does not thrash a single slot.
func (p *problem) sparseState(angIdx, magIdx []int, angPos, magPos map[int]int) *sparseState {
	kinds := p.kindsOf()
	c := p.cache
	for i, st := range c.sparse {
		if slices.Equal(st.kinds, kinds) {
			if i != 0 { // move to front
				copy(c.sparse[1:i+1], c.sparse[:i])
				c.sparse[0] = st
			}
			return st
		}
	}
	plan := buildJacPlan(p.y, angIdx, magIdx, angPos, magPos)
	perm := minDegreeOrder(plan.dim, plan.rowPtr, plan.colIdx)
	sym := luSymbolicFactor(plan.dim, plan.rowPtr, plan.colIdx, perm)
	st := &sparseState{
		kinds:   kinds,
		plan:    plan,
		sym:     sym,
		num:     newLUNumeric(sym),
		jacVals: make([]float64, len(plan.colIdx)),
	}
	c.sparse = append([]*sparseState{st}, c.sparse...)
	if len(c.sparse) > maxSparseStates {
		c.sparse = c.sparse[:maxSparseStates]
	}
	return st
}

// assembleSparseJac fills the CSR Jacobian values for the current voltages.
// Every pattern slot is assigned (not accumulated), so no zeroing is needed.
// Returns the largest absolute value for the relative singularity test.
func (p *problem) assembleSparseJac(plan *jacPlan, vals []float64, pc, qc []float64) float64 {
	maxAbs := 0.0
	set := func(idx int, v float64) {
		if idx < 0 {
			return
		}
		vals[idx] = v
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	for ei := range plan.entries {
		e := &plan.entries[ei]
		i := e.i
		vi := p.nodes[i].vm
		var g, b float64
		if e.yIdx >= 0 {
			yik := p.y.vals[e.yIdx]
			g, b = real(yik), imag(yik)
		}
		if e.k == i {
			set(e.hIdx, -qc[i]-b*vi*vi) // H_ii
			set(e.nIdx, pc[i]/vi+g*vi)  // N_ii
			set(e.jIdx, pc[i]-g*vi*vi)  // J_ii
			set(e.lIdx, qc[i]/vi-b*vi)  // L_ii
			continue
		}
		k := e.k
		vk := p.nodes[k].vm
		dt := p.nodes[i].va - p.nodes[k].va
		ct, st := math.Cos(dt), math.Sin(dt)
		set(e.hIdx, vi*vk*(g*st-b*ct))  // H_ik
		set(e.jIdx, -vi*vk*(g*ct+b*st)) // J_ik
		set(e.nIdx, vi*(g*ct+b*st))     // N_ik
		set(e.lIdx, vi*(g*st-b*ct))     // L_ik
	}
	return maxAbs
}

// assembleDenseJac fills the row-major dense Jacobian for the fallback when a
// statically-pivoted sparse factorization fails (and for the differential
// tests' reference solve).
func (p *problem) assembleDenseJac(jac []float64, dim int, angIdx []int, angPos, magPos map[int]int, pc, qc []float64) {
	for i := range jac {
		jac[i] = 0
	}
	for _, i := range angIdx {
		vi, ti := p.nodes[i].vm, p.nodes[i].va
		cols, vals := p.y.row(i)
		ri := angPos[i]
		var riQ int
		hasQ := p.nodes[i].kind == busPQ
		if hasQ {
			riQ = magPos[i]
		}
		seenDiag := false
		doDiag := func(g, b float64) {
			jac[ri*dim+ri] = -qc[i] - b*vi*vi // H_ii
			if cm, ok := magPos[i]; ok {
				jac[ri*dim+cm] = pc[i]/vi + g*vi // N_ii
			}
			if hasQ {
				jac[riQ*dim+ri] = pc[i] - g*vi*vi        // J_ii
				jac[riQ*dim+magPos[i]] = qc[i]/vi - b*vi // L_ii
			}
		}
		for o, k := range cols {
			yik := vals[o]
			g, b := real(yik), imag(yik)
			vk := p.nodes[k].vm
			if i == k {
				seenDiag = true
				doDiag(g, b)
				continue
			}
			if yik == 0 {
				continue
			}
			dt := ti - p.nodes[k].va
			ct, st := math.Cos(dt), math.Sin(dt)
			if ck, ok := angPos[k]; ok {
				jac[ri*dim+ck] = vi * vk * (g*st - b*ct) // H_ik
				if hasQ {
					jac[riQ*dim+ck] = -vi * vk * (g*ct + b*st) // J_ik
				}
			}
			if cm, ok := magPos[k]; ok {
				jac[ri*dim+cm] = vi * (g*ct + b*st) // N_ik
				if hasQ {
					jac[riQ*dim+cm] = vi * (g*st - b*ct) // L_ik
				}
			}
		}
		if !seenDiag {
			doDiag(0, 0)
		}
	}
}

func (p *problem) iterate(maxIter int, tolPU float64) (*Result, error) {
	// Index the unknowns: angles for PV+PQ, magnitudes for PQ.
	angIdx := make([]int, 0, p.nn)
	magIdx := make([]int, 0, p.nn)
	for i := range p.nodes {
		switch p.nodes[i].kind {
		case busPQ:
			angIdx = append(angIdx, i)
			magIdx = append(magIdx, i)
		case busPV:
			angIdx = append(angIdx, i)
		}
	}
	na, nm := len(angIdx), len(magIdx)
	dim := na + nm
	converged := false
	iters := 0

	if dim > 0 {
		angPos := make(map[int]int, na)
		for j, i := range angIdx {
			angPos[i] = j
		}
		magPos := make(map[int]int, nm)
		for j, i := range magIdx {
			magPos[i] = na + j
		}
		var sps *sparseState
		var jac []float64 // dense buffer, lazily allocated
		if !p.opts.denseReference {
			sps = p.sparseState(angIdx, magIdx, angPos, magPos)
		}
		rhs := make([]float64, dim)
		pc := make([]float64, p.nn)
		qc := make([]float64, p.nn)

		solveDenseStep := func() ([]float64, error) {
			if jac == nil {
				jac = make([]float64, dim*dim)
			}
			p.assembleDenseJac(jac, dim, angIdx, angPos, magPos, pc, qc)
			return solveDense(jac, rhs)
		}

		for iters = 1; iters <= maxIter; iters++ {
			// Mismatches.
			maxMis := 0.0
			for _, i := range angIdx {
				pc[i], qc[i] = p.calcPQ(i)
			}
			for j, i := range angIdx {
				rhs[j] = p.nodes[i].pSpec - pc[i]
				if m := math.Abs(rhs[j]); m > maxMis {
					maxMis = m
				}
			}
			for j, i := range magIdx {
				rhs[na+j] = p.nodes[i].qSpec - qc[i]
				if m := math.Abs(rhs[na+j]); m > maxMis {
					maxMis = m
				}
			}
			if maxMis < tolPU {
				converged = true
				break
			}
			var dx []float64
			var err error
			if sps != nil {
				maxAbs := p.assembleSparseJac(sps.plan, sps.jacVals, pc, qc)
				if ferr := sps.num.factor(sps.sym, sps.plan.rowPtr, sps.plan.colIdx, sps.jacVals, maxAbs); ferr == nil {
					sps.num.solve(sps.sym, rhs)
					dx = rhs
				} else if errors.Is(ferr, ErrSingular) {
					// Static pivoting gave out; the partial-pivot dense
					// reference may still get through.
					dx, err = solveDenseStep()
				} else {
					err = ferr
				}
			} else {
				dx, err = solveDenseStep()
			}
			if err != nil {
				return p.buildResult(false, iters), fmt.Errorf("iteration %d: %w", iters, err)
			}
			for j, i := range angIdx {
				p.nodes[i].va += dx[j]
			}
			for j, i := range magIdx {
				p.nodes[i].vm += dx[na+j]
				if p.nodes[i].vm < 0.01 {
					p.nodes[i].vm = 0.01
				}
			}
		}
	} else {
		converged = true // only slack/dead nodes: trivially solved
	}

	res := p.buildResult(converged, iters)
	if !converged {
		return res, fmt.Errorf("%w after %d iterations", ErrNotConverged, iters)
	}
	return res, nil
}

// clampQViolations converts PV nodes violating their Q limits to PQ nodes at
// the limit. Reports whether anything changed.
func (p *problem) clampQViolations() bool {
	changed := false
	for i := range p.nodes {
		nd := &p.nodes[i]
		if nd.kind != busPV || !nd.hasQLim {
			continue
		}
		_, q := p.calcPQ(i)
		qGen := q - nd.qSpec // reactive the machine must provide beyond spec
		switch {
		case qGen > nd.qMax:
			nd.kind = busPQ
			nd.qClamp = nd.qMax
			nd.qSpec += nd.qMax
			changed = true
		case qGen < nd.qMin:
			nd.kind = busPQ
			nd.qClamp = nd.qMin
			nd.qSpec += nd.qMin
			changed = true
		}
	}
	return changed
}

func (p *problem) buildResult(converged bool, iters int) *Result {
	n := p.net
	base := n.BaseMVA
	res := &Result{
		Converged:  converged,
		Iterations: iters,
		Buses:      make(map[string]BusResult, len(n.Buses)),
		Lines:      make(map[string]BranchResult),
		Trafos:     make(map[string]BranchResult),
		ExtGrids:   make(map[string]struct{ PMW, QMVAr float64 }),
		GenQMVAr:   make(map[string]float64),
	}
	islands := map[int]bool{}
	for bi, b := range n.Buses {
		nd := p.nodes[p.busNode[bi]]
		energized := nd.kind != busDead
		if energized {
			islands[nd.island] = true
		}
		pc, qc := 0.0, 0.0
		if energized && converged {
			pc, qc = p.calcPQ(p.busNode[bi])
		}
		res.Buses[b.Name] = BusResult{
			VmPU:      nd.vm,
			VaDeg:     nd.va * 180 / math.Pi,
			PMW:       pc * base,
			QMVAr:     qc * base,
			Energized: energized,
		}
		if !energized {
			res.DeadBuses++
		}
	}
	res.Islands = len(islands)

	voltAt := func(ni int) complex128 {
		nd := p.nodes[ni]
		return cmplx.Rect(nd.vm, nd.va)
	}
	for _, br := range p.branches {
		out := BranchResult{FromBus: br.fromBus, ToBus: br.toBus, InService: br.inSvc}
		if br.inSvc && converged && p.nodes[br.fromNode].kind != busDead {
			vf, vt := voltAt(br.fromNode), voltAt(br.toNode)
			a := br.tap
			iFrom := vf*(br.y+br.yshFrom)/(a*a) - vt*br.y/a
			iTo := vt*(br.y+br.yshTo) - vf*br.y/a
			sf := vf * cmplx.Conj(iFrom)
			st := vt * cmplx.Conj(iTo)
			out.PFromMW = real(sf) * base
			out.QFromMVAr = imag(sf) * base
			out.PToMW = real(st) * base
			out.QToMVAr = imag(st) * base
			out.PLossMW = out.PFromMW + out.PToMW
			iBaseFrom := base / (math.Sqrt(3) * br.vnFromKV)
			iBaseTo := base / (math.Sqrt(3) * br.vnToKV)
			out.IFromKA = cmplx.Abs(iFrom) * iBaseFrom
			out.IToKA = cmplx.Abs(iTo) * iBaseTo
			if br.maxIKA > 0 {
				out.LoadingPercent = math.Max(out.IFromKA, out.IToKA) / br.maxIKA * 100
			}
		}
		if br.kind == "line" {
			res.Lines[br.name] = out
		} else {
			res.Trafos[br.name] = out
		}
	}
	// Slack / PV injections.
	for i := range n.Externals {
		e := &n.Externals[i]
		ni := p.cache.extNode[i]
		if p.nodes[ni].kind == busDead || !converged {
			continue
		}
		pc, qc := p.calcPQ(ni)
		nd := p.nodes[ni]
		// The slack's own contribution is the node's net injection minus the
		// specified (load/sgen) injections attached to the same node.
		res.ExtGrids[e.Name] = struct{ PMW, QMVAr float64 }{
			PMW:   (pc - nd.pSpec) * base,
			QMVAr: (qc - nd.qSpec) * base,
		}
	}
	for i := range n.Gens {
		g := &n.Gens[i]
		if !g.InService {
			continue
		}
		ni := p.cache.genNode[i]
		if p.nodes[ni].kind == busDead || !converged {
			continue
		}
		_, qc := p.calcPQ(ni)
		nd := p.nodes[ni]
		// The machine supplies what the node injects beyond its loads and
		// sgens; a clamped node's qSpec also holds the machine's limit.
		res.GenQMVAr[g.Name] = (qc - nd.qSpec + nd.qClamp) * base
	}
	return res
}
