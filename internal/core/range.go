package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ied"
	"repro/internal/kvbus"
	"repro/internal/mms"
	"repro/internal/netem"
	"repro/internal/plc"
	"repro/internal/powergrid"
	"repro/internal/powersim"
	"repro/internal/scada"
	"repro/internal/scl"
	"repro/internal/sclmerge"
	"repro/internal/sgmlconf"
)

// PLCSpec bundles a PLC's control logic with its I/O mapping.
type PLCSpec struct {
	Config *sgmlconf.PLCConfig
	// PLCopenXML takes precedence over Logic when both are set.
	PLCopenXML []byte
	Logic      string // raw Structured Text
}

// ModelSet is the full SG-ML input of Fig 2: SCL files, the SED for
// multi-substation models, and the supplementary XML configs.
type ModelSet struct {
	Name        string
	SCDs        map[string]*scl.Document // substation name -> SCD
	SED         *scl.SED
	ICDs        map[string]*scl.Document // IED name -> ICD (optional)
	IEDConfig   *sgmlconf.IEDConfig
	SCADAConfig *sgmlconf.SCADAConfig
	PowerConfig *sgmlconf.PowerConfig
	PLCs        []PLCSpec
	// SCADAHost names the node running the HMI (default "SCADA").
	SCADAHost string
}

// CyberRange is a compiled, operational cyber range (Fig 1's architecture):
// emulated network, virtual devices and the coupled power simulation.
type CyberRange struct {
	Name  string
	Net   *netem.Network
	Built *BuiltNetwork
	Bus   *kvbus.Bus
	Sim   *powersim.Simulator
	Grid  *powergrid.Network
	IEDs  map[string]*ied.IED
	PLCs  map[string]*plc.PLC
	HMI   *scada.HMI

	artifacts *rangeArtifacts
	cons      *sclmerge.Consolidated
	shards    []Shard
	iedOrder  []*ied.IED // sorted by name: StepAll's IED order
	plcOrder  []*plc.PLC // in Shards() order: StepAll's PLC scan order
	interval  time.Duration
	started   bool
	stepIndex int
	preStep   StepHook
	postStep  StepHook

	// The real-time driver: stopRT cancels it, rtDone closes when it has
	// returned, rtStats is its pacing record (guarded by rtMu).
	stopRT  context.CancelFunc
	rtDone  chan struct{}
	rtMu    sync.Mutex
	rtStats RealTimeStats
}

// RealTimeStats is the real-time driver's pacing record against the step
// budget, Interval(). Steps counts StepAll calls; Failures counts the ones
// that returned an error; Overruns counts the ones whose wall time exceeded
// the budget; MaxStep is the longest step's wall time.
type RealTimeStats struct {
	Steps, Overruns, Failures int
	MaxStep                   time.Duration
}

// rangeArtifacts is everything Compile derives from a ModelSet that is
// immutable once built: the merged SCL, the power-model template, validated
// scenario events, per-device configurations, the prewarmed solver template
// and the coupling-cache template. A CyberRange is an instantiation of these
// artifacts; Fork re-instantiates them, which is what makes forked and
// freshly compiled ranges byte-identical — both come off the same assembly
// path, the fork merely skips re-deriving the inputs.
type rangeArtifacts struct {
	name     string
	cons     *sclmerge.Consolidated
	grid     *powergrid.Network // pristine template; cloned per instantiation
	events   []powersim.Event
	interval time.Duration

	iedCfgs   []ied.Config // in cons.Doc.IEDs order
	plcBuilds []plcBuild
	scadaImp  *sgmlconf.ScadaImport // nil when the model has no SCADA config
	scadaHost string

	// simTmpl is a never-started simulator holding the prewarmed solver
	// template; each instantiation forks its solver so the first real solve
	// is a topology-cache hit.
	simTmpl *powersim.Simulator
	// busTmpl is the coupling cache's initial state, forked per instantiation.
	busTmpl *kvbus.Bus
}

// plcBuild is one PLC's precompiled build inputs: config, extracted
// Structured Text and host attachment.
type plcBuild struct {
	cfg      plc.Config
	logic    string
	hostName string
}

// Compile runs the SG-ML Processor pipeline and assembles the range.
// Nothing is started; call Start (real-time) or StepAll (deterministic).
// The expensive derivation work (merge, model generation, config validation,
// solver warm-up) is kept on the range as shared immutable artifacts, so
// Fork can clone the range for another run without repeating it. No option
// currently changes what Compile builds; WithWorkers is accepted and ignored.
func Compile(ms *ModelSet, opts ...CompileOption) (*CyberRange, error) {
	a, built, err := buildArtifacts(ms)
	if err != nil {
		return nil, err
	}
	return a.instantiate(built)
}

// Fork clones a compiled, not-yet-started range into a fully isolated
// sibling: fresh fabric, forked coupling cache, private grid and simulator
// (sharing only the solver's read-only symbolic artifacts), and freshly
// instantiated IEDs, PLCs and SCADA from the precompiled configs. Fork and
// Compile share one assembly path, including the fabric, so a forked range's
// runs are byte-identical to a freshly compiled range's (pinned by
// TestForkDeterminism and the campaign differential tests). Forks may be
// created concurrently and forked again; each owns its own Stop.
func (r *CyberRange) Fork() (*CyberRange, error) {
	if r.started {
		return nil, fmt.Errorf("%w: cannot fork a started range", ErrModel)
	}
	if r.artifacts == nil {
		return nil, fmt.Errorf("%w: range was not produced by Compile", ErrModel)
	}
	built, err := GenerateNetwork(r.artifacts.cons)
	if err != nil {
		return nil, err
	}
	return r.artifacts.instantiate(built)
}

// buildArtifacts runs stages 1-2 of the pipeline (merge, power model), the
// one-time generation of the root fabric, and precomputes every immutable
// input of range assembly: validated power events, per-IED and per-PLC
// configurations, the parsed SCADA import and the prewarmed solver template.
func buildArtifacts(ms *ModelSet) (*rangeArtifacts, *BuiltNetwork, error) {
	if ms.Name == "" {
		ms.Name = "sgml-range"
	}
	if len(ms.SCDs) == 0 {
		return nil, nil, fmt.Errorf("%w: no SCD documents", ErrModel)
	}

	// Stage 1: merge (SSD Merger + SCD Merger of Fig 3).
	var cons *sclmerge.Consolidated
	var err error
	if len(ms.SCDs) == 1 && ms.SED == nil {
		for name, doc := range ms.SCDs {
			cons, err = sclmerge.SingleSubstation(name, doc)
		}
	} else {
		cons, err = sclmerge.MergeSCD(ms.SCDs, ms.SED)
	}
	if err != nil {
		return nil, nil, err
	}

	// Stage 2: power system simulation model (SSD Parser).
	grid, err := GeneratePowerModel(ms.Name, cons, ms.PowerConfig)
	if err != nil {
		return nil, nil, err
	}

	a := &rangeArtifacts{
		name:    ms.Name,
		cons:    cons,
		grid:    grid,
		busTmpl: kvbus.New(),
	}
	a.interval = 100 * time.Millisecond
	if ms.PowerConfig != nil {
		a.interval = ms.PowerConfig.Interval()
	}

	// Stage 3 (once): the root fabric. Later instantiations regenerate it
	// from cons; the host/address tables below are derived from this one.
	built, err := GenerateNetwork(cons)
	if err != nil {
		return nil, nil, err
	}

	// Power scenario events from the supplementary XML: validate every step
	// against the generated grid (an unknown kind or unresolvable element
	// fails Compile naming the step, rather than erroring — or worse, being
	// dropped — mid-run).
	specs, err := PowerEvents(ms.PowerConfig)
	if err != nil {
		return nil, nil, err
	}
	for i, spec := range specs {
		if err := spec.Validate(grid); err != nil {
			return nil, nil, fmt.Errorf("%w: power step %d (kind %q, element %q, at %d ms): %v",
				ErrModel, i, spec.Kind, spec.Element, spec.AtMS, err)
		}
		ev, err := spec.SimEvent()
		if err != nil {
			return nil, nil, err
		}
		a.events = append(a.events, ev)
	}

	// Solver template: one prewarm solve populates the topology cache and
	// symbolic factorization every fork then shares read-only. A failed
	// prewarm (e.g. a model that diverges at t=0) is not a compile error —
	// the first Start reports it exactly as before, just without the warm
	// cache.
	a.simTmpl = powersim.New(grid, a.busTmpl, powersim.Options{Interval: a.interval}, nil)
	_ = a.simTmpl.Prewarm()

	// Per-IED configurations (stage 5 inputs).
	appIDs := gooseAppIDs(cons.Doc)
	for i := range cons.Doc.IEDs {
		sclIED := &cons.Doc.IEDs[i]
		if isInfraNode(sclIED) {
			continue
		}
		if _, ok := built.Hosts[sclIED.Name]; !ok {
			continue // no network attachment: not instantiated
		}
		var entry *sgmlconf.IEDEntry
		if ms.IEDConfig != nil {
			entry = ms.IEDConfig.Find(sclIED.Name)
		}
		icd := ms.ICDs[sclIED.Name]
		if icd == nil {
			// Fall back to the IED's own section within the SCD.
			icd = &scl.Document{IEDs: []scl.IED{*sclIED}}
		}
		cfg := ied.Config{
			Name:       sclIED.Name,
			Substation: ms.Name, // the simulator's kv namespace
			ICD:        icd,
			Entry:      entry,
			GooseAppID: appIDs[sclIED.Name],
		}
		if entry != nil && entry.Protection.CILO != nil {
			guard := entry.Protection.CILO.GuardIED
			if err := checkGuard(cons, appIDs, sclIED.Name, guard); err != nil {
				return nil, nil, err
			}
			cfg.GuardAppID = appIDs[guard]
		}
		if entry != nil && entry.Protection.PDIF != nil {
			// Differential protection needs the R-SV exchange with the remote
			// IED: derive a deterministic shared APPID from the (sorted) pair
			// and stream to the remote gateway's address.
			remote := entry.Protection.PDIF.RemoteIED
			peer, ok := built.AddrOf[remote]
			if !ok {
				return nil, nil, fmt.Errorf("%w: IED %s PDIF remote %q has no network address", ErrModel, sclIED.Name, remote)
			}
			cfg.RSVAppID = rsvPairAppID(sclIED.Name, remote)
			cfg.RSVPeers = []netem.IPv4{peer}
		}
		a.iedCfgs = append(a.iedCfgs, cfg)
	}

	// Per-PLC build inputs (stage 6), PLCopen parsed once.
	for _, spec := range ms.PLCs {
		if spec.Config == nil {
			return nil, nil, fmt.Errorf("%w: PLC spec without config", ErrModel)
		}
		if err := spec.Config.Validate(); err != nil {
			return nil, nil, err
		}
		hostName := spec.Config.Host
		if hostName == "" {
			hostName = spec.Config.Name
		}
		if _, ok := built.Hosts[hostName]; !ok {
			return nil, nil, fmt.Errorf("%w: PLC host %q not in communication section", ErrModel, hostName)
		}
		logic := spec.Logic
		if len(spec.PLCopenXML) > 0 {
			_, src, err := plc.ParsePLCopen(spec.PLCopenXML)
			if err != nil {
				return nil, nil, err
			}
			logic = src
		}
		cfg := plc.Config{
			Name:       spec.Config.Name,
			ModbusPort: uint16(spec.Config.ModbusPort),
		}
		for _, b := range spec.Config.Inputs {
			cfg.Inputs = append(cfg.Inputs, plc.MMSBinding{Var: b.Var, IED: b.IED, Ref: mms.ObjectReference(b.Ref), Scale: b.Scale})
		}
		for _, b := range spec.Config.Outputs {
			cfg.Outputs = append(cfg.Outputs, plc.MMSBinding{Var: b.Var, IED: b.IED, Ref: mms.ObjectReference(b.Ref), Scale: b.Scale})
		}
		for _, e := range spec.Config.Exposes {
			kind := plc.ExposeInputReg
			switch e.Kind {
			case "discrete":
				kind = plc.ExposeDiscrete
			case "holding":
				kind = plc.ExposeHolding
			}
			cfg.Expose = append(cfg.Expose, plc.ModbusBinding{Var: e.Var, Kind: kind, Addr: e.Addr, Scale: e.Scale})
		}
		for _, c := range spec.Config.Commands {
			cfg.Commands = append(cfg.Commands, plc.CommandBinding{Coil: c.Coil, Var: c.Var})
		}
		a.plcBuilds = append(a.plcBuilds, plcBuild{cfg: cfg, logic: logic, hostName: hostName})
	}

	// SCADA import (stage 7 input), generated and parsed once.
	if ms.SCADAConfig != nil {
		a.scadaHost = ms.SCADAHost
		if a.scadaHost == "" {
			a.scadaHost = "SCADA"
		}
		if _, ok := built.Hosts[a.scadaHost]; !ok {
			return nil, nil, fmt.Errorf("%w: SCADA host %q not in communication section", ErrModel, a.scadaHost)
		}
		jsonData, err := ms.SCADAConfig.ToImportJSON()
		if err != nil {
			return nil, nil, err
		}
		imp, err := sgmlconf.ParseImportJSON(jsonData)
		if err != nil {
			return nil, nil, err
		}
		a.scadaImp = imp
	}
	return a, built, nil
}

// instantiate assembles a runnable range on a freshly generated fabric: the
// single shared code path of Compile (first instantiation) and Fork (every
// later one).
func (a *rangeArtifacts) instantiate(built *BuiltNetwork) (*CyberRange, error) {
	// Stage 4: coupling cache + simulator with scenario events. The solver
	// fork shares the template's read-only topology artifacts.
	bus := a.busTmpl.Fork()
	sim := powersim.New(a.grid, bus, powersim.Options{Interval: a.interval}, a.simTmpl.ForkSolver())
	if len(a.events) > 0 {
		sim.Schedule(a.events...)
	}

	r := &CyberRange{
		Name: a.name, Net: built.Net, Built: built, Bus: bus, Sim: sim, Grid: sim.Network(),
		IEDs: make(map[string]*ied.IED), PLCs: make(map[string]*plc.PLC),
		artifacts: a, cons: a.cons, interval: a.interval,
	}

	// Stage 5: virtual IED builder.
	for i := range a.iedCfgs {
		cfg := &a.iedCfgs[i]
		host, ok := built.Hosts[cfg.Name]
		if !ok {
			return nil, fmt.Errorf("%w: IED %s has no host on the generated fabric", ErrModel, cfg.Name)
		}
		dev, err := ied.New(host, bus, *cfg)
		if err != nil {
			return nil, fmt.Errorf("%w: IED %s: %v", ErrModel, cfg.Name, err)
		}
		r.IEDs[cfg.Name] = dev
	}

	// Stage 6: virtual PLCs (OpenPLC61850).
	for i := range a.plcBuilds {
		pb := &a.plcBuilds[i]
		host, ok := built.Hosts[pb.hostName]
		if !ok {
			return nil, fmt.Errorf("%w: PLC host %q not in communication section", ErrModel, pb.hostName)
		}
		p, err := plc.New(host, pb.cfg, pb.logic)
		if err != nil {
			return nil, err
		}
		r.PLCs[pb.cfg.Name] = p
	}

	// Stage 7: SCADA (HMI on the precompiled import model).
	if a.scadaImp != nil {
		host, ok := built.Hosts[a.scadaHost]
		if !ok {
			return nil, fmt.Errorf("%w: SCADA host %q not in communication section", ErrModel, a.scadaHost)
		}
		hmi, err := scada.New(host, a.scadaImp)
		if err != nil {
			return nil, err
		}
		hmi.SetDiagnostics(func() string {
			s := built.Net.Stats()
			return fmt.Sprintf("data plane: %d frames transmitted, %d dropped, pool hit rate %.0f%%\n",
				s.Transmitted, s.Dropped, 100*s.PoolHitRate())
		})
		r.HMI = hmi
	}

	// Stage 8: step order — IEDs by name, PLCs by substation then name, fixed
	// once here so StepAll neither sorts nor allocates.
	names := make([]string, 0, len(r.IEDs))
	for name := range r.IEDs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.iedOrder = append(r.iedOrder, r.IEDs[name])
	}
	r.shards = partitionShards(a.cons.SubstationOf, r.IEDs, r.PLCs)
	for _, s := range r.shards {
		for _, name := range s.PLCs {
			r.plcOrder = append(r.plcOrder, r.PLCs[name])
		}
	}
	return r, nil
}

// isInfraNode reports whether the SCL IED entry is actually the PLC or
// SCADA node (present in the communication section but not a virtual IED).
func isInfraNode(i *scl.IED) bool {
	switch strings.ToLower(i.Type) {
	case "plc", "hmi", "scada":
		return true
	}
	// No server section -> nothing to virtualise.
	for _, ap := range i.AccessPoints {
		if ap.Server != nil {
			return false
		}
	}
	return true
}

// checkGuard rejects a CILO guard the interlocked IED can never hear: its
// guard status arrives only as L2 GOOSE, which does not cross the routed WAN,
// so an unknown guard, one without a GSE APPID or one in another substation
// would leave the guard unknown and deny every close.
func checkGuard(cons *sclmerge.Consolidated, appIDs map[string]uint16, ied, guard string) error {
	guardSub, ok := cons.SubstationOf[guard]
	switch {
	case !ok:
		return fmt.Errorf("%w: IED %s CILO guard IED %q is not in the model", ErrModel, ied, guard)
	case appIDs[guard] == 0:
		return fmt.Errorf("%w: IED %s CILO guard IED %s publishes no GOOSE (no GSE APPID)", ErrModel, ied, guard)
	case guardSub != cons.SubstationOf[ied]:
		return fmt.Errorf("%w: IED %s CILO guard IED %s is in substation %s, not %s; GOOSE does not cross the WAN",
			ErrModel, ied, guard, guardSub, cons.SubstationOf[ied])
	}
	return nil
}

// rsvPairAppID derives the shared R-SV APPID for a differential-protection
// pair: both ends compute the same value from the sorted name pair, in the
// 0x4000 range IEC 61850-9-2 reserves for SV.
func rsvPairAppID(a, b string) uint16 {
	if b < a {
		a, b = b, a
	}
	var h uint32 = 2166136261
	for _, c := range []byte(a + "|" + b) {
		h ^= uint32(c)
		h *= 16777619
	}
	return 0x4000 | uint16(h&0x0FFF)
}

// gooseAppIDs extracts each IED's GOOSE APPID from the communication section.
func gooseAppIDs(doc *scl.Document) map[string]uint16 {
	out := map[string]uint16{}
	if doc.Communication == nil {
		return out
	}
	for _, sn := range doc.Communication.SubNetworks {
		for _, ap := range sn.ConnectedAPs {
			for _, gse := range ap.GSEs {
				if v := gse.Address.Get("APPID"); v != "" {
					var appID uint16
					if _, err := fmt.Sscanf(v, "%x", &appID); err == nil {
						out[ap.IEDName] = appID
					}
				}
			}
		}
	}
	return out
}

// Start brings the range up: network workers, one initial power-flow step
// (so devices see live measurements), MMS servers, PLC southbound
// associations, SCADA connections. With realTime false the caller drives the
// range with StepAll. With realTime true Start also launches the real-time
// driver: paced StepAll, one step every Interval() of wall time with a clock
// advanced by Interval() per step, until ctx is cancelled or Stop is called.
// A real-time session therefore runs the batch step path — same phase order,
// hooks and end state — and RealTimeStats reports its overruns.
func (r *CyberRange) Start(ctx context.Context, realTime bool) error {
	if r.started {
		return fmt.Errorf("%w: range already started", ErrModel)
	}
	r.started = true
	if err := r.Net.Start(); err != nil {
		return err
	}
	if _, err := r.Sim.Step(); err != nil {
		return fmt.Errorf("core: initial power flow: %w", err)
	}
	for name, dev := range r.IEDs {
		if err := dev.Serve(); err != nil {
			return fmt.Errorf("core: IED %s: %w", name, err)
		}
		dev.Step(time.Now())
	}
	for name, p := range r.PLCs {
		if err := p.Serve(); err != nil {
			return fmt.Errorf("core: PLC %s: %w", name, err)
		}
	}
	// Southbound associations (after IED servers are up).
	for name, p := range r.PLCs {
		spec := r.plcBindingsOf(name)
		for iedName := range spec {
			addr, ok := r.Built.AddrOf[iedName]
			if !ok {
				return fmt.Errorf("%w: PLC %s references unknown IED %q", ErrModel, name, iedName)
			}
			if err := p.ConnectIED(iedName, addr, 0); err != nil {
				return fmt.Errorf("core: PLC %s -> IED %s: %w", name, iedName, err)
			}
		}
	}
	if r.HMI != nil {
		r.HMI.Connect()
	}
	if realTime {
		runCtx, cancel := context.WithCancel(ctx)
		r.stopRT, r.rtDone = cancel, make(chan struct{})
		go r.driveRealTime(runCtx)
	}
	return nil
}

// driveRealTime is the real-time driver: StepAll once per Interval() of wall
// time. A failed step is counted and pacing continues (the interactive,
// operator-in-the-loop contract); ticks missed during a slow step are
// dropped, never queued.
func (r *CyberRange) driveRealTime(ctx context.Context) {
	defer close(r.rtDone)
	ticker := time.NewTicker(r.interval)
	defer ticker.Stop()
	now := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		now = now.Add(r.interval)
		start := time.Now()
		err := r.StepAll(now)
		took := time.Since(start)
		r.rtMu.Lock()
		r.rtStats.Steps++
		if err != nil {
			r.rtStats.Failures++
		}
		if took > r.interval {
			r.rtStats.Overruns++
		}
		r.rtStats.MaxStep = max(r.rtStats.MaxStep, took)
		r.rtMu.Unlock()
	}
}

// RealTimeStats reports the real-time driver's pacing so far; safe to call
// while the range runs. All zero for a step-driven range.
func (r *CyberRange) RealTimeStats() RealTimeStats {
	r.rtMu.Lock()
	defer r.rtMu.Unlock()
	return r.rtStats
}

// plcBindingsOf collects the distinct IED names a PLC talks to.
func (r *CyberRange) plcBindingsOf(name string) map[string]bool {
	out := map[string]bool{}
	p := r.PLCs[name]
	if p == nil {
		return out
	}
	for _, b := range p.Bindings() {
		out[b] = true
	}
	return out
}

// StepAll advances the whole range one simulation interval, deterministically
// and on the calling goroutine: the pre hook, the physical solve, every IED in
// name order with immediate bus writes, every PLC in Shards() order, one HMI
// poll, then the post hook. Every PLC is scanned before the first scan error
// is returned, so one failing scan never skips the rest.
func (r *CyberRange) StepAll(now time.Time) error {
	step := r.stepIndex
	if r.preStep != nil {
		if err := r.preStep(step, now); err != nil {
			return err
		}
	}
	if _, err := r.Sim.Step(); err != nil {
		return err
	}
	for _, dev := range r.iedOrder {
		dev.Step(now)
	}
	var firstErr error
	for _, p := range r.plcOrder {
		if err := p.Scan(now); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if r.HMI != nil {
		r.HMI.PollOnce()
	}
	r.stepIndex++
	if r.postStep != nil {
		return r.postStep(step, now)
	}
	return nil
}

// PowerSolverStats reports the coupled power simulator's health: topology
// cache hits/misses of the warm-path solver (hits = steps that reused the
// island assignment, Ybus and symbolic factorization) and the number of
// failed solves.
func (r *CyberRange) PowerSolverStats() (cacheHits, cacheMisses, solveFailures uint64) {
	cacheHits, cacheMisses = r.Sim.SolverCacheStats()
	return cacheHits, cacheMisses, r.Sim.Failures()
}

// DataPlaneStats reports the emulated fabric's data-plane counters: frames
// transmitted and dropped per hop, and the payload pool's hit rate (the
// zero-allocation protocol data plane). The HMI status panel renders the
// same counters as its diagnostics footer.
func (r *CyberRange) DataPlaneStats() netem.DataPlaneStats { return r.Net.Stats() }

// GooseSubscriberDrops reports, per subscribing IED, how many GOOSE updates
// its subscription lost to a full delivery channel. IEDs without GOOSE
// subscriptions (or without losses) are omitted.
func (r *CyberRange) GooseSubscriberDrops() map[string]uint64 {
	out := map[string]uint64{}
	for name, dev := range r.IEDs {
		if n := dev.GooseDropped(); n > 0 {
			out[name] = n
		}
	}
	return out
}

// StepHook observes (and may act on) the range's step loop. step is the
// zero-based index of the step about to run (pre hook) or just completed
// (post hook); now is the step's virtual timestamp. Returning an error aborts
// the step. The deterministic scenario scheduler is implemented as a pair of
// these hooks; they run strictly between device passes, on StepAll's
// goroutine.
type StepHook func(step int, now time.Time) error

// SetStepHooks installs the scenario scheduler's pre/post hooks into the
// step loop (nil clears). The pre hook runs before the physical solve of the
// step — a scenario action applied there is visible to that step's power
// flow — and the post hook runs after the HMI poll, once the step's device
// state is committed. Hooks are part of the single-threaded step loop: they
// must not be installed concurrently with stepping.
func (r *CyberRange) SetStepHooks(pre, post StepHook) {
	r.preStep, r.postStep = pre, post
}

// StepIndex reports how many steps the range has completed; the value passed
// to the step hooks for the upcoming step.
func (r *CyberRange) StepIndex() int { return r.stepIndex }

// Shards exposes the range's per-substation device partition, which fixes
// the order StepAll scans PLCs in (diagnostics, tests).
func (r *CyberRange) Shards() []Shard { return r.shards }

// Stop tears the range down in reverse dependency order, after the real-time
// driver (if any) has finished its step in flight.
func (r *CyberRange) Stop() {
	if r.stopRT != nil {
		r.stopRT()
		<-r.rtDone
	}
	if r.HMI != nil {
		r.HMI.Close()
	}
	for _, p := range r.PLCs {
		p.Stop()
	}
	for _, dev := range r.IEDs {
		dev.Stop()
	}
	r.Net.Stop()
}

// Interval returns the simulation step interval.
func (r *CyberRange) Interval() time.Duration { return r.interval }

// Topology renders the generated cyber network (the Fig 4 artefact).
func (r *CyberRange) Topology() string { return r.Net.Topology() }

// PowerSummary renders the generated power model (the Fig 5 artefact).
func (r *CyberRange) PowerSummary() string { return r.Grid.Summary() }
