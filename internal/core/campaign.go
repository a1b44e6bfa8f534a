package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// ErrCampaign is returned when a campaign cannot be validated or executed.
var ErrCampaign = errors.New("core: invalid campaign")

// Campaign is a declarative sweep over scenario runs: the population form of
// the single (model, scenario, seed) experiment RunScenario executes. Each
// variant pairs a scenario with a seed list and the engine/data-plane toggles
// to run it under; RunCampaign expands the cross product into individual runs
// and executes them concurrently on a bounded worker pool, one isolated
// CyberRange per run.
//
// Each distinct model is compiled once into a root range whose immutable
// artifacts (parsed SCL, power-model template, device configs, prewarmed
// solver) every run shares read-only; the mutable layers — fabric, coupling
// cache, grid, devices — are never shared. Each run forks the root
// (CyberRange.Fork) into a private range it starts and stops itself, or
// compiles its own under WithPerRunCompile.
type Campaign struct {
	Name string
	// Model is the default model compiled for every run; a variant may
	// override it with its own. Required unless every variant carries one.
	Model *ModelSet
	// Workers is the default worker-pool size (0 = runtime.GOMAXPROCS);
	// WithWorkers overrides it per execution.
	Workers  int
	Variants []CampaignVariant
}

// CampaignVariant is one cell of the sweep matrix: a scenario executed once
// per (seed, attempt).
type CampaignVariant struct {
	Name string
	// Model overrides the campaign's default model for this variant.
	Model    *ModelSet
	Scenario *Scenario
	// Seeds are the replay seeds to sweep. A nil list defaults to the
	// scenario's own seed (or 1), i.e. a single run per attempt; a non-nil
	// empty list is rejected (a sweep of zero runs is a config error).
	Seeds []int64
	// Repeat is the number of runs per seed (default 1). Repeat >= 2 turns
	// the variant into a determinism probe: all attempts of a (variant, seed)
	// pair must produce identical RunReport fingerprints.
	Repeat int
	// MaxSteps caps each run of the variant at this many executed steps
	// (0 = no budget): a scenario stepping past it aborts with a
	// deterministic "step budget" error. See WithMaxSteps.
	MaxSteps int
}

// RunSink observes completed campaign runs as they finish — the streaming
// half of the campaign result path. RunCampaign delivers every executed run
// to every attached sink from worker goroutines, in completion order (which
// is scheduling-dependent; CampaignReport.Runs keeps declaration order
// regardless). Cells that were cancelled before they executed are recorded
// in the report but never delivered to sinks, so a persistent sink only ever
// checkpoints real outcomes. Implementations must be safe for concurrent
// use; the first Put error fails the sweep (the report is still returned).
//
// The in-memory aggregation behind CampaignReport is itself just the default
// sink; stores (internal/store) are sinks with a resume/verify surface.
type RunSink interface {
	Put(run CampaignRun) error
}

// CampaignStore is the persistence contract RunCampaign drives when a store
// is attached (WithCampaignStore, surfaced publicly as sgml.WithStore): a
// RunSink whose records survive the process, plus the resume surface. The
// backends live in internal/store, which core must not import; they satisfy
// this interface structurally.
//
// A store may additionally implement
//
//	Finish(rep *CampaignReport) error
//	Close() error
//
// Finish is called exactly once, after aggregation, when the sweep completed
// with every cell executed cleanly and every record persisted (no
// cancellation, no failed run, no store degradation) — the point at which a
// store commits the result set, e.g. seals it under its Merkle root and
// stamps CampaignReport.MerkleRoot. A store whose Put keeps failing after
// retries does not fail the sweep: the report is flagged StoreDegraded and
// the store is left unsealed so WithResume can re-execute the unpersisted
// cells. Close is called when RunCampaign returns.
type CampaignStore interface {
	RunSink
	// Done reports whether a clean record for the (variant, seed, attempt)
	// cell is already persisted.
	Done(variant string, seed int64, attempt int) bool
	// Load reconstructs the persisted population as a partial
	// CampaignReport: one entry per stored cell, full RunReports attached
	// and fingerprints rehydrated, sorted by (variant, seed, attempt).
	Load() (*CampaignReport, error)
}

// StoreOpener opens a CampaignStore for a specific campaign — deferred to
// RunCampaign time because durable stores key their layout by the campaign's
// name and SpecHash, which only exist once the campaign is assembled.
type StoreOpener func(c *Campaign) (CampaignStore, error)

// cellKey identifies one cell of the sweep matrix.
type cellKey struct {
	variant string
	seed    int64
	attempt int
}

// campaignRunSpec is one expanded run of the sweep.
type campaignRunSpec struct {
	variant *CampaignVariant
	model   *ModelSet
	seed    int64
	attempt int // 1-based repeat index
	// root is the model's compile-once range; runs fork it instead of
	// recompiling. nil under WithPerRunCompile (each run compiles), and when
	// the root compile failed (rootErr carries the error to every run).
	root    *CyberRange
	rootErr error
	// rootErrTime is what the failed root compile cost: attributed as the
	// CompileTime of every run the failure propagates to, so failed runs
	// stay accountable in sinks and store records.
	rootErrTime time.Duration
}

// normalizedVariants validates the campaign and expands defaults: variant
// names, seed lists, repeat counts and the per-variant model.
func (c *Campaign) normalizedVariants() ([]CampaignVariant, error) {
	if len(c.Variants) == 0 {
		return nil, fmt.Errorf("%w: no variants", ErrCampaign)
	}
	out := append([]CampaignVariant(nil), c.Variants...)
	seen := make(map[string]bool, len(out))
	for i := range out {
		v := &out[i]
		if v.Name == "" {
			v.Name = fmt.Sprintf("variant-%d", i+1)
		}
		if seen[v.Name] {
			return nil, fmt.Errorf("%w: duplicate variant %q", ErrCampaign, v.Name)
		}
		seen[v.Name] = true
		if v.Scenario == nil {
			return nil, fmt.Errorf("%w: variant %q has no scenario", ErrCampaign, v.Name)
		}
		if v.Model == nil {
			v.Model = c.Model
		}
		if v.Model == nil {
			return nil, fmt.Errorf("%w: variant %q has no model and the campaign has no default", ErrCampaign, v.Name)
		}
		if v.Repeat < 1 {
			v.Repeat = 1
		}
		if v.Seeds != nil && len(v.Seeds) == 0 {
			// A present-but-empty seed list is a sweep of zero runs — almost
			// always a truncated config, so it fails fast naming the variant
			// instead of silently contributing nothing to the population.
			// A nil list keeps the documented default below.
			return nil, fmt.Errorf("%w: variant %q has an empty seed list (omit Seeds to default to the scenario seed)", ErrCampaign, v.Name)
		}
		if len(v.Seeds) == 0 {
			seed := v.Scenario.Seed
			if seed == 0 {
				seed = 1
			}
			v.Seeds = []int64{seed}
		}
	}
	return out, nil
}

// SpecHash returns the hex SHA-256 content hash of the campaign's normalized
// declarative spec: every variant's name, model name, seed list, repeat
// count and step budget, plus its scenario's attackers and
// typed events in their canonical one-line descriptions. The hash is a pure
// function of the declaration — independent of the process, pointer
// identity or run order — so durable stores key their on-disk layout by it
// and an edited campaign can never resume into a stale record set.
//
// The hash covers the declarative sweep surface, not the model file bytes:
// pointing the same-named model directory at different content is the
// operator's responsibility (and surfaces as fingerprint divergence in the
// determinism verdict).
func (c *Campaign) SpecHash() (string, error) {
	variants, err := c.normalizedVariants()
	if err != nil {
		return "", err
	}
	name := c.Name
	if name == "" {
		name = "campaign"
	}
	h := sha256.New()
	fmt.Fprintf(h, "campaign %q\n", name)
	for i := range variants {
		v := &variants[i]
		// "engine=parallel pooling=default" is what every variant hashed
		// before the engine and data-plane toggles were removed; keeping the
		// literal keeps existing stores' keys, so they still resume.
		fmt.Fprintf(h, "variant %q model=%q seeds=%v repeat=%d engine=parallel pooling=default",
			v.Name, v.Model.Name, v.Seeds, v.Repeat)
		if v.MaxSteps > 0 {
			// Appended only when set, so pre-existing campaigns keep their
			// store keys.
			fmt.Fprintf(h, " maxsteps=%d", v.MaxSteps)
		}
		fmt.Fprintf(h, "\n")
		sc := v.Scenario
		fmt.Fprintf(h, "  scenario %q steps=%d seed=%d\n", sc.Name, sc.Steps, sc.Seed)
		for _, a := range sc.Attackers {
			fmt.Fprintf(h, "  attacker %q switch=%q ip=%v mac=%v\n", a.Name, a.Switch, a.IP, a.MAC)
		}
		for _, ev := range sc.Events {
			action := "<nil>"
			if ev.Action != nil {
				action = ev.Action.describe()
			}
			fmt.Fprintf(h, "  event %q trigger=%q action=%q\n", ev.Name, ev.Trigger.describe(), action)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// memorySink is the default RunSink: it places each completed run at its
// expansion index in the report, so CampaignReport.Runs keeps declaration
// order no matter which worker finishes which cell first (completion order
// is only observable through additional sinks).
type memorySink struct {
	mu    sync.Mutex
	rep   *CampaignReport
	index map[cellKey]int
}

func (s *memorySink) Put(run CampaignRun) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx, ok := s.index[cellKey{run.Variant, run.Seed, run.Attempt}]; ok {
		s.rep.Runs[idx] = run
	}
	return nil
}

// RunCampaign executes the campaign's full sweep — every (variant, seed,
// attempt) triple — on a bounded worker pool, streaming each completed
// CampaignRun through the attached RunSinks as it finishes and aggregating
// the population into a CampaignReport: per-variant score and performance
// distributions, cross-seed determinism checks, and both machine-readable
// (WriteJSON) and human (String) renderings.
//
// Run ordering and worker count never change the deterministic half of any
// run: each run owns a private range seeded from its own (scenario, seed), so
// the set of run fingerprints is identical whether the sweep executes on one
// worker or many (pinned by the campaign determinism tests). A failed run
// (compile error, aborted scenario, failed event) is recorded in its
// CampaignRun rather than aborting the sweep; callers decide via
// CampaignReport.Failures and EventFailures whether the population is usable.
//
// Each distinct model is compiled once and every run forks the compiled root
// (CyberRange.Fork): the expensive SG-ML pipeline — merge, model generation,
// config validation, solver warm-up — runs once per model instead of once per
// run, and stopped forks hand their fabric inboxes back for the next fork.
// WithPerRunCompile restores the old compile-every-run behaviour; the two
// paths produce byte-identical run fingerprints (pinned by the campaign fork
// tests and BenchmarkScale_CampaignThroughput).
//
// With a store attached (WithCampaignStore / sgml.WithStore) every executed
// run is checkpointed as it completes, and WithResume pre-loads the store's
// records: already-done cells are restored into the report (marked Resumed)
// and excluded from dispatch, so an interrupted sweep pays only for the
// cells it never finished. Cancellation is prompt: the dispatcher watches
// ctx and marks every not-yet-dispatched cell "cancelled before run" in bulk
// instead of feeding the whole matrix through the pool.
func RunCampaign(ctx context.Context, c *Campaign, opts ...CampaignOption) (*CampaignReport, error) {
	cfg := optionSet{workers: c.Workers}
	applyCampaign(opts, &cfg)
	if cfg.workers < 1 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	name := c.Name
	if name == "" {
		name = "campaign"
	}
	variants, err := c.normalizedVariants()
	if err != nil {
		return nil, err
	}
	// Default every distinct model's name serially, before the pool shares
	// them: Compile writes ms.Name when empty, which would otherwise be the
	// one write against the read-only sharing contract.
	for i := range variants {
		if variants[i].Model.Name == "" {
			variants[i].Model.Name = name
		}
	}

	// Attach the store, if any. Opening is deferred to here because durable
	// stores key their layout by the campaign's name and SpecHash.
	var st CampaignStore
	if cfg.storeOpen != nil {
		if st, err = cfg.storeOpen(c); err != nil {
			return nil, err
		}
		if cl, ok := st.(interface{ Close() error }); ok {
			defer cl.Close()
		}
	}
	if cfg.resume && st == nil {
		return nil, fmt.Errorf("%w: WithResume needs a store to resume from (WithStore)", ErrCampaign)
	}

	// Expand the sweep matrix. rep.Runs is indexed by expansion order; the
	// cell index lets sinks and the resume path address cells by identity.
	var specs []campaignRunSpec
	for i := range variants {
		v := &variants[i]
		for _, seed := range v.Seeds {
			for attempt := 1; attempt <= v.Repeat; attempt++ {
				specs = append(specs, campaignRunSpec{variant: v, model: v.Model, seed: seed, attempt: attempt})
			}
		}
	}
	rep := &CampaignReport{
		Campaign: name,
		Workers:  cfg.workers,
		Runs:     make([]CampaignRun, len(specs)),
	}
	index := make(map[cellKey]int, len(specs))
	for idx := range specs {
		s := &specs[idx]
		index[cellKey{s.variant.Name, s.seed, s.attempt}] = idx
	}

	// Resume: restore the store's records into the report and build the
	// skip-set — restored cells are never dispatched, let alone re-executed.
	var pending []int
	if cfg.resume {
		stored, err := st.Load()
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		restored := make(map[cellKey]*CampaignRun, len(stored.Runs))
		for i := range stored.Runs {
			run := &stored.Runs[i]
			restored[cellKey{run.Variant, run.Seed, run.Attempt}] = run
		}
		for idx := range specs {
			s := &specs[idx]
			prior, ok := restored[cellKey{s.variant.Name, s.seed, s.attempt}]
			if !ok {
				pending = append(pending, idx)
				continue
			}
			run := *prior
			run.Resumed = true
			rep.Runs[idx] = run
			rep.Resumed++
		}
	} else {
		pending = make([]int, len(specs))
		for i := range pending {
			pending[i] = i
		}
	}

	// Compile each model with pending cells once, up front (a fully-resumed
	// sweep compiles nothing). A root compile failure is not fatal to the
	// sweep: it is recorded on every run of the affected variants, exactly
	// as the per-run compile error used to be.
	roots := make(map[*ModelSet]*CyberRange)
	rootErrs := make(map[*ModelSet]error)
	rootErrTimes := make(map[*ModelSet]time.Duration)
	if !cfg.perRunCompile {
		for _, idx := range pending {
			ms := specs[idx].model
			if _, ok := roots[ms]; ok {
				continue
			}
			if _, ok := rootErrs[ms]; ok {
				continue
			}
			compileStart := time.Now()
			root, err := Compile(ms)
			if err != nil {
				rootErrs[ms] = err
				rootErrTimes[ms] = time.Since(compileStart)
				continue
			}
			// The root exists only to be forked: donate its idle fabric
			// channels to the recycler so the sweep's first fork starts from
			// a warm pool instead of allocating a fabric of its own.
			root.releaseFabric()
			roots[ms] = root
		}
		defer func() {
			for _, root := range roots {
				root.Stop()
			}
		}()
		for _, idx := range pending {
			s := &specs[idx]
			s.root, s.rootErr = roots[s.model], rootErrs[s.model]
			s.rootErrTime = rootErrTimes[s.model]
		}
	}

	// The sink chain: the report's own in-memory aggregation first, then any
	// extra observers, then the store. Cancelled cells reach only the memory
	// sink — a store must never checkpoint a cell that did not execute.
	//
	// The store is handled apart from the other sinks because its failure
	// mode differs: a sink error is a caller bug and fails the sweep, while a
	// store append error is infrastructure — the write is retried with
	// backoff, and if it keeps failing the sweep is demoted to a flagged
	// StoreDegraded report (results intact in memory, store left unsealed so
	// WithResume can re-execute the unpersisted cells) instead of failing
	// runs that actually succeeded.
	mem := &memorySink{rep: rep, index: index}
	ext := append([]RunSink(nil), cfg.sinks...)
	var sinkMu sync.Mutex
	var sinkErr error
	record := func(run CampaignRun) {
		mem.Put(run)
		if run.cancelled {
			return
		}
		for _, s := range ext {
			if err := s.Put(run); err != nil {
				sinkMu.Lock()
				if sinkErr == nil {
					sinkErr = err
				}
				sinkMu.Unlock()
			}
		}
		if st != nil {
			err := st.Put(run)
			for try := 1; err != nil && try <= cfg.retries && ctx.Err() == nil; try++ {
				if !sleepBackoff(ctx, try) {
					break
				}
				err = st.Put(run)
			}
			if err != nil {
				sinkMu.Lock()
				if !rep.StoreDegraded {
					rep.StoreDegraded = true
					rep.StoreErr = fmt.Sprintf("%s: %v", FailStore, err)
				}
				sinkMu.Unlock()
			}
		}
	}

	// executeCell is the worker's unit of work: one run, retried on a fresh
	// fork for infrastructure-shaped failures (RunFailure.Retryable) with
	// capped exponential backoff, the attempt history kept on the final run.
	executeCell := func(spec campaignRunSpec) CampaignRun {
		run := executeCampaignRun(ctx, spec, &cfg, 1)
		var history []RunRetry
		for try := 1; try <= cfg.retries; try++ {
			if !run.Failure.Retryable() || ctx.Err() != nil {
				break
			}
			history = append(history, RunRetry{
				Try: try, Failure: run.Failure, Err: run.Err, Backoff: retryBackoff(try),
			})
			if !sleepBackoff(ctx, try) {
				break
			}
			run = executeCampaignRun(ctx, spec, &cfg, try+1)
		}
		run.Retries = history
		return run
	}

	start := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				record(executeCell(specs[idx]))
			}
		}()
	}
	// The dispatcher watches ctx alongside the unbuffered job channel: on
	// cancellation it stops feeding immediately and stamps every cell it
	// never handed out in one bulk pass, so a cancelled 10k-run sweep
	// returns as soon as the in-flight runs notice, instead of funnelling
	// every remaining cell through a worker just to mark it cancelled.
	cancelledAt := -1
	for i, idx := range pending {
		select {
		case jobs <- idx:
			continue
		case <-ctx.Done():
			cancelledAt = i
		}
		break
	}
	close(jobs)
	if cancelledAt >= 0 {
		cause := ctx.Err()
		for _, idx := range pending[cancelledAt:] {
			record(cancelledRun(&specs[idx], cause))
		}
	}
	wg.Wait()
	rep.WallTime = time.Since(start)
	rep.aggregate(variants)
	if sinkErr != nil {
		return rep, fmt.Errorf("campaign sink: %w", sinkErr)
	}
	// Commit the finished sweep. Only a complete, fully-clean, fully-persisted
	// population is committed: a cancelled, partially-failed or store-degraded
	// sweep stays open so a later resume can finish (or retry) the missing
	// cells.
	if st != nil && cancelledAt < 0 && rep.Failures == 0 && !rep.StoreDegraded {
		if fin, ok := st.(interface{ Finish(*CampaignReport) error }); ok {
			if err := fin.Finish(rep); err != nil {
				return rep, fmt.Errorf("campaign store commit: %w", err)
			}
		}
	}
	return rep, nil
}

// cancelledRun stamps a cell that will never execute because the context was
// cancelled first. Cancelled cells are recorded in the report (the operator
// sees exactly which cells are missing) but withheld from sinks.
func cancelledRun(spec *campaignRunSpec, cause error) CampaignRun {
	v := spec.variant
	run := CampaignRun{
		Variant: v.Name,
		Seed:    spec.seed,
		Attempt: spec.attempt,
	}
	run.Err = fmt.Sprintf("cancelled before run: %v", cause)
	run.Failure = FailCancelled
	run.cancelled = true
	return run
}

// executeCampaignRun performs one isolated attempt of a run: obtain a private
// range — a fork of the model's compile-once root, or a fresh compile under
// WithPerRunCompile — execute the scenario under its own deadline, tear down,
// record, classify. try is the 1-based attempt number (see WithRetries); the
// fault-injection probe receives it so injected faults can target one
// attempt.
//
// The function is the worker boundary for panic isolation: a panic anywhere
// in the fork/start/step/teardown path is recovered here and converted into a
// FailPanic run carrying the panic value and stack, so one broken device
// model can never crash the sweep.
func executeCampaignRun(ctx context.Context, spec campaignRunSpec, cfg *optionSet, try int) (run CampaignRun) {
	v := spec.variant
	run = CampaignRun{
		Variant: v.Name,
		Seed:    spec.seed,
		Attempt: spec.attempt,
	}
	defer func() {
		if p := recover(); p != nil {
			// Identity fields are already set; scrub any partial outcome so
			// a panicked attempt can never masquerade as a result.
			run.Err = fmt.Sprintf("panic: %v", p)
			run.Failure = FailPanic
			run.PanicStack = string(debug.Stack())
			run.Report = nil
			run.fingerprint = ""
			run.Fingerprint = ""
		}
	}()
	if err := ctx.Err(); err != nil {
		return cancelledRun(&spec, err)
	}

	// CompileTime records what this run paid to obtain its range: the fork
	// (fast path) or the full compile (per-run-compile reference path) — on
	// the failure paths too, so failed runs stay attributable in sinks and
	// store records.
	if spec.rootErr != nil {
		// The shared root failed to compile once, up front; every run of the
		// model inherits the error and is attributed the compile's real cost.
		run.CompileTime = spec.rootErrTime
		run.Err = fmt.Sprintf("compile: %v", spec.rootErr)
		run.Failure = FailCompile
		return run
	}
	compileStart := time.Now()
	var r *CyberRange
	var err error
	if spec.root != nil {
		r, err = spec.root.Fork()
	} else {
		r, err = Compile(spec.model)
	}
	run.CompileTime = time.Since(compileStart)
	if err != nil {
		run.Err = fmt.Sprintf("compile: %v", err)
		run.Failure = FailCompile
		return run
	}
	defer r.Stop()

	// The run's own deadline (WithRunTimeout): a wedged or diverging run is
	// cancelled through its private context, leaving the rest of the sweep
	// untouched. classifyRunFailure distinguishes this from campaign
	// cancellation by checking which context died.
	runCtx := ctx
	if cfg.runTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, cfg.runTimeout)
		defer cancel()
	}

	opts := []RunOption{WithSeed(spec.seed)}
	if v.MaxSteps > 0 {
		opts = append(opts, WithMaxSteps(v.MaxSteps))
	}
	if cfg.runProbe != nil {
		probe := cfg.runProbe
		variant, seed, attempt := v.Name, spec.seed, spec.attempt
		opts = append(opts, withStepProbe(func(ctx context.Context, step int) error {
			return probe(ctx, variant, seed, attempt, try, step)
		}))
	}
	runStart := time.Now()
	report, err := RunScenario(runCtx, r, v.Scenario, opts...)
	run.Duration = time.Since(runStart)
	if err != nil {
		run.Err = err.Error()
		run.Failure = classifyRunFailure(ctx, runCtx)
		return run
	}
	run.Report = report
	run.fingerprint = report.Fingerprint()
	run.Fingerprint = fingerprintHash(run.fingerprint)
	run.Steps = report.Steps
	if report.Steps > 0 {
		run.StepTime = run.Duration / time.Duration(report.Steps)
	}
	run.Precision = report.Precision
	run.Recall = report.Recall
	if report.Err != "" {
		run.Err = report.Err
		run.Failure = classifyRunFailure(ctx, runCtx)
	}
	run.EventErrors = report.FailedEvents()
	return run
}
