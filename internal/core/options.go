package core

import (
	"context"
	"time"
)

// Unified option surface for Compile, RunScenario and RunCampaign.
//
// The three entry points historically took three unrelated function-typed
// option families (CompileOption, RunOption, CampaignOption), which made the
// one genuinely shared knob — the worker count — exist under two names with
// incompatible types. The families are now interfaces over a single option
// set: each With* constructor returns a value implementing exactly the
// interfaces of the calls it is meaningful for, so passing WithSeed to
// Compile is still a compile-time error while WithWorkers is accepted
// everywhere.

// optionSet is the merged configuration every option applies into. Each entry
// point reads only the fields its narrowed interface can set.
type optionSet struct {
	workers       int // campaign pool (RunCampaign); 0 = GOMAXPROCS
	seed          int64
	perRunCompile bool
	sinks         []RunSink   // extra streaming observers (WithRunSink)
	storeOpen     StoreOpener // deferred store constructor (WithCampaignStore)
	resume        bool        // skip cells the store already holds (WithResume)

	// Fault-tolerance knobs (WithRunTimeout / WithRetries) and the
	// fault-injection seams (WithRunProbe at campaign level, stepProbe as its
	// per-run projection; maxSteps carries the variant's step budget).
	runTimeout time.Duration
	retries    int
	runProbe   RunProbe
	stepProbe  func(ctx context.Context, step int) error
	maxSteps   int
}

// CompileOption tunes the compiled range (accepted by Compile).
type CompileOption interface {
	applyOption(*optionSet)
	compileOption()
}

// RunOption tunes a scenario run (accepted by RunScenario and the public
// Run/RunCompiled wrappers).
type RunOption interface {
	applyOption(*optionSet)
	runOption()
}

// CampaignOption tunes a campaign execution (accepted by RunCampaign).
type CampaignOption interface {
	applyOption(*optionSet)
	campaignOption()
}

// Option is the shared subset: an option meaningful to Compile, RunScenario
// and RunCampaign alike (see WithWorkers). Any Option can be passed wherever
// one of the three narrower families is expected.
type Option interface {
	CompileOption
	RunOption
	CampaignOption
}

// workersOption implements every family: the one knob all three calls share.
type workersOption int

func (w workersOption) applyOption(o *optionSet) { o.workers = int(w) }
func (workersOption) compileOption()             {}
func (workersOption) runOption()                 {}
func (workersOption) campaignOption()            {}

// WithWorkers sizes RunCampaign's pool: how many runs execute concurrently,
// each on its own isolated range (default runtime.GOMAXPROCS(0); 1 executes
// the sweep sequentially). Compile and RunScenario accept and ignore it: a
// range steps on one goroutine.
func WithWorkers(n int) Option { return workersOption(n) }

type seedOption int64

func (s seedOption) applyOption(o *optionSet) { o.seed = int64(s) }
func (seedOption) runOption()                 {}

// WithSeed overrides the scenario's replay seed: every randomised choice of
// the run derives from it, so a fixed seed replays byte-identically.
func WithSeed(seed int64) RunOption { return seedOption(seed) }

type perRunCompileOption struct{}

func (perRunCompileOption) applyOption(o *optionSet) { o.perRunCompile = true }
func (perRunCompileOption) campaignOption()          {}

// WithPerRunCompile makes RunCampaign compile a fresh range for every run
// (the pre-fork reference path) instead of compiling each distinct model once
// and forking per run. It is the test oracle of the fork path: the two paths
// produce byte-identical run fingerprints, pinned by the campaign fork tests
// and the campaign-throughput bench. It is not part of the public API.
func WithPerRunCompile() CampaignOption { return perRunCompileOption{} }

type runSinkOption struct{ sink RunSink }

func (s runSinkOption) applyOption(o *optionSet) { o.sinks = append(o.sinks, s.sink) }
func (runSinkOption) campaignOption()            {}

// WithRunSink attaches a streaming observer to RunCampaign: every executed
// run is delivered to the sink as it completes, in completion order, from
// worker goroutines (the sink must be safe for concurrent use). Cancelled
// cells are recorded in the report but never delivered. May be repeated to
// attach several sinks.
func WithRunSink(s RunSink) CampaignOption { return runSinkOption{sink: s} }

type storeOption struct{ open StoreOpener }

func (s storeOption) applyOption(o *optionSet) { o.storeOpen = s.open }
func (storeOption) campaignOption()            {}

// WithCampaignStore attaches a persistent CampaignStore to RunCampaign. The
// opener runs once the campaign is assembled (durable stores key their
// layout by the campaign's name and SpecHash); the store then receives every
// executed run like a RunSink, and — if the sweep completes with every cell
// clean — its Finish commit, where it seals the result set under its Merkle
// root and stamps CampaignReport.MerkleRoot. The public sgml.WithStore(dir)
// wraps this with the JSONL directory backend from internal/store.
func WithCampaignStore(open StoreOpener) CampaignOption { return storeOption{open: open} }

type resumeOption struct{}

func (resumeOption) applyOption(o *optionSet) { o.resume = true }
func (resumeOption) campaignOption()          {}

// WithResume makes RunCampaign load the attached store's records before
// dispatch: cells with a clean persisted record are restored into the report
// (marked Resumed) and never re-executed; only the missing cells run.
// Requires a store (WithCampaignStore / sgml.WithStore); a resumed sweep's
// fingerprint map and Merkle root are byte-identical to an uninterrupted
// run's, pinned by the resume differential tests.
func WithResume() CampaignOption { return resumeOption{} }

type runTimeoutOption time.Duration

func (d runTimeoutOption) applyOption(o *optionSet) { o.runTimeout = time.Duration(d) }
func (runTimeoutOption) campaignOption()            {}

// WithRunTimeout gives every campaign run its own deadline, derived from the
// campaign context: a run that has not finished within d — a wedged scenario,
// a diverging solver — is cancelled via its private context and recorded as a
// FailTimeout run instead of stalling its worker forever. Zero (the default)
// means no per-run deadline. Timed-out runs are retryable (WithRetries) and
// are never persisted, so their cells re-execute on resume.
func WithRunTimeout(d time.Duration) CampaignOption { return runTimeoutOption(d) }

type retriesOption int

func (n retriesOption) applyOption(o *optionSet) { o.retries = int(n) }
func (retriesOption) campaignOption()            {}

// WithRetries re-executes a failed campaign run up to n extra times, on a
// fresh fork, with capped exponential backoff between attempts — but only
// when the failure is infrastructure-shaped (RunFailure.Retryable: panic,
// timeout; store appends are retried in place). Scenario-semantics failures
// (compile errors, step failures, failing events) are deterministic and are
// never retried. The attempt history is kept on CampaignRun.Retries; a
// retried cell that succeeds reproduces the same fingerprint it would have
// produced first try, so retries never perturb the determinism contract or
// the store's Merkle root.
func WithRetries(n int) CampaignOption { return retriesOption(n) }

// RunProbe is the campaign fault-injection seam: when attached with
// WithRunProbe it is called at the top of every step of every run, with the
// run's cell identity, the 1-based retry attempt and the step index. A probe
// may return an error (aborting the step like a step failure), block on ctx
// (wedging the run against its deadline) or panic (exercising worker-boundary
// recovery). ctx is the run's own context — the campaign context plus any
// WithRunTimeout deadline. Probes exist for the fault-injection tests
// (internal/faultinject); production sweeps run without one.
type RunProbe func(ctx context.Context, variant string, seed int64, attempt, try, step int) error

type runProbeOption struct{ probe RunProbe }

func (p runProbeOption) applyOption(o *optionSet) { o.runProbe = p.probe }
func (runProbeOption) campaignOption()            {}

// WithRunProbe attaches a fault-injection probe to every run of the campaign.
// Test-only seam; see RunProbe.
func WithRunProbe(p RunProbe) CampaignOption { return runProbeOption{probe: p} }

type stepProbeOption struct {
	probe func(ctx context.Context, step int) error
}

func (p stepProbeOption) applyOption(o *optionSet) { o.stepProbe = p.probe }
func (stepProbeOption) runOption()                 {}

// withStepProbe is the per-run projection of WithRunProbe: the campaign
// worker binds the cell identity and attempt number into a closure invoked at
// each step of the run loop. Unexported — fault injection enters through the
// campaign-level option.
func withStepProbe(p func(ctx context.Context, step int) error) RunOption {
	return stepProbeOption{probe: p}
}

type maxStepsOption int

func (n maxStepsOption) applyOption(o *optionSet) { o.maxSteps = int(n) }
func (maxStepsOption) runOption()                 {}

// WithMaxSteps caps the run at n executed steps: a scenario that would step
// past the budget is aborted with a deterministic "step budget" error
// (classified FailScenario — exceeding a fixed budget reproduces on every
// retry). Zero means no budget. Campaigns set it per variant
// (CampaignVariant.MaxSteps, maxSteps in the XML schema).
func WithMaxSteps(n int) RunOption { return maxStepsOption(n) }

// applyRun/applyCampaign adapt the narrowed slices to apply.
func applyRun(opts []RunOption, o *optionSet) {
	for _, opt := range opts {
		opt.applyOption(o)
	}
}

func applyCampaign(opts []CampaignOption, o *optionSet) {
	for _, opt := range opts {
		opt.applyOption(o)
	}
}
