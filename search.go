package sgml

import (
	"context"

	"repro/internal/core"
	"repro/internal/search"
)

// Scenario search re-exports: coverage-guided mutation over the typed event
// DSL, pluggable interestingness oracles and delta-debugging minimization.
// See the package doc's "Scenario search" section; internal/search holds the
// engine.
type (
	// SearchOptions tunes a search; the zero value uses the defaults
	// (search seed 1, budget 64, step cap 64, the built-in oracles).
	SearchOptions = search.Options
	// SearchResult summarises a search: the minimized finds plus candidate,
	// novelty and run counters.
	SearchResult = search.Result
	// SearchFind is one minimized, reproducible discovery: the oracle that
	// flagged it, the minimized scenario XML and its pinned fingerprint.
	SearchFind = search.Find
	// Oracle is an interestingness predicate over a completed run. Custom
	// oracles may only read the deterministic report sections (everything
	// Fingerprint covers); the Diag section is off-limits.
	Oracle = search.Oracle
	// SearchCorpusEntry is one checked-in minimized repro: the scenario XML,
	// the oracle key and verified step cap, and the pinned fingerprint.
	SearchCorpusEntry = search.CorpusEntry

	// MissedDetection flags runs where an IDS was deployed yet an injected
	// attack went undetected (the blind-spot oracle).
	MissedDetection = search.MissedDetection
	// DeadBusCascade flags runs whose closing grid has >= Threshold dead
	// buses.
	DeadBusCascade = search.DeadBusCascade
	// SolverDivergence flags runs whose power flow diverged or aborted.
	SolverDivergence = search.SolverDivergence
	// StepBudgetBlowup flags runs aborted by the per-run step budget.
	StepBudgetBlowup = search.StepBudgetBlowup
)

// ErrSearch is returned when a search cannot be set up or a find cannot be
// reproduced from its own minimized serialization.
var ErrSearch = search.ErrSearch

// DefaultOracles is the built-in oracle set: missed-detection, dead-bus
// cascade, solver divergence and step-budget blowup.
func DefaultOracles() []Oracle { return search.DefaultOracles() }

// OracleByKey resolves a built-in oracle by its key (corpus replay).
func OracleByKey(key string) (Oracle, error) { return search.OracleByKey(key) }

// WriteSearchCorpus writes each find into dir as a three-file corpus entry
// (scenario XML, oracle sidecar, pinned fingerprint), keyed by oracle.
func WriteSearchCorpus(dir string, finds []SearchFind) error {
	return search.WriteCorpus(dir, finds)
}

// ReadSearchCorpus loads every corpus entry of dir, sorted by name. Replaying
// an entry — parse the XML, run it under WithMaxSteps(entry.MaxSteps) — must
// reproduce entry.Fingerprint and the entry's oracle verdict on either
// provisioning path.
func ReadSearchCorpus(dir string) ([]SearchCorpusEntry, error) {
	return search.ReadCorpus(dir)
}

// Search compiles the model once and runs a coverage-guided scenario search
// seeded from the given scenario: candidates are mutated in the declarative
// form (event insertion/deletion, trigger jitter, target permutation drawn
// from the compiled model's inventory), executed on forks of the compiled
// root, scored by the oracles, and each first find per oracle is
// delta-debugged to a minimal reproducing <Scenario> XML with a pinned
// fingerprint. Deterministic end to end: a fixed (model, seed scenario,
// search seed, budget) reproduces the same finds, minimized repros and
// fingerprints across both provisioning paths and any worker count.
func Search(ctx context.Context, ms *ModelSet, seed *Scenario, opts SearchOptions) (*SearchResult, error) {
	root, err := core.Compile(ms)
	if err != nil {
		return nil, err
	}
	defer root.Stop()
	return SearchCompiled(ctx, root, seed, opts)
}

// SearchCompiled runs a scenario search against an already compiled range
// (forked per candidate, never started or mutated); the caller keeps
// ownership of cr and its Stop. Use it to issue several searches — different
// seeds, budgets or oracle sets — against one compiled model.
func SearchCompiled(ctx context.Context, cr *CyberRange, seed *Scenario, opts SearchOptions) (*SearchResult, error) {
	cfg, err := core.ScenarioToConfig(seed)
	if err != nil {
		return nil, err
	}
	return search.Run(ctx, cr, cfg, opts)
}
