// Package search implements coverage-guided scenario search: a seeded,
// deterministic mutation engine over the typed event DSL that hunts the
// scenario space for interesting outcomes — IDS blind spots, dead-bus
// cascades, solver divergence, step-budget blowups — and delta-debugs each
// find down to a minimal reproducing <Scenario> XML.
//
// The searcher stands on the framework's replay contract. Candidates are
// mutated in the declarative config form (insertion, deletion, trigger
// jitter, target permutation drawn from the compiled model's inventory),
// executed on forks of one compiled root range, and scored by pluggable
// interestingness oracles against the deterministic sections of RunReport.
// Every randomised choice comes from a single rand.Rand seeded with the
// search seed and drawn only between evaluations, and evaluation results are
// processed in candidate order, so a fixed (model, seed scenario, search
// seed, budget) reproduces the same finds, minimized repros and fingerprints
// regardless of worker count, step engine or provisioning path.
//
// "Coverage" is behavioural: each run is reduced to a signature over its
// fingerprint-stable outcome (grid state, alert set, ground-truth detection,
// abort class), and candidates exhibiting a new signature join the mutation
// pool even when no oracle fires — the scenario-space analogue of a fuzzer's
// edge map.
package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/sgmlconf"
)

// ErrSearch is returned when a search cannot be set up or a find cannot be
// reproduced from its own minimized serialization.
var ErrSearch = errors.New("search: invalid search")

// Defaults applied by Run when the corresponding Options field is zero.
const (
	// DefaultBudget is the number of candidate evaluations.
	DefaultBudget = 64
	// DefaultMaxSteps caps every candidate run (WithMaxSteps); candidates
	// whose mutated triggers push past it abort deterministically, which is
	// exactly what the step-budget oracle flags. Corpus sidecars record the
	// cap so replays reproduce the verdict.
	DefaultMaxSteps = 64
	// DefaultPoolCap bounds the mutation pool (seed + novel candidates).
	DefaultPoolCap = 32
	// genBatch is the generation granularity: candidates are drawn from the
	// pool in fixed batches of this size, independent of Options.Workers, so
	// the candidate stream — and therefore the finds — never depends on how
	// many evaluations run concurrently.
	genBatch = 8
)

// Options tunes a search. The zero value searches with the defaults above,
// search seed 1, the built-in oracle set and one worker per CPU.
type Options struct {
	// SearchSeed seeds the mutation engine (default 1). It is independent of
	// the scenarios' replay seed, which candidates inherit from the seed
	// scenario.
	SearchSeed int64
	// Budget is the number of candidate evaluations (default DefaultBudget).
	// Minimization runs are not counted against it.
	Budget int
	// Workers bounds concurrent candidate evaluations (default
	// runtime.GOMAXPROCS(0)). Worker count never changes the finds.
	Workers int
	// MaxSteps caps each candidate run (default DefaultMaxSteps).
	MaxSteps int
	// Oracles are the interestingness predicates (default DefaultOracles).
	Oracles []Oracle
}

// Find is one minimized, reproducible discovery.
type Find struct {
	// Oracle is the key of the oracle that flagged the candidate.
	Oracle string
	// Detail is the oracle's verdict for the minimized repro.
	Detail string
	// FoundAt is the candidate index (0 = the seed scenario) that first
	// triggered the oracle.
	FoundAt int
	// Events counts the minimized scenario's events.
	Events int
	// MinimizeRuns is the number of extra runs minimization spent.
	MinimizeRuns int
	// XML is the minimized scenario, serialized; it re-parses and replays to
	// Fingerprint under the recorded MaxSteps cap.
	XML []byte
	// Fingerprint is the canonical RunReport fingerprint of the minimized
	// repro, obtained by re-parsing XML and running it — the value a
	// regression corpus pins.
	Fingerprint string
	// MaxSteps is the step cap the repro was verified under.
	MaxSteps int
}

// Result summarises a search.
type Result struct {
	Finds []Find
	// Candidates is the number of candidate evaluations spent (<= Budget;
	// invalid candidates burn budget too).
	Candidates int
	// Invalid counts candidates rejected before or during execution
	// (validation failures against the compiled range).
	Invalid int
	// Novel counts distinct behaviour signatures observed.
	Novel int
	// Runs is the total number of scenario runs, including minimization.
	Runs int
}

// Run executes a search against a compiled root range. The root is forked
// per candidate and never started or mutated; the caller keeps ownership
// (and Stop). The seed config must already be structurally valid.
func Run(ctx context.Context, root *core.CyberRange, seed *sgmlconf.ScenarioConfig, opts Options) (*Result, error) {
	if root == nil || seed == nil {
		return nil, fmt.Errorf("%w: nil root range or seed scenario", ErrSearch)
	}
	if err := seed.Validate(); err != nil {
		return nil, fmt.Errorf("%w: seed scenario: %v", ErrSearch, err)
	}
	if opts.SearchSeed == 0 {
		opts.SearchSeed = 1
	}
	if opts.Budget <= 0 {
		opts.Budget = DefaultBudget
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = DefaultMaxSteps
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if len(opts.Oracles) == 0 {
		opts.Oracles = DefaultOracles()
	}
	s := &searcher{
		root: root,
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.SearchSeed)),
		inv:  buildInventory(root, seed),
		seen: make(map[string]bool),
		done: make(map[string]bool),
	}
	s.pool = []*sgmlconf.ScenarioConfig{seed}
	return s.search(ctx, seed)
}

type searcher struct {
	root *core.CyberRange
	opts Options
	rng  *rand.Rand
	inv  *inventory

	pool    []*sgmlconf.ScenarioConfig // seed + behaviourally novel candidates
	seen    map[string]bool            // behaviour signatures observed
	done    map[string]bool            // oracle keys already minimized
	nameSeq int                        // unique names for inserted events
	farJump bool                       // set when a jitter jumped past the step cap
	runs    int
	res     Result
}

// evalResult is one candidate's outcome. err is set when the candidate never
// produced a report (structural or range validation failure).
type evalResult struct {
	sc  *core.Scenario
	rep *core.RunReport
	err error
}

func (s *searcher) search(ctx context.Context, seed *sgmlconf.ScenarioConfig) (*Result, error) {
	// Candidate 0 is the seed scenario itself: it anchors the novelty map
	// and may already be interesting.
	next := 0
	for next < s.opts.Budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batch := genBatch
		if rem := s.opts.Budget - next; batch > rem {
			batch = rem
		}
		cands := make([]*sgmlconf.ScenarioConfig, batch)
		for i := range cands {
			if next+i == 0 {
				cands[i] = seed
				continue
			}
			cands[i] = s.mutate(s.pool[s.rng.Intn(len(s.pool))])
		}
		results := s.evalBatch(ctx, cands)
		for i, r := range results {
			if err := s.process(ctx, next+i, cands[i], r); err != nil {
				return nil, err
			}
		}
		next += batch
	}
	s.res.Candidates = next
	s.res.Runs = s.runs
	sort.SliceStable(s.res.Finds, func(i, j int) bool { return s.res.Finds[i].Oracle < s.res.Finds[j].Oracle })
	return &s.res, nil
}

// process scores one candidate, in candidate order: novelty first, then each
// oracle; the first candidate to trigger an oracle is minimized immediately
// (sequentially — minimization runs are themselves deterministic).
func (s *searcher) process(ctx context.Context, idx int, cfg *sgmlconf.ScenarioConfig, r evalResult) error {
	if r.err != nil {
		s.res.Invalid++
		return nil
	}
	if sig := signature(r.rep); !s.seen[sig] {
		s.seen[sig] = true
		s.res.Novel++
		if len(s.pool) < DefaultPoolCap {
			s.pool = append(s.pool, cfg)
		} else {
			s.pool[1+s.rng.Intn(DefaultPoolCap-1)] = cfg // slot 0 keeps the seed
		}
	}
	for _, o := range s.opts.Oracles {
		if s.done[o.Key()] {
			continue
		}
		if _, ok := o.Assess(r.sc, r.rep); !ok {
			continue
		}
		s.done[o.Key()] = true
		f, err := s.minimize(ctx, cfg, o)
		if err != nil {
			return err
		}
		f.FoundAt = idx
		s.res.Finds = append(s.res.Finds, *f)
	}
	return nil
}

// evalBatch runs a batch of candidates concurrently — at most Options.Workers
// in flight, one fork each — and returns results in candidate order. All
// randomness was drawn before the batch; nothing here touches the rng or any
// shared mutable state, so concurrency affects wall clock only.
func (s *searcher) evalBatch(ctx context.Context, cfgs []*sgmlconf.ScenarioConfig) []evalResult {
	out := make([]evalResult, len(cfgs))
	sem := make(chan struct{}, s.opts.Workers)
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = s.evalOne(ctx, cfgs[i])
		}(i)
	}
	wg.Wait()
	s.runs += len(cfgs)
	return out
}

// evalOne executes a single candidate on a fresh fork of the root range.
func (s *searcher) evalOne(ctx context.Context, cfg *sgmlconf.ScenarioConfig) evalResult {
	sc, err := core.ScenarioFromConfig(cfg)
	if err != nil {
		return evalResult{err: err}
	}
	fork, err := s.root.Fork()
	if err != nil {
		return evalResult{err: err}
	}
	defer fork.Stop()
	rep, err := core.RunScenario(ctx, fork, sc, core.WithMaxSteps(s.opts.MaxSteps))
	if err != nil {
		return evalResult{err: err}
	}
	return evalResult{sc: sc, rep: rep}
}

// signature reduces a report to its behaviour: the abort class, the closing
// grid state, the distinct alert kinds and the ground-truth detection tally.
// Everything in it is engine- and provisioning-stable (a projection of the
// fingerprint), and none of it references event names, so two scenarios that
// behave alike collapse into one signature regardless of how they are written.
func signature(rep *core.RunReport) string {
	var b strings.Builder
	errClass := ""
	switch {
	case rep.Err == "":
	case strings.Contains(rep.Err, "step budget"):
		errClass = "budget"
	default:
		errClass = "abort"
	}
	fmt.Fprintf(&b, "err=%s grid=%t/%d/%d open=%s",
		errClass, rep.Grid.Converged, rep.Grid.Islands, rep.Grid.DeadBuses,
		strings.Join(rep.Grid.OpenBreakers, ","))
	kinds := map[string]bool{}
	for _, a := range rep.Alerts {
		kinds[fmt.Sprintf("%s/%t", a.Kind, a.Matched)] = true
	}
	sorted := make([]string, 0, len(kinds))
	for k := range kinds {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	fmt.Fprintf(&b, " alerts=%s", strings.Join(sorted, ","))
	det := 0
	for _, tr := range rep.Truth {
		if tr.Detected {
			det++
		}
	}
	fmt.Fprintf(&b, " truth=%d/%d", det, len(rep.Truth))
	return b.String()
}
