package sgml

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/sgmlconf"
	"repro/internal/store"
)

// Campaign layer re-exports: the declarative sweep over scenario runs and the
// aggregated report. See the package doc's "Campaigns" section for the model;
// internal/core/campaign.go holds the engine.
type (
	// Campaign is a declarative sweep — scenario variants × seed lists —
	// executed concurrently on a bounded worker pool, one isolated
	// CyberRange per run. The retired engine and data-plane toggle
	// attributes are parsed and ignored.
	Campaign = core.Campaign
	// CampaignVariant is one cell of the sweep matrix.
	CampaignVariant = core.CampaignVariant
	// CampaignReport aggregates the sweep: per-run records, per-variant
	// distributions and the cross-seed determinism verdict.
	CampaignReport = core.CampaignReport
	// CampaignRun is one run's record within a campaign.
	CampaignRun = core.CampaignRun
	// VariantSummary is one variant's aggregated distribution.
	VariantSummary = core.VariantSummary
	// DeterminismMismatch names a (variant, seed) group whose repeated runs
	// disagreed on their fingerprint.
	DeterminismMismatch = core.DeterminismMismatch
	// CampaignOption tunes a campaign execution (WithWorkers, WithStore,
	// WithResume, WithRunSink, WithRunTimeout, WithRetries).
	CampaignOption = core.CampaignOption
	// RunFailure classifies why a campaign run failed; see the Fail*
	// constants and CampaignRun.Failure.
	RunFailure = core.RunFailure
	// RunRetry is one abandoned attempt in a retried cell's history
	// (CampaignRun.Retries). Retry history never contributes to run
	// fingerprints or the Merkle root.
	RunRetry = core.RunRetry
	// RunSink observes completed campaign runs as they finish — the
	// streaming half of the campaign result path. See WithRunSink.
	RunSink = core.RunSink
	// StoreVerification is the audit result for one sealed campaign in a
	// result-store directory. See VerifyStore.
	StoreVerification = store.Verification
)

// ErrCampaign is returned when a campaign cannot be validated or executed.
var ErrCampaign = core.ErrCampaign

// Run-failure classes; see RunFailure and the package doc's "Fault
// tolerance" section for which classes WithRetries re-executes.
const (
	FailNone      = core.FailNone
	FailCompile   = core.FailCompile
	FailPanic     = core.FailPanic
	FailTimeout   = core.FailTimeout
	FailStore     = core.FailStore
	FailScenario  = core.FailScenario
	FailCancelled = core.FailCancelled
)

// WithRunSink attaches a streaming observer to RunCampaign: every executed
// run is delivered as it completes, in completion order, from worker
// goroutines (the sink must be safe for concurrent use). Cells cancelled
// before execution are recorded in the report but never delivered. May be
// repeated to attach several sinks.
func WithRunSink(s RunSink) CampaignOption { return core.WithRunSink(s) }

// WithStore attaches the durable result store under dir to RunCampaign:
// every executed run is checkpointed as it completes (append-only JSONL,
// one fsync'd length/CRC-framed record per run), keyed inside dir by the
// campaign's name and spec-content hash. If the sweep completes with every
// cell clean, the store is sealed under a Merkle root over the run
// fingerprints and CampaignReport.MerkleRoot is stamped; a cancelled or
// failing sweep leaves the store unsealed so WithResume can finish it.
// Audit a sealed store with VerifyStore / "rangectl campaign verify".
func WithStore(dir string) CampaignOption {
	return core.WithCampaignStore(func(c *core.Campaign) (core.CampaignStore, error) {
		return store.OpenJSONL(dir, c)
	})
}

// WithRunTimeout puts a wall-clock deadline on every individual campaign run:
// a run that exceeds d is cancelled through its derived context and recorded
// as a FailTimeout failure (retryable) instead of wedging its worker and the
// sweep behind it. Zero (the default) means no per-run deadline.
func WithRunTimeout(d time.Duration) CampaignOption { return core.WithRunTimeout(d) }

// WithRetries re-executes failed campaign runs up to n extra attempts, on a
// fresh fork, with capped exponential backoff — but only for
// infrastructure-shaped failures (FailPanic, FailTimeout, FailStore).
// Scenario-semantics failures are deterministic facts about the
// (model, scenario, seed) cell and are never retried. A retried cell that
// succeeds carries its abandoned attempts in CampaignRun.Retries and still
// produces the cell's deterministic fingerprint.
func WithRetries(n int) CampaignOption { return core.WithRetries(n) }

// WithResume makes RunCampaign load the attached store's records before
// dispatch: cells with a persisted record are restored into the report
// (marked Resumed) and never re-executed; only missing cells run. Requires
// WithStore. A resumed sweep's fingerprint map and Merkle root are
// byte-identical to an uninterrupted run's.
func WithResume() CampaignOption { return core.WithResume() }

// VerifyStore audits every campaign under a result-store directory written
// by WithStore: records must parse intact (any flipped byte fails), every
// campaign must be sealed, and the Merkle root recomputed from the records
// must match the sealed root. Returns one StoreVerification per campaign,
// or the first violation as a non-nil error.
func VerifyStore(dir string) ([]StoreVerification, error) { return store.Verify(dir) }

// VerifyStoreRun audits one cell of a sealed store: it builds the
// (variant, seed, attempt) record's Merkle inclusion proof and checks it
// against the sealed root.
func VerifyStoreRun(dir, variant string, seed int64, attempt int) (*StoreVerification, error) {
	return store.VerifyRun(dir, variant, seed, attempt)
}

// RunCampaign executes the campaign's full sweep — every (variant, seed,
// attempt) triple — and aggregates the RunReports into a CampaignReport.
// Worker count and run ordering never change the per-run fingerprints; see
// the Campaign type for the model-sharing and isolation rules.
func RunCampaign(ctx context.Context, c *Campaign, opts ...CampaignOption) (*CampaignReport, error) {
	return core.RunCampaign(ctx, c, opts...)
}

// ParseCampaign decodes and validates a Campaign XML document (the fifth
// supplementary schema, parsed by internal/sgmlconf) into a typed Campaign.
// Scenario and model references are resolved relative to baseDir; model is
// the default model compiled for variants without their own.
func ParseCampaign(data []byte, baseDir string, model *ModelSet) (*Campaign, error) {
	cfg, err := sgmlconf.ParseCampaignConfig(data)
	if err != nil {
		return nil, err
	}
	return campaignFromConfig(cfg, baseDir, model)
}

// LoadCampaignFile reads a Campaign XML file from disk, resolving its
// scenario (and per-variant model) references relative to the file's own
// directory. model is the campaign-wide default model.
func LoadCampaignFile(path string, model *ModelSet) (*Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseCampaign(data, filepath.Dir(path), model)
}

func campaignFromConfig(cfg *sgmlconf.CampaignConfig, baseDir string, model *ModelSet) (*Campaign, error) {
	c := &Campaign{Name: cfg.Name, Model: model, Workers: cfg.Workers}
	// Scenario files (and model dirs) are loaded once per distinct path and
	// shared across the variants referencing them — the same read-only reuse
	// the engine applies to compiled model artifacts.
	scenarios := map[string]*Scenario{}
	models := map[string]*ModelSet{}
	for i := range cfg.Variants {
		vc := &cfg.Variants[i]
		// Every load/parse failure below is labelled with the variant it
		// belongs to — a ten-variant campaign file otherwise reports "no such
		// file" with no hint of which <Variant> referenced it.
		label := vc.Name
		if label == "" {
			label = fmt.Sprintf("#%d", i+1)
		}
		v := CampaignVariant{Name: vc.Name, Repeat: vc.Repeat, MaxSteps: vc.MaxSteps}
		scPath := filepath.Join(baseDir, vc.Scenario)
		sc, ok := scenarios[scPath]
		if !ok {
			var err error
			if sc, err = LoadScenarioFile(scPath); err != nil {
				return nil, fmt.Errorf("campaign variant %s: scenario %q: %w", label, vc.Scenario, err)
			}
			scenarios[scPath] = sc
		}
		v.Scenario = sc
		if vc.Model != "" {
			dir := filepath.Join(baseDir, vc.Model)
			ms, ok := models[dir]
			if !ok {
				var err error
				if ms, err = LoadModelDir(filepath.Base(vc.Model), dir); err != nil {
					return nil, fmt.Errorf("campaign variant %s: model %q: %w", label, vc.Model, err)
				}
				models[dir] = ms
			}
			v.Model = ms
		}
		seeds, err := vc.SeedList()
		if err != nil {
			return nil, fmt.Errorf("campaign variant %s: %w", label, err)
		}
		v.Seeds = seeds
		c.Variants = append(c.Variants, v)
	}
	return c, nil
}
