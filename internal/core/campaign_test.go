package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netem"
)

func TestCampaignValidation(t *testing.T) {
	sc := &Scenario{Name: "s", Steps: 4}
	ms := &ModelSet{Name: "m"}
	cases := []struct {
		name string
		c    *Campaign
		want string
	}{
		{"no variants", &Campaign{Name: "c"}, "no variants"},
		{"no scenario", &Campaign{Name: "c", Model: ms,
			Variants: []CampaignVariant{{Name: "v"}}}, "no scenario"},
		{"no model anywhere", &Campaign{Name: "c",
			Variants: []CampaignVariant{{Name: "v", Scenario: sc}}}, "no model"},
		{"duplicate variants", &Campaign{Name: "c", Model: ms, Variants: []CampaignVariant{
			{Name: "v", Scenario: sc}, {Name: "v", Scenario: sc}}}, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunCampaign(context.Background(), tc.c)
			if !errors.Is(err, ErrCampaign) {
				t.Fatalf("err = %v, want ErrCampaign", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCampaignDefaults(t *testing.T) {
	// Unnamed variants get positional names; empty seed lists fall back to
	// the scenario's own seed; repeat defaults to 1.
	c := &Campaign{Model: &ModelSet{Name: "m"}, Variants: []CampaignVariant{
		{Scenario: &Scenario{Name: "s", Seed: 7}},
		{Name: "second", Scenario: &Scenario{Name: "s"}, Repeat: 3},
	}}
	variants, err := c.normalizedVariants()
	if err != nil {
		t.Fatal(err)
	}
	if variants[0].Name != "variant-1" || variants[1].Name != "second" {
		t.Errorf("names = %q, %q", variants[0].Name, variants[1].Name)
	}
	if len(variants[0].Seeds) != 1 || variants[0].Seeds[0] != 7 {
		t.Errorf("seeds[0] = %v, want [7]", variants[0].Seeds)
	}
	if len(variants[1].Seeds) != 1 || variants[1].Seeds[0] != 1 {
		t.Errorf("seeds[1] = %v, want [1] (zero scenario seed)", variants[1].Seeds)
	}
	if variants[0].Repeat != 1 || variants[1].Repeat != 3 {
		t.Errorf("repeats = %d, %d", variants[0].Repeat, variants[1].Repeat)
	}
}

func TestCampaignQuantile(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	samples := ms(5, 1, 4, 2, 3)
	if got := quantile(samples, 0.5); got != 3*time.Millisecond {
		t.Errorf("p50 = %v, want 3ms", got)
	}
	if got := quantile(samples, 0.9); got != 5*time.Millisecond {
		t.Errorf("p90 = %v, want 5ms", got)
	}
	if got := quantile(samples, 1.0); got != 5*time.Millisecond {
		t.Errorf("max = %v, want 5ms", got)
	}
	if got := quantile(ms(8), 0.5); got != 8*time.Millisecond {
		t.Errorf("single-sample p50 = %v, want 8ms", got)
	}
}

func TestCampaignAggregateDeterminismMismatch(t *testing.T) {
	// aggregate must flag a (variant, seed) group whose attempts disagree,
	// and leave agreeing groups (and single-run groups) clean.
	mk := func(variant string, seed int64, attempt int, fp string) CampaignRun {
		return CampaignRun{
			Variant: variant, Seed: seed, Attempt: attempt,
			Fingerprint: fingerprintHash(fp), fingerprint: fp,
			Precision: 1, Recall: 1,
			Report: &RunReport{Precision: 1, Recall: 1},
		}
	}
	aborted := mk("w", 1, 2, "delta") // would diverge from w/1#1...
	aborted.Err = "run cancelled at step 3"
	failedEvent := mk("w", 1, 3, "alpha")
	failedEvent.Precision = 0.25 // must not pollute the scorecard mean
	failedEvent.EventErrors = []string{"fci: connection refused"}
	rep := &CampaignReport{Runs: []CampaignRun{
		mk("v", 1, 1, "alpha"),
		mk("v", 1, 2, "beta"), // diverges
		mk("v", 2, 1, "gamma"),
		mk("v", 2, 2, "gamma"),
		mk("w", 1, 1, "alpha"),
		aborted, // ...but aborted runs carry no determinism evidence
		failedEvent,
	}}
	rep.aggregate([]CampaignVariant{{Name: "v"}, {Name: "w"}})
	if len(rep.Determinism) != 1 {
		t.Fatalf("mismatches = %d, want 1", len(rep.Determinism))
	}
	m := rep.Determinism[0]
	if m.Variant != "v" || m.Seed != 1 || len(m.Fingerprints) != 2 {
		t.Errorf("mismatch = %+v", m)
	}
	if rep.Variants[0].DeterminismOK {
		t.Error("variant v reported deterministic")
	}
	// The aborted run's diverging fingerprint is not determinism evidence;
	// the deterministically-failed event's fingerprint is (and agrees).
	if !rep.Variants[1].DeterminismOK || rep.Variants[1].DeterminismGroups != 1 {
		t.Errorf("variant w summary = %+v", rep.Variants[1])
	}
	// The scorecard covers successful runs only: the failed-event run's
	// precision (0.25) must not drag variant w's mean below 1.
	if rep.Variants[1].PrecisionMean != 1 || rep.Variants[1].PrecisionMin != 1 {
		t.Errorf("variant w scorecard polluted by failed run: %+v", rep.Variants[1])
	}
	if rep.Variants[1].Failures != 2 {
		t.Errorf("variant w failures = %d, want 2", rep.Variants[1].Failures)
	}
	if rep.OK() {
		t.Error("report with mismatch reported OK")
	}
	if !strings.Contains(rep.String(), "MISMATCH") {
		t.Error("human summary does not surface the mismatch")
	}
}

// cancelSink cancels the campaign's context on the first delivered run and
// counts what reaches it — the streaming-sink view of a cancelled sweep.
type cancelSink struct {
	cancel context.CancelFunc
	mu     sync.Mutex
	puts   int
}

func (s *cancelSink) Put(run CampaignRun) error {
	if run.cancelled {
		panic("cancelled cell delivered to an external sink")
	}
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	s.cancel()
	return nil
}

func TestCampaignCancellation(t *testing.T) {
	// Cancelling mid-sweep must stop the dispatcher promptly: the cells
	// never handed out are bulk-marked "cancelled before run" instead of
	// each being funnelled through a worker, and none of them reach sinks.
	ms := epicModelSet(t)
	sc := &Scenario{Name: "drill", Steps: 3}
	seeds := make([]int64, 24)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	c := &Campaign{Name: "cancel", Model: ms, Variants: []CampaignVariant{
		{Name: "only", Scenario: sc, Seeds: seeds},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelSink{cancel: cancel}
	rep, err := RunCampaign(ctx, c, WithWorkers(2), WithRunSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRuns != len(seeds) {
		t.Fatalf("TotalRuns = %d, want %d", rep.TotalRuns, len(seeds))
	}
	cancelled := 0
	for i := range rep.Runs {
		if strings.Contains(rep.Runs[i].Err, "cancelled before run") {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no cells marked cancelled")
	}
	// Prompt return: after the first completed run triggers cancel, only
	// the in-flight cells may still execute — the bulk of the sweep must
	// have been cancelled without ever reaching a worker or a sink.
	if sink.puts > 8 {
		t.Errorf("%d runs executed after cancellation; dispatcher did not stop promptly", sink.puts)
	}
	if sink.puts+cancelled != rep.TotalRuns {
		t.Errorf("executed (%d) + cancelled (%d) != total (%d): cancelled cells leaked to sinks or were lost",
			sink.puts, cancelled, rep.TotalRuns)
	}
	// Every failure is a cancellation: the cells cancelled before a worker
	// took them, plus any in-flight run the cancel stopped mid-run (more
	// than one CPU leaves a second run in flight).
	failedByCancel := 0
	for i := range rep.Runs {
		if rep.Runs[i].Failure == FailCancelled {
			failedByCancel++
		}
	}
	if rep.Failures != failedByCancel {
		t.Errorf("Failures = %d, want %d (the cancelled runs)", rep.Failures, failedByCancel)
	}
}

func TestCampaignCompileTimeOnFailure(t *testing.T) {
	// A failed provisioning step must still be attributed: the run records
	// the compile error AND what the attempt cost, under both the shared
	// compile-once root and the per-run-compile reference path.
	bad := &ModelSet{Name: "bad"} // no SCDs: Compile fails
	c := &Campaign{Name: "ct", Model: bad, Variants: []CampaignVariant{
		{Name: "only", Scenario: &Scenario{Name: "s", Steps: 1}, Seeds: []int64{1}},
	}}
	paths := map[string][]CampaignOption{
		"forked":          {WithWorkers(1)},
		"per-run-compile": {WithWorkers(1), WithPerRunCompile()},
	}
	for name, opts := range paths {
		t.Run(name, func(t *testing.T) {
			rep, err := RunCampaign(context.Background(), c, opts...)
			if err != nil {
				t.Fatal(err)
			}
			run := &rep.Runs[0]
			if !strings.Contains(run.Err, "compile:") {
				t.Fatalf("run.Err = %q, want a compile error", run.Err)
			}
			if run.CompileTime <= 0 {
				t.Errorf("CompileTime = %v on the failure path, want > 0", run.CompileTime)
			}
		})
	}
}

func TestCampaignResumeRequiresStore(t *testing.T) {
	c := &Campaign{Name: "r", Model: &ModelSet{Name: "m"}, Variants: []CampaignVariant{
		{Name: "v", Scenario: &Scenario{Name: "s", Steps: 1}},
	}}
	_, err := RunCampaign(context.Background(), c, WithResume())
	if !errors.Is(err, ErrCampaign) || !strings.Contains(err.Error(), "store") {
		t.Fatalf("err = %v, want ErrCampaign naming the missing store", err)
	}
}

func TestCampaignEventFailurePropagation(t *testing.T) {
	// A scenario event that fails at runtime (StopMITM with nothing mounted
	// passes validation — the attacker is declared — but errors on apply)
	// must surface as a failed run, never be buried in the report.
	ms := epicModelSet(t)
	sc := &Scenario{
		Name:  "broken",
		Steps: 3,
		Attackers: []AttackerSpec{
			{Name: "red", Switch: "sw-TransLAN", IP: netem.IPv4{10, 0, 1, 77}},
		},
		Events: []ScenarioEvent{
			{Name: "orphan-stop", Trigger: At(1), Action: StopMITM{Attacker: "red"}},
		},
	}
	c := &Campaign{Name: "c", Model: ms, Variants: []CampaignVariant{
		{Name: "only", Scenario: sc, Seeds: []int64{1}},
	}}
	rep, err := RunCampaign(context.Background(), c, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 1 || rep.OK() {
		t.Fatalf("failures = %d, OK = %t; want 1, false", rep.Failures, rep.OK())
	}
	fails := rep.EventFailures()
	if len(fails) != 1 || !strings.Contains(fails[0], "orphan-stop") {
		t.Fatalf("event failures = %q", fails)
	}
	if !strings.Contains(rep.String(), "orphan-stop") {
		t.Error("human summary does not list the failed event")
	}
}
