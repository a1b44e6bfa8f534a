package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestCampaignForkDifferential is the differential fingerprint check behind
// the fork fast path: the same campaign — repeats and several seeds —
// executed once on the default
// compile-once-fork-per-run path and once under WithPerRunCompile must
// produce the identical fingerprint for every (variant, seed, attempt)
// triple. Any divergence means a fork leaked or dropped state relative to a
// fresh compile.
func TestCampaignForkDifferential(t *testing.T) {
	ms := epicModelSet(t)
	sc := redBlueScenario()
	c := &Campaign{Name: "fork-diff", Model: ms, Variants: []CampaignVariant{
		{Name: "sweep", Scenario: sc, Seeds: []int64{7, 11}, Repeat: 2},
	}}

	key := func(r *CampaignRun) string {
		return fmt.Sprintf("%s/%d#%d", r.Variant, r.Seed, r.Attempt)
	}
	collect := func(t *testing.T, opts ...CampaignOption) map[string]string {
		t.Helper()
		rep, err := RunCampaign(context.Background(), c, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("campaign not OK:\n%s", rep.String())
		}
		out := make(map[string]string, len(rep.Runs))
		for i := range rep.Runs {
			out[key(&rep.Runs[i])] = rep.Runs[i].fingerprint
		}
		return out
	}

	forked := collect(t, WithWorkers(2))
	perRun := collect(t, WithWorkers(2), WithPerRunCompile())
	if len(forked) != len(perRun) {
		t.Fatalf("run counts differ: forked %d, per-run-compile %d", len(forked), len(perRun))
	}
	for k, want := range perRun {
		if got := forked[k]; got != want {
			t.Errorf("%s: forked fingerprint diverged from per-run compile\n--- per-run ---\n%s\n--- forked ---\n%s", k, want, got)
		}
	}
}

// TestCampaignRootCompileFailure pins that a root compile error under the
// fork path is recorded on every affected run — same contract as the old
// per-run compile error — without aborting the sweep.
func TestCampaignRootCompileFailure(t *testing.T) {
	c := &Campaign{Name: "broken", Model: &ModelSet{Name: "empty"}, Variants: []CampaignVariant{
		{Name: "v", Scenario: &Scenario{Name: "s", Steps: 2}, Seeds: []int64{1, 2}},
	}}
	rep, err := RunCampaign(context.Background(), c, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 2 {
		t.Fatalf("failures = %d, want 2", rep.Failures)
	}
	for _, run := range rep.Runs {
		if !strings.Contains(run.Err, "compile:") {
			t.Errorf("run %s/%d: err = %q, want compile error", run.Variant, run.Seed, run.Err)
		}
	}
}

// TestCampaignEmptySeeds pins the fail-fast contract for zero-run sweeps: a
// non-nil empty seed list names the variant instead of silently contributing
// no runs, while a nil list keeps the scenario-seed default.
func TestCampaignEmptySeeds(t *testing.T) {
	ms := &ModelSet{Name: "m"}
	c := &Campaign{Name: "c", Model: ms, Variants: []CampaignVariant{
		{Name: "ok", Scenario: &Scenario{Name: "s", Seed: 3}},
		{Name: "hollow", Scenario: &Scenario{Name: "s"}, Seeds: []int64{}},
	}}
	_, err := c.normalizedVariants()
	if !errors.Is(err, ErrCampaign) {
		t.Fatalf("err = %v, want ErrCampaign", err)
	}
	if !strings.Contains(err.Error(), "hollow") {
		t.Errorf("err %q does not name the variant", err)
	}
	if !strings.Contains(err.Error(), "empty seed list") {
		t.Errorf("err %q does not explain the empty seed list", err)
	}
}

// TestPowerSolverStats pins the warm-path accounting of a forked range: the
// compiled root's prewarmed solver puts every solve of a fork on the cache
// hit path, Start's initial solve included, and opening a breaker costs
// exactly one topology rebuild.
func TestPowerSolverStats(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ms      func(*testing.T) *ModelSet
		breaker string // closed, with no device command that would re-close it
	}{
		{"EPIC", epicModelSet, "CBMicro"},
		{"5x20", func(t *testing.T) *ModelSet {
			ms := scaleModelSet(t, 5, 20)
			ms.PowerConfig.Steps = nil // no overloads, so no protection trips
			return ms
		}, "S1_CB1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root, err := Compile(tc.ms(t))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(root.Stop)
			r, err := root.Fork()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Stop)
			if err := r.Start(context.Background(), false); err != nil {
				t.Fatal(err)
			}
			now := time.Unix(1700000000, 0)
			step := func() {
				t.Helper()
				now = now.Add(r.Interval())
				if err := r.StepAll(now); err != nil {
					t.Fatal(err)
				}
			}
			const k = 5
			for i := 0; i < k; i++ {
				step()
			}
			if hits, misses, fails := r.PowerSolverStats(); hits != k+1 || misses != 0 || fails != 0 {
				t.Fatalf("after Start and %d steps: hits/misses/failures = %d/%d/%d, want %d/0/0", k, hits, misses, fails, k+1)
			}

			open := OpenBreaker(tc.breaker)
			ev, err := EventSpec{Kind: open.Kind, Element: open.Element, Value: open.Value}.SimEvent()
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Sim.Apply(ev); err != nil {
				t.Fatal(err)
			}
			step()
			if hits, misses, fails := r.PowerSolverStats(); hits != k+1 || misses != 1 || fails != 0 {
				t.Fatalf("after opening %s: hits/misses/failures = %d/%d/%d, want %d/1/0", open.Element, hits, misses, fails, k+1)
			}
		})
	}
}
