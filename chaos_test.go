package sgml_test

import (
	"context"
	"strings"
	"testing"
	"time"

	sgml "repro"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/store"
)

// chaosStoreOpener opens the durable JSONL store under dir with the plan's
// append faults hooked in — the internal/core shape of sgml.WithStore, which
// the chaos tests need because the public opener has no injection seam.
func chaosStoreOpener(dir string, plan *faultinject.Plan) sgml.CampaignOption {
	return core.WithCampaignStore(func(c *core.Campaign) (core.CampaignStore, error) {
		s, err := store.OpenJSONL(dir, c)
		if err != nil {
			return nil, err
		}
		s.SetAppendHook(plan.AppendHook())
		return s, nil
	})
}

// TestCampaignChaosDifferential is the headline fault-tolerance guarantee: a
// sweep executed under an aggressive fault plan — a mid-run panic, a run
// wedged past its deadline, a failed store append — with retries enabled
// produces a fingerprint map and a Merkle root byte-identical to the same
// sweep run with no faults at all, across both provisioning paths. Faults are
// noise the engine absorbs; results remain a pure function of
// (model, scenario, seed).
func TestCampaignChaosDifferential(t *testing.T) {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string][]sgml.CampaignOption{
		"forked":          nil,
		"per-run-compile": {sgml.WithPerRunCompile()},
	}
	for name, extra := range paths {
		t.Run(name, func(t *testing.T) {
			// Clean baseline, sealed into its own store.
			baseDir := t.TempDir()
			opts := append([]sgml.CampaignOption{sgml.WithWorkers(2), sgml.WithStore(baseDir)}, extra...)
			base, err := sgml.RunCampaign(context.Background(), storeSweep(ms), opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !base.OK() || base.MerkleRoot == "" {
				t.Fatalf("baseline not clean/sealed:\n%s", base)
			}
			baseFPs := fingerprintMap(t, base)

			// Chaotic run: panic in sweep:3:1 step 2, sweep:5:1 wedged
			// at step 1 until its deadline kills it, and the sweep's second
			// store append fails once. All first-attempt faults; WithRetries
			// must recover every one of them.
			plan := faultinject.NewPlan(1).
				PanicRun("sweep", 3, 1, 2).
				DelayRun("sweep", 5, 1, 1).
				FailStoreAppends(2)
			chaosDir := t.TempDir()
			opts = append([]sgml.CampaignOption{
				sgml.WithWorkers(2),
				sgml.WithRetries(2),
				sgml.WithRunTimeout(3 * time.Second),
				core.WithRunProbe(plan.Probe()),
				chaosStoreOpener(chaosDir, plan),
			}, extra...)
			chaotic, err := sgml.RunCampaign(context.Background(), storeSweep(ms), opts...)
			if err != nil {
				t.Fatal(err)
			}

			// The chaos actually happened.
			if plan.PanicsFired() == 0 || plan.DelaysFired() == 0 || plan.StoreFailsFired() == 0 {
				t.Fatalf("fault plan incomplete: panics=%d delays=%d storeFails=%d",
					plan.PanicsFired(), plan.DelaysFired(), plan.StoreFailsFired())
			}

			// ...and was fully absorbed.
			if chaotic.Failures != 0 {
				t.Fatalf("chaotic sweep kept %d failures:\n%s", chaotic.Failures, chaotic)
			}
			if chaotic.StoreDegraded {
				t.Fatalf("chaotic sweep degraded its store: %s", chaotic.StoreErr)
			}
			if chaotic.Retried < 2 {
				t.Fatalf("Retried = %d, want the panicked and wedged cells retried", chaotic.Retried)
			}

			// Retry history records what each recovered cell survived.
			classified := map[sgml.RunFailure]bool{}
			for i := range chaotic.Runs {
				for _, h := range chaotic.Runs[i].Retries {
					classified[h.Failure] = true
				}
			}
			if !classified[sgml.FailPanic] || !classified[sgml.FailTimeout] {
				t.Errorf("retry histories missing classifications: %v", classified)
			}

			// The differential: byte-identical fingerprints and Merkle root.
			chaosFPs := fingerprintMap(t, chaotic)
			if len(chaosFPs) != len(baseFPs) {
				t.Fatalf("chaotic sweep has %d fingerprints, baseline %d", len(chaosFPs), len(baseFPs))
			}
			for k, fp := range baseFPs {
				if chaosFPs[k] != fp {
					t.Errorf("run %s: chaotic fingerprint %s != baseline %s", k, chaosFPs[k], fp)
				}
			}
			if chaotic.MerkleRoot != base.MerkleRoot {
				t.Fatalf("chaotic Merkle root %s != baseline %s", chaotic.MerkleRoot, base.MerkleRoot)
			}
			vs, err := sgml.VerifyStore(chaosDir)
			if err != nil {
				t.Fatalf("chaotic store verify: %v", err)
			}
			if vs[0].Root != base.MerkleRoot {
				t.Fatalf("chaotic store root %s != baseline %s", vs[0].Root, base.MerkleRoot)
			}
		})
	}
}

// TestCampaignChaosPanicWithoutRetries pins the bare isolation guarantee: an
// injected panic with retries disabled becomes a classified failed run with
// its stack on the record — the process survives, the sweep completes, and
// the attached store stays unsealed for a later resume.
func TestCampaignChaosPanicWithoutRetries(t *testing.T) {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(1).PanicRun("sweep", 2, 1, 1)
	dir := t.TempDir()
	rep, err := sgml.RunCampaign(context.Background(), storeSweep(ms),
		sgml.WithWorkers(2),
		core.WithRunProbe(plan.Probe()),
		chaosStoreOpener(dir, plan))
	if err != nil {
		t.Fatal(err)
	}
	if plan.PanicsFired() != 1 {
		t.Fatalf("panic fired %d times, want 1", plan.PanicsFired())
	}
	if rep.Failures != 1 {
		t.Fatalf("Failures = %d, want exactly the panicked run\n%s", rep.Failures, rep)
	}
	var bad *sgml.CampaignRun
	for i := range rep.Runs {
		if rep.Runs[i].Err != "" {
			bad = &rep.Runs[i]
		}
	}
	if bad == nil || bad.Variant != "sweep" || bad.Seed != 2 {
		t.Fatalf("wrong failed run: %+v", bad)
	}
	if bad.Failure != sgml.FailPanic || !strings.Contains(bad.Err, "panic") {
		t.Errorf("failure = %q err = %q", bad.Failure, bad.Err)
	}
	if bad.PanicStack == "" {
		t.Error("failed run carries no panic stack")
	}
	if rep.MerkleRoot != "" {
		t.Error("failing sweep sealed a Merkle root")
	}
	if _, err := sgml.VerifyStore(dir); err == nil {
		t.Error("verify accepted the unsealed store of a failing sweep")
	}
	// The report renders the classification for operators.
	if !strings.Contains(rep.String(), "ERROR(panic)") {
		t.Errorf("report text lacks the failure class:\n%s", rep)
	}
}
