// Seed-sweep campaign: the population form of a scenario experiment.
//
// A single sgml.Run answers "what happens in this drill with seed 7?"; real
// IDS evaluation needs distributions — how do precision, recall and alert
// latency behave across many seeds, and does a repeated seed reproduce its
// outcome? This example declares a Campaign with two variants of the same
// red/blue drill:
//
//   - "sweep": the drill swept over four seeds,
//   - "repeat": two seeds × two attempts each, a determinism probe
//     (repeated seeds must reproduce identical fingerprints).
//
// RunCampaign executes all eight runs concurrently on a bounded worker pool
// and aggregates the per-variant distributions plus the determinism verdict.
// The model is compiled once into a root range; every run forks that root
// (CyberRange.Fork) into a private, isolated range instead of recompiling —
// the immutable artifacts (parsed SCL, power model, device configs, prewarmed
// solver) are shared read-only, everything mutable is per-fork. A preview run
// goes through the same machinery explicitly via Compile + RunCompiled.
//
// The second half of the example makes the sweep durable: the same campaign
// runs again with sgml.WithStore, is interrupted mid-flight (a RunSink
// cancels the context after two completed runs — the in-process stand-in for
// kill -9), and is then resumed with sgml.WithResume. The resumed report
// restores the already-persisted cells without re-executing them, seals the
// sweep under a Merkle root, and sgml.VerifyStore re-derives that root from
// the bytes on disk.
//
// The same sweep in declarative form lives next to this file
// (sweep.campaign.xml + drill.scenario.xml) and runs headlessly with:
//
//	go run ./cmd/sclgen -out models/epic
//	go run ./cmd/rangectl campaign run models/epic examples/seedsweep/sweep.campaign.xml \
//	  -store results/
//	go run ./cmd/rangectl campaign verify results/
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync/atomic"

	sgml "repro"

	"repro/mms"
	"repro/netem"
)

// interruptSink cancels the campaign after `after` completed runs have been
// delivered — simulating a sweep killed mid-flight.
type interruptSink struct {
	cancel context.CancelFunc
	after  int32
	n      int32
}

func (s *interruptSink) Put(sgml.CampaignRun) error {
	if atomic.AddInt32(&s.n, 1) == s.after {
		s.cancel()
	}
	return nil
}

func main() {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		log.Fatal(err)
	}

	// The drill under study: deploy the IDS, run recon, chain a false
	// command injection off the port-scan alert.
	drill := &sgml.Scenario{
		Name:  "seedsweep-drill",
		Steps: 10,
		Attackers: []sgml.AttackerSpec{
			{Name: "redbox", Switch: "sw-TransLAN", IP: netem.MustIPv4("10.0.1.13")},
		},
		Events: []sgml.Event{
			{Name: "blue", Trigger: sgml.At(0), Action: sgml.DeployIDS{
				AuthorizedWriters: []string{"SCADA", "CPLC"}, PortScanThreshold: 5}},
			{Name: "recon", Trigger: sgml.At(2), Action: sgml.PortScan{
				Attacker: "redbox", Target: "TIED1"}},
			{Name: "fci", Trigger: sgml.OnAlert(sgml.AlertPortScan).Plus(1), Action: sgml.FalseCommand{
				Attacker: "redbox", Target: "TIED1",
				Ref: "LD0/XCBR1.Pos.Oper", Value: mms.NewBool(false)}},
		},
	}

	// Compile once; the campaign below reuses the same pipeline internally.
	// A single preview run via RunCompiled sanity-checks the drill (and warms
	// nothing the campaign wouldn't warm itself): the root stays pristine, the
	// run executes on a fork that is stopped when RunCompiled returns.
	cr, err := sgml.Compile(ms)
	if err != nil {
		log.Fatal(err)
	}
	defer cr.Stop()
	preview, err := sgml.RunCompiled(context.Background(), cr, drill)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preview run: %d steps, precision=%.2f recall=%.2f\n\n",
		preview.Steps, preview.Precision, preview.Recall)

	campaign := &sgml.Campaign{
		Name:  "seedsweep",
		Model: ms,
		Variants: []sgml.CampaignVariant{
			{Name: "sweep", Scenario: drill, Seeds: []int64{1, 2, 3, 4}},
			{Name: "repeat", Scenario: drill, Seeds: []int64{1, 2}, Repeat: 2},
		},
	}

	rep, err := sgml.RunCampaign(context.Background(), campaign, sgml.WithWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep)

	// Drill into the population: the per-run records carry the full
	// RunReports, so any outlier is one index away.
	for _, run := range rep.Runs {
		fmt.Printf("run %s seed=%d attempt=%d fp=%s precision=%.2f recall=%.2f\n",
			run.Variant, run.Seed, run.Attempt, run.Fingerprint, run.Precision, run.Recall)
	}

	if !rep.OK() {
		fmt.Println("\ncampaign had failures or determinism mismatches")
		os.Exit(1)
	}
	fmt.Println("\nall runs clean; repeated seeds reproduced identical fingerprints")

	// --- Durable sweep: store, interrupt, resume, verify -------------------
	//
	// Run the same campaign into an append-only store and kill it after two
	// completed runs. Every finished cell is already fsync'd, so nothing is
	// lost; the interrupted sweep simply is not sealed yet.
	storeDir, err := os.MkdirTemp("", "seedsweep-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(storeDir)

	ctx, cancelSweep := context.WithCancel(context.Background())
	defer cancelSweep()
	sink := &interruptSink{cancel: cancelSweep, after: 2}
	interrupted, err := sgml.RunCampaign(ctx, campaign,
		sgml.WithWorkers(2), sgml.WithStore(storeDir), sgml.WithRunSink(sink))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninterrupted sweep: %d/%d cells persisted before the kill\n",
		interrupted.TotalRuns-interrupted.Failures, interrupted.TotalRuns)

	// Resume from the store: persisted cells are restored (and marked
	// Resumed), only the missing ones execute, and the complete sweep is
	// sealed under a Merkle root over every run fingerprint.
	resumed, err := sgml.RunCampaign(context.Background(), campaign,
		sgml.WithWorkers(2), sgml.WithStore(storeDir), sgml.WithResume())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed sweep: %d cells restored from the store, %d executed\n",
		resumed.Resumed, resumed.TotalRuns-resumed.Resumed)
	fmt.Printf("merkle root: %s\n", resumed.MerkleRoot)
	if !resumed.OK() || resumed.MerkleRoot == "" {
		fmt.Println("resumed sweep not clean/sealed")
		os.Exit(1)
	}

	// Independent audit: re-derive the root from the bytes on disk. Any
	// flipped byte, dropped record or forged report fails this check.
	audits, err := sgml.VerifyStore(storeDir)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range audits {
		if a.Root != resumed.MerkleRoot {
			fmt.Printf("store root %s != report root %s\n", a.Root, resumed.MerkleRoot)
			os.Exit(1)
		}
		fmt.Printf("store verified: %s (%d runs) root matches\n", a.Campaign, a.Runs)
	}
}
