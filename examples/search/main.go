// Coverage-guided scenario search: hunt the scenario space around a benign
// seed for interesting outcomes — here, the EPIC IDS's Modbus blind spot.
//
// The seed scenario deploys the IDS and nudges one load; nothing in it is an
// attack. The searcher mutates it (event insertion/deletion, trigger jitter,
// target permutation drawn from the compiled model's inventory), runs every
// candidate on a fork of one compiled range, and scores the reports with
// interestingness oracles. The missed-detection oracle flags the blind spot:
// the sensor inspects MMS control writes (port 102), ARP, GOOSE and port
// scans — but a ModbusTamper reaches a PLC over port 502 unseen, so its
// injected ground truth can never be detected. Each find is delta-debugged to
// a minimal reproducing <Scenario> XML whose replay fingerprint is pinned.
//
// Everything is deterministic: a fixed (model, seed scenario, search seed,
// budget) reproduces the same finds, minimized repros and fingerprints
// regardless of worker count or provisioning path. The same
// search runs from the command line:
//
//	rangectl search models/epic examples/search/seed.scenario.xml -search-seed 3 -budget 16
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	sgml "repro"
)

func main() {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		log.Fatal(err)
	}
	seed, err := sgml.LoadScenarioFile("examples/search/seed.scenario.xml")
	if err != nil {
		log.Fatal(err)
	}

	res, err := sgml.Search(context.Background(), ms, seed, sgml.SearchOptions{
		SearchSeed: 3,
		Budget:     16,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("searched %d candidates (%d novel behaviours, %d runs): %d find(s)\n",
		res.Candidates, res.Novel, res.Runs, len(res.Finds))
	for _, f := range res.Finds {
		fmt.Printf("\n== %s (found at candidate %d, minimized to %d event(s)) ==\n  %s\n",
			f.Oracle, f.FoundAt, f.Events, f.Detail)
	}

	// A find is a self-contained repro: its XML re-parses and replays to the
	// pinned fingerprint under the recorded step cap.
	for _, f := range res.Finds {
		if f.Oracle != "missed-detection" {
			continue
		}
		fmt.Printf("\nminimized blind-spot repro:\n%s", f.XML)
		sc, err := sgml.ParseScenario(f.XML)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sgml.Run(context.Background(), ms, sc, sgml.WithMaxSteps(f.MaxSteps))
		if err != nil {
			log.Fatal(err)
		}
		if rep.Fingerprint() != f.Fingerprint {
			fmt.Println("replay diverged from the pinned fingerprint")
			os.Exit(1)
		}
		fmt.Println("\nreplay reproduced the pinned fingerprint")
	}
}
