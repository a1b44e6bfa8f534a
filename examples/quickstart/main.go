// Quickstart: generate the EPIC demonstration model, compile it into a cyber
// range, run a few simulation intervals and read the grid through the SCADA
// HMI — the full Fig 2 workflow in ~40 lines of API usage.
//
// This is the manual-driving workflow; for declarative, reproducible
// experiments (attack drills with IDS scoring, fault scenarios) see
// sgml.Run and the Scenario DSL, demonstrated in examples/redblue.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sgml "repro"
)

func main() {
	// 1. Generate (or load) the SG-ML model. Operators would call
	//    sgml.LoadModelDir with their own SCL + supplementary XML files.
	ms, err := sgml.EPICModelSet()
	if err != nil {
		log.Fatal(err)
	}

	// 2. "Compile" the model into an operational cyber range.
	r, err := sgml.Compile(ms)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Stop()
	fmt.Printf("compiled EPIC range: %d virtual IEDs, %d PLCs\n\n", len(r.IEDs), len(r.PLCs))
	fmt.Println(r.PowerSummary())

	// 3. Start the devices (step-driven mode for deterministic output).
	if err := r.Start(context.Background(), false); err != nil {
		log.Fatal(err)
	}

	// 4. Advance the coupled simulation a few 100 ms intervals.
	now := time.Now()
	for i := 0; i < 5; i++ {
		now = now.Add(r.Interval())
		if err := r.StepAll(now); err != nil {
			log.Fatal(err)
		}
	}

	// 5. Observe the grid exactly as an operator would.
	fmt.Println(r.HMI.StatusPanel())

	// 6. Issue a control action: open the tie breaker via the PLC...
	if err := r.HMI.Control("DP_ManualTrip", 1); err != nil {
		log.Fatal(err)
	}
	// ...and step 2 s, so the HMI, which reads each data source at its
	// configured period (at most 2000 ms on EPIC), has read every one again.
	for i := 0; i < 20; i++ {
		now = now.Add(r.Interval())
		if err := r.StepAll(now); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("after manual trip:")
	fmt.Println(r.HMI.StatusPanel())

	res := r.Sim.LastResult()
	fmt.Printf("grid state: %d island(s), %d de-energised bus(es)\n", res.Islands, res.DeadBuses)
}
