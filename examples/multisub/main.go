// Multi-substation scalability demonstration (§IV-A).
//
// "Based on our experiments, a commodity desktop PC with Intel Core i9
// Processor and 16GB RAM can host a 5-substation model including 104 virtual
// IEDs with 100ms power flow simulation interval."
//
// This example compiles the 5-substation / 105-IED scale model (5 gateways +
// 100 feeder IEDs), runs it in real time for a few seconds and reports
// whether every step held the 100 ms budget.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sgml "repro"
)

func main() {
	const subs, feeders = 5, 20
	ms, totalIEDs, err := sgml.ScaleModelSet(subs, feeders)
	if err != nil {
		log.Fatal(err)
	}
	compileStart := time.Now()
	r, err := sgml.Compile(ms)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Stop()
	compileTime := time.Since(compileStart)
	fmt.Printf("compiled %d-substation model: %d virtual IEDs in %v\n", subs, totalIEDs, compileTime)
	fmt.Printf("power model: %d buses, %d lines (%d inter-substation ties)\n",
		len(r.Grid.Buses), len(r.Grid.Lines), subs-1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startAt := time.Now()
	if err := r.Start(ctx, true); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range started in %v; running 3 s of real time at %v interval...\n",
		time.Since(startAt), r.Interval())
	time.Sleep(3 * time.Second)
	r.Stop()

	st := r.RealTimeStats()
	fmt.Printf("\nreal time: %d steps, %d overruns, %d failed, max step %v (budget %v)\n",
		st.Steps, st.Overruns, st.Failures, st.MaxStep, r.Interval())
	if st.Overruns == 0 {
		fmt.Println("==> the 100 ms power-flow interval HOLDS for 5 substations /", totalIEDs, "IEDs")
	} else {
		fmt.Println("==> budget exceeded")
	}
	var totalIEDSteps uint64
	for _, dev := range r.IEDs {
		totalIEDSteps += dev.Steps()
	}
	fmt.Printf("virtual IEDs: %d protection evaluations across %d devices\n", totalIEDSteps, len(r.IEDs))
	res := r.Sim.LastResult()
	fmt.Printf("grid: converged=%v, %d island(s), %d dead bus(es)\n",
		res.Converged, res.Islands, res.DeadBuses)
}
