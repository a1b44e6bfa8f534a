// Man-in-the-middle case study (Fig 6 of the paper).
//
// "Typically MITM attack is mounted by using ARP spoofing. This confuses the
// mapping between a device's logical (IP) address and physical address.
// Using ARP spoofing, an attacker can mislead the traffic to itself for
// interception and manipulation. As a consequence, the attacker could
// possibly mislead the SCADA HMI or the PLC to confuse the plant control."
//
// The attacker poisons the ARP caches of the CPLC and TIED1, inserts itself
// on the path, and rewrites every MMS float measurement in flight — halving
// the voltage the PLC reports to SCADA while the real grid is healthy.
// This example drives the attack interactively through the public red-team
// facades (repro/attack, repro/netem); the scenario DSL expresses the same
// MITM declaratively (sgml.StartMITM — see examples/redblue).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sgml "repro"

	"repro/attack"
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

	// The attacker sits on the control LAN (between CPLC and the WAN path
	// to TIED1) — any switch on the victim path works for ARP spoofing.
	attacker, err := r.Built.AttachHost("attacker",
		netem.MustMAC("02:ba:d0:00:00:99"), netem.MustIPv4("10.0.1.99"), "sw-ControlLAN")
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
	step(3)

	vp, _ := r.HMI.Point("DP_MainVoltage")
	fmt.Printf("before MITM: SCADA reads MainVoltage = %.4f pu (true grid value)\n", vp.Value)

	// --- mount the MITM ----------------------------------------------------
	m := attack.NewMITM(attacker, r.Built.AddrOf["CPLC"], r.Built.AddrOf["TIED1"])
	m.SetPayloadTamper(attack.ScaleMMSFloats(0.5)) // Fig 6: falsify the measurement
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := m.Start(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nARP caches poisoned; attacker forwarding with measurement rewrite (x0.5)")
	time.Sleep(50 * time.Millisecond)
	step(10) // one poll period of CPLC (1000 ms), so SCADA reads it again

	vp, _ = r.HMI.Point("DP_MainVoltage")
	fmt.Printf("during MITM: SCADA reads MainVoltage = %.4f pu (falsified!)\n", vp.Value)
	fmt.Printf("             true grid value is %.4f pu\n",
		r.Sim.LastResult().Buses["EPIC/VL22/TransBay/MainBus"].VmPU)
	fwd, mod, drop := m.Stats()
	fmt.Printf("attacker stats: %d packets forwarded, %d modified, %d dropped\n", fwd, mod, drop)
	fmt.Println("\noperator view (under-voltage alarm from falsified data):")
	fmt.Println(r.HMI.StatusPanel())

	// The spoofing leaves a detectable footprint on the victims.
	cplc := r.Built.Hosts["CPLC"]
	fmt.Printf("IDS footprint: CPLC observed %d unsolicited ARP replies\n", len(cplc.UnsolicitedARPs()))

	// --- withdraw ----------------------------------------------------------
	m.Stop()
	time.Sleep(50 * time.Millisecond)
	step(10)
	vp, _ = r.HMI.Point("DP_MainVoltage")
	fmt.Printf("\nafter heal: SCADA reads MainVoltage = %.4f pu again\n", vp.Value)
}
