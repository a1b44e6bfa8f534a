package ids

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/goose"
	"repro/internal/mms"
	"repro/internal/netem"
)

// TestVerdictsIdenticalOnPooledAndReferencePaths drives the same attack
// traffic — GOOSE replay (stNum regression) plus an ARP spoof — over a
// pooled fabric and a reference (pooling-off) fabric and requires the
// sensor's verdicts to be identical, pinning the zero-allocation data plane
// to the legacy semantics.
func TestVerdictsIdenticalOnPooledAndReferencePaths(t *testing.T) {
	scenario := func(pooling bool) []string {
		n := netem.NewNetwork()
		n.SetFramePooling(pooling)
		if _, err := netem.NewSwitch(n, "sw", 4); err != nil {
			t.Fatal(err)
		}
		mk := func(name string, last byte) *netem.Host {
			h, err := netem.NewHost(n, name, netem.MAC{2, 0, 0, 0, 0, last}, netem.IPv4{10, 0, 0, last})
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		pub := mk("pub", 1)
		sub := mk("sub", 2)
		attacker := mk("attacker", 3)
		for i, h := range []*netem.Host{pub, sub, attacker} {
			if _, err := n.Connect(h.Name(), 0, "sw", i, 0); err != nil {
				t.Fatal(err)
			}
		}
		sensor := New(Options{})
		sensor.Attach(n)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Stop()

		// Legit GOOSE traffic on the pooled publisher path.
		gp := goose.NewPublisher(pub, goose.PublisherConfig{
			GocbRef: "g1", AppID: 0x0001,
		})
		gsub := goose.Subscribe(sub, 0x0001)
		for i := 0; i < 5; i++ {
			gp.Publish(time.Unix(1_700_000_000, 0), mms.NewBool(i%2 == 0))
		}
		waitCond(t, "legit goose", func() bool { return gsub.Received() >= 5 })
		awaitQuiet(t, sensor)

		// Replay an old state from the attacker after the flood-grace window.
		time.Sleep(150 * time.Millisecond)
		replay := goose.Marshal(0x0001, goose.Message{
			GocbRef: "g1", StNum: 1, Timestamp: time.Unix(0, 0),
			Values: []mms.Value{mms.NewBool(true)},
		})
		attacker.SendFrame(netem.Frame{
			Dst: netem.GooseMAC(0x0001), Src: attacker.MAC(),
			EtherType: netem.EtherTypeGOOSE, Payload: replay,
		})
		awaitQuiet(t, sensor)

		// ARP spoof: the attacker claims pub's IP. The legit binding must be
		// fully inspected (every flood hop) before the spoof flies, or the
		// interleaved hops raise a nondeterministic extra "reclaim" alert.
		legit := netem.ARPPacket{
			Op: netem.ARPReply, SenderMAC: pub.MAC(), SenderIP: pub.IP(),
			TargetMAC: sub.MAC(), TargetIP: sub.IP(),
		}
		pub.SendFrame(netem.Frame{Dst: sub.MAC(), Src: pub.MAC(),
			EtherType: netem.EtherTypeARP, Payload: legit.Marshal()})
		awaitQuiet(t, sensor)
		spoof := netem.ARPPacket{
			Op: netem.ARPReply, SenderMAC: attacker.MAC(), SenderIP: pub.IP(),
			TargetMAC: sub.MAC(), TargetIP: sub.IP(),
		}
		attacker.SendFrame(netem.Frame{Dst: sub.MAC(), Src: attacker.MAC(),
			EtherType: netem.EtherTypeARP, Payload: spoof.Marshal()})

		waitCond(t, "verdicts", func() bool {
			return len(sensor.AlertsOf(AlertGooseAnomaly)) >= 1 &&
				len(sensor.AlertsOf(AlertARPSpoof)) >= 1
		})
		awaitQuiet(t, sensor) // drain in-flight flood hops before snapshotting
		var out []string
		for _, a := range sensor.Alerts() {
			out = append(out, fmt.Sprintf("%s|%s|%s", a.Kind, a.Source, a.Detail))
		}
		return out
	}

	ref := scenario(false)
	pooled := scenario(true)
	if len(ref) != len(pooled) {
		t.Fatalf("alert count %d vs %d:\nref: %v\npooled: %v", len(ref), len(pooled), ref, pooled)
	}
	for i := range ref {
		if ref[i] != pooled[i] {
			t.Errorf("verdict %d differs:\nref:    %s\npooled: %s", i, ref[i], pooled[i])
		}
	}
}

// awaitQuiet waits until the sensor's inspected-frame count stops advancing
// (no tap crossing for 50 ms), so every in-flight flood hop has been
// inspected and alert state is deterministic.
func awaitQuiet(t *testing.T, sensor *Sensor) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	last := sensor.Frames()
	lastChange := time.Now()
	for {
		time.Sleep(5 * time.Millisecond)
		if now := sensor.Frames(); now != last {
			last, lastChange = now, time.Now()
		} else if time.Since(lastChange) > 50*time.Millisecond {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("fabric never went quiet")
		}
	}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
