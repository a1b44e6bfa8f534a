package ids

import (
	"context"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/goose"
	"repro/internal/kvbus"
	"repro/internal/mms"
	"repro/internal/netem"
	"repro/internal/sgmlconf"

	iedpkg "repro/internal/ied"
)

// rig: IED + legit client + attacker on one switch, sensor attached.
type rig struct {
	net      *netem.Network
	iedHost  *netem.Host
	client   *netem.Host
	attacker *netem.Host
	sensor   *Sensor
	ied      *iedpkg.IED
}

func newRig(t *testing.T) *rig {
	t.Helper()
	n := netem.NewNetwork()
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
	iedHost := mk("ied", 1)
	client := mk("plc", 2)
	attacker := mk("attacker", 3)
	for i, h := range []*netem.Host{iedHost, client, attacker} {
		if _, err := n.Connect(h.Name(), 0, "sw", i, 0); err != nil {
			t.Fatal(err)
		}
	}
	sensor := New(Options{
		AuthorizedWriters: []netem.IPv4{client.IP()},
		PortScanThreshold: 5,
	})
	sensor.Attach(n)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	bus := kvbus.New()
	entry := &sgmlconf.IEDEntry{
		Name: "IED", Substation: "s",
		Measures: []sgmlconf.Measure{{Point: "busVoltage", Element: "Bus"}},
		Controls: []sgmlconf.Control{{Breaker: "CB"}},
	}
	dev, err := iedpkg.New(iedHost, bus, iedpkg.Config{Name: "IED", Substation: "s", Entry: entry})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Serve(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dev.Stop)
	return &rig{net: n, iedHost: iedHost, client: client, attacker: attacker, sensor: sensor, ied: dev}
}

func TestDetectsARPSpoofing(t *testing.T) {
	r := newRig(t)
	// Legit traffic populates the sensor's IP->MAC view.
	cli, err := mms.Dial(r.client, r.iedHost.IP(), 0, mms.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli.Read(iedpkg.RefVoltage())
	cli.Close()

	m := attack.NewMITM(r.attacker, r.client.IP(), r.iedHost.IP())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	time.Sleep(50 * time.Millisecond)

	alerts := r.sensor.AlertsOf(AlertARPSpoof)
	if len(alerts) == 0 {
		t.Fatal("ARP spoofing undetected")
	}
	if alerts[0].Source != r.attacker.MAC().String() {
		t.Errorf("alert source = %s, want attacker MAC", alerts[0].Source)
	}
}

func TestNoFalsePositiveOnLegitARP(t *testing.T) {
	r := newRig(t)
	// Plain resolution both ways.
	if _, err := r.client.ResolveARP(r.iedHost.IP(), time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := r.iedHost.ResolveARP(r.client.IP(), time.Second); err != nil {
		t.Fatal(err)
	}
	if alerts := r.sensor.AlertsOf(AlertARPSpoof); len(alerts) != 0 {
		t.Errorf("false positives: %+v", alerts)
	}
}

func TestDetectsUnauthorizedMMSWrite(t *testing.T) {
	r := newRig(t)
	// Authorized client writes: no alert.
	cli, err := mms.Dial(r.client, r.iedHost.IP(), 0, mms.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Write(iedpkg.RefBreakerOper(1), mms.NewBool(true)); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if alerts := r.sensor.AlertsOf(AlertUnauthorizedWrite); len(alerts) != 0 {
		t.Fatalf("authorized write alerted: %+v", alerts)
	}
	// Attacker injects: alert.
	fci := attack.NewFCI(r.attacker)
	if err := fci.InjectCommand(r.iedHost.IP(), 0, iedpkg.RefBreakerOper(1), mms.NewBool(false)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	alerts := r.sensor.AlertsOf(AlertUnauthorizedWrite)
	if len(alerts) == 0 {
		t.Fatal("FCI write undetected")
	}
	if alerts[0].Source != r.attacker.IP().String() {
		t.Errorf("alert source = %s", alerts[0].Source)
	}
	// Reads from the attacker are not write alerts.
	before := len(r.sensor.AlertsOf(AlertUnauthorizedWrite))
	if _, err := fci.Enumerate(r.iedHost.IP(), 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if after := len(r.sensor.AlertsOf(AlertUnauthorizedWrite)); after != before {
		t.Error("read-only enumeration raised a write alert")
	}
}

func TestDetectsPortScan(t *testing.T) {
	r := newRig(t)
	attack.ScanPorts(r.attacker, r.iedHost.IP(), []uint16{21, 22, 23, 80, 443, 502, 2404, 20000})
	time.Sleep(20 * time.Millisecond)
	alerts := r.sensor.AlertsOf(AlertPortScan)
	if len(alerts) != 1 {
		t.Fatalf("port-scan alerts = %d, want 1 (deduplicated)", len(alerts))
	}
	if alerts[0].Source != r.attacker.IP().String() {
		t.Errorf("source = %s", alerts[0].Source)
	}
}

func TestDetectsGooseReplay(t *testing.T) {
	r := newRig(t)
	pub := goose.NewPublisher(r.client, goose.PublisherConfig{
		GocbRef: "IEDLD0/LLN0$GO$gcb1", AppID: 0x0001,
	})
	now := time.Unix(1_700_000_000, 0)
	pub.Publish(now, mms.NewBool(true))
	pub.Publish(now, mms.NewBool(false)) // stNum 2
	time.Sleep(150 * time.Millisecond)   // beyond the replay grace window
	if alerts := r.sensor.AlertsOf(AlertGooseAnomaly); len(alerts) != 0 {
		t.Fatalf("legit GOOSE alerted: %+v", alerts)
	}
	// Replay: attacker re-emits a frame with an old stNum.
	replay := goose.Marshal(0x0001, goose.Message{
		GocbRef: "IEDLD0/LLN0$GO$gcb1", GoID: "gcb1", StNum: 1, SqNum: 0,
		TTLMillis: 2000, ConfRev: 1, Timestamp: time.Now(),
		Values: []mms.Value{mms.NewBool(true)},
	})
	r.attacker.SendFrame(netem.Frame{
		Dst: netem.GooseMAC(0x0001), Src: r.attacker.MAC(),
		EtherType: netem.EtherTypeGOOSE, Payload: replay,
	})
	time.Sleep(20 * time.Millisecond)
	alerts := r.sensor.AlertsOf(AlertGooseAnomaly)
	if len(alerts) == 0 {
		t.Fatal("GOOSE replay undetected")
	}
	if alerts[0].Source != r.attacker.MAC().String() {
		t.Errorf("source = %s", alerts[0].Source)
	}
}

func TestSensorCountsFrames(t *testing.T) {
	r := newRig(t)
	if _, err := r.client.ResolveARP(r.iedHost.IP(), time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if r.sensor.Frames() == 0 {
		t.Error("sensor saw no frames")
	}
}
