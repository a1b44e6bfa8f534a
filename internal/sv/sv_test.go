package sv

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netem"
)

func testLAN(t *testing.T, hosts int) (*netem.Network, []*netem.Host) {
	t.Helper()
	n := netem.NewNetwork()
	if _, err := netem.NewSwitch(n, "sw", hosts+1); err != nil {
		t.Fatal(err)
	}
	out := make([]*netem.Host, hosts)
	for i := 0; i < hosts; i++ {
		h, err := netem.NewHost(n, string(rune('a'+i))+"-host",
			netem.MAC{0x02, 0, 0, 0, 0, byte(i + 1)}, netem.IPv4{10, 0, 0, byte(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Connect(h.Name(), 0, "sw", i, 0); err != nil {
			t.Fatal(err)
		}
		out[i] = h
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n, out
}

// rsvPair streams R-SV from hosts[0] to a subscriber on hosts[1].
func rsvPair(t *testing.T, hosts []*netem.Host, cfg PublisherConfig, src SourceFunc) (*Publisher, *Subscriber) {
	t.Helper()
	sub, err := SubscribeR(hosts[1], cfg.AppID)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	pub, err := NewRPublisher(hosts[0], cfg, []netem.IPv4{hosts[1].IP()}, src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pub.Stop)
	return pub, sub
}

// epoch is the step clock the stream tests publish on.
var epoch = time.Unix(1_700_000_000, 0)

// pollSamples polls sub until n samples have arrived, failing the test after
// 2 s. The fabric delivers on its own goroutines, so the test yields to them
// between polls.
func pollSamples(t *testing.T, sub *Subscriber, n int) []Sample {
	t.Helper()
	var got []Sample
	deadline := time.Now().Add(2 * time.Second)
	for len(got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d samples delivered", len(got), n)
		}
		sub.Poll(func(s Sample) { got = append(got, s) })
		runtime.Gosched()
	}
	return got
}

func TestMarshalRoundTrip(t *testing.T) {
	s := Sample{
		SvID:    "GIED1MU01",
		SmpCnt:  4095,
		ConfRev: 2,
		Values:  []float64{0.123, -4.5, 1e6, 0},
		RefrTm:  time.Unix(1_700_000_000, 500_000_000).UTC(),
	}
	appID, got, err := Unmarshal(Marshal(0x4001, s))
	if err != nil {
		t.Fatal(err)
	}
	if appID != 0x4001 {
		t.Errorf("appID = 0x%04x", appID)
	}
	if got.SvID != s.SvID || got.SmpCnt != s.SmpCnt || got.ConfRev != s.ConfRev {
		t.Errorf("got %+v", got)
	}
	if len(got.Values) != 4 {
		t.Fatalf("values = %v", got.Values)
	}
	for i := range s.Values {
		if got.Values[i] != s.Values[i] {
			t.Errorf("value %d = %v, want %v", i, got.Values[i], s.Values[i])
		}
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	f := func(a, b, c float64, cnt uint16) bool {
		s := Sample{SvID: "x", SmpCnt: cnt, Values: []float64{a, b, c}, RefrTm: time.Unix(1, 0)}
		_, got, err := Unmarshal(Marshal(1, s))
		if err != nil || got.SmpCnt != cnt || len(got.Values) != 3 {
			return false
		}
		for i, v := range []float64{a, b, c} {
			if got.Values[i] != v && !(v != v && got.Values[i] != got.Values[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _, _ = Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x40, 0x01, 0x00, 0x02},
		append([]byte{0x40, 0x01, 0x00, 0x0C, 0, 0, 0, 0}, 0x30, 0x02, 0x01, 0x01),
	}
	for i, c := range cases {
		if _, _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestStreamDelivery(t *testing.T) {
	_, hosts := testLAN(t, 2)
	current := []float64{0.1, 0.1, 0.1}
	pub, sub := rsvPair(t, hosts, PublisherConfig{SvID: "MU01", AppID: 0x4000},
		func() []float64 { return append([]float64(nil), current...) })

	// Each PublishNow sends one sample of the source's values at that step,
	// stamped with the step time; a source change shows in the next step's
	// sample.
	pub.PublishNow(epoch)
	first := pollSamples(t, sub, 1)[0]
	if first.SvID != "MU01" || len(first.Values) != 3 || first.Values[0] != 0.1 {
		t.Errorf("first sample = %+v", first)
	}
	if d := first.RefrTm.Sub(epoch); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("RefrTm = %v, want the step time %v", first.RefrTm, epoch)
	}
	current = []float64{9, 9, 9}
	pub.PublishNow(epoch.Add(100 * time.Millisecond))
	if s := pollSamples(t, sub, 1)[0]; s.Values[0] != 9 || s.SmpCnt != first.SmpCnt+1 {
		t.Errorf("second sample = %+v, want values 9 and smpCnt %d", s, first.SmpCnt+1)
	}
	received, lost := sub.Stats()
	if received != 2 || lost != 0 || pub.Sent() != 2 {
		t.Errorf("received=%d lost=%d sent=%d, want 2/0/2", received, lost, pub.Sent())
	}
}

func TestSmpCntIncrementsAndLossDetection(t *testing.T) {
	n, hosts := testLAN(t, 2)
	pub, sub := rsvPair(t, hosts, PublisherConfig{SvID: "MU02", AppID: 0x4001},
		func() []float64 { return []float64{1} })

	for i := 0; i < 5; i++ {
		pub.PublishNow(epoch.Add(time.Duration(i) * 100 * time.Millisecond))
	}
	got := pollSamples(t, sub, 5)
	for i := 1; i < len(got); i++ {
		if got[i].SmpCnt != got[i-1].SmpCnt+1 {
			t.Errorf("smpCnt jump %d -> %d", got[i-1].SmpCnt, got[i].SmpCnt)
		}
	}
	prev := got[len(got)-1]
	if received, lost := sub.Stats(); received != 5 || lost != 0 {
		t.Fatalf("received=%d lost=%d, want 5/0", received, lost)
	}

	// Pull the publisher's cable for one sample: the datagram dies on the
	// down link (ARP is resolved, so the drop happens inside PublishNow),
	// and the next sample's smpCnt shows the gap.
	link := n.LinkBetween(hosts[0].Name(), "sw")
	link.SetUp(false)
	pub.PublishNow(epoch.Add(500 * time.Millisecond))
	link.SetUp(true)
	pub.PublishNow(epoch.Add(600 * time.Millisecond))
	if s := pollSamples(t, sub, 1)[0]; s.SmpCnt != prev.SmpCnt+2 {
		t.Errorf("smpCnt after the gap = %d, want %d", s.SmpCnt, prev.SmpCnt+2)
	}
	if received, lost := sub.Stats(); received != 6 || lost != 1 {
		t.Errorf("received=%d lost=%d, want 6/1", received, lost)
	}
}

func TestRSVGatewayExchange(t *testing.T) {
	_, hosts := testLAN(t, 2)
	// Bidirectional differential-protection exchange: each gateway streams
	// its local current to the other.
	subA, err := SubscribeR(hosts[0], 0x4100)
	if err != nil {
		t.Fatal(err)
	}
	defer subA.Close()
	subB, err := SubscribeR(hosts[1], 0x4100)
	if err != nil {
		t.Fatal(err)
	}
	defer subB.Close()

	pubA, err := NewRPublisher(hosts[0], PublisherConfig{SvID: "GW-A", AppID: 0x4100},
		[]netem.IPv4{hosts[1].IP()}, func() []float64 { return []float64{0.351} })
	if err != nil {
		t.Fatal(err)
	}
	defer pubA.Stop()
	pubB, err := NewRPublisher(hosts[1], PublisherConfig{SvID: "GW-B", AppID: 0x4100},
		[]netem.IPv4{hosts[0].IP()}, func() []float64 { return []float64{0.349} })
	if err != nil {
		t.Fatal(err)
	}
	defer pubB.Stop()

	pubA.PublishNow(epoch)
	pubB.PublishNow(epoch)

	if s := pollSamples(t, subB, 1)[0]; s.SvID != "GW-A" || s.Values[0] != 0.351 {
		t.Errorf("B received %+v", s)
	}
	if s := pollSamples(t, subA, 1)[0]; s.SvID != "GW-B" || s.Values[0] != 0.349 {
		t.Errorf("A received %+v", s)
	}
	if pubA.Sent() != 1 || pubB.Sent() != 1 {
		t.Errorf("sent counts %d/%d", pubA.Sent(), pubB.Sent())
	}
}
