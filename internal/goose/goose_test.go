package goose

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mms"
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
		mac := netem.MAC{0x02, 0, 0, 0, 0, byte(i + 1)}
		ip := netem.IPv4{10, 0, 0, byte(i + 1)}
		h, err := netem.NewHost(n, string(rune('a'+i))+"-host", mac, ip)
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

func TestMarshalRoundTrip(t *testing.T) {
	msg := Message{
		GocbRef:   "GIED1LD0/LLN0$GO$gcb1",
		DatSet:    "GIED1LD0/LLN0$Status",
		GoID:      "gcb1",
		Timestamp: time.Unix(1_700_000_000, 250_000_000).UTC(),
		StNum:     7,
		SqNum:     3,
		TTLMillis: 2000,
		ConfRev:   1,
		Values:    []mms.Value{mms.NewBool(true), mms.NewInt(-5), mms.NewFloat(0.42)},
	}
	payload := Marshal(0x0001, msg)
	appID, got, err := Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if appID != 1 {
		t.Errorf("appID = %d", appID)
	}
	if got.GocbRef != msg.GocbRef || got.StNum != 7 || got.SqNum != 3 || got.ConfRev != 1 || got.TTLMillis != 2000 {
		t.Errorf("got %+v", got)
	}
	if len(got.Values) != 3 || !got.Values[0].Bool || got.Values[1].Int != -5 || got.Values[2].Float != 0.42 {
		t.Errorf("values = %v", got.Values)
	}
	if d := got.Timestamp.Sub(msg.Timestamp); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("timestamp drift %v", d)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00, 0x01},
		{0x00, 0x01, 0x00, 0x04, 0, 0, 0, 0}, // length < 8 content
		append([]byte{0x00, 0x01, 0x00, 0x0C, 0, 0, 0, 0}, 0x30, 0x02, 0x01, 0x01), // wrong tag
		append([]byte{0x00, 0x01, 0x00, 0x0A, 0, 0, 0, 0}, 0x61, 0x00),             // no gocbRef
	}
	for i, c := range cases {
		if _, _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
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

func TestRetransmissionSchedule(t *testing.T) {
	hb := time.Second
	prev := time.Duration(0)
	for n := 1; n <= 12; n++ {
		d := RetransmissionSchedule(n, hb)
		if d < prev {
			t.Errorf("schedule not monotonic at %d: %v < %v", n, d, prev)
		}
		if d > hb {
			t.Errorf("schedule exceeds heartbeat at %d: %v", n, d)
		}
		prev = d
	}
	if RetransmissionSchedule(1, hb) != 2*time.Millisecond {
		t.Error("first retransmission should be 2 ms")
	}
	if RetransmissionSchedule(100, hb) != hb {
		t.Error("schedule should cap at heartbeat")
	}
}

// epoch is the step clock the publisher tests run on.
var epoch = time.Unix(1_700_000_000, 0)

// nextUpdate reads the subscriber's next update or fails the test.
func nextUpdate(t *testing.T, sub *Subscriber) Update {
	t.Helper()
	select {
	case u := <-sub.Updates():
		return u
	case <-time.After(2 * time.Second):
		t.Fatal("no GOOSE update delivered")
		return Update{}
	}
}

func TestPublishSubscribe(t *testing.T) {
	_, hosts := testLAN(t, 3)
	pub := NewPublisher(hosts[0], PublisherConfig{
		GocbRef: "IED1LD0/LLN0$GO$gcb1", DatSet: "ds", GoID: "gcb1", AppID: 0x0001, ConfRev: 1,
	})
	sub1 := Subscribe(hosts[1], 0x0001)
	sub2 := Subscribe(hosts[2], 0x0001)

	pub.Publish(epoch, mms.NewBool(true))
	for _, sub := range []*Subscriber{sub1, sub2} {
		u := nextUpdate(t, sub)
		if !u.NewState {
			t.Error("first message not marked new state")
		}
		if u.Message.StNum != 1 || u.Message.SqNum != 0 {
			t.Errorf("st/sq = %d/%d", u.Message.StNum, u.Message.SqNum)
		}
		if len(u.Message.Values) != 1 || !u.Message.Values[0].Bool {
			t.Errorf("values = %v", u.Message.Values)
		}
	}
}

func TestRetransmissionsArriveWithSameStNum(t *testing.T) {
	_, hosts := testLAN(t, 2)
	pub := NewPublisher(hosts[0], PublisherConfig{GocbRef: "ref", AppID: 2})
	sub := Subscribe(hosts[1], 2)
	pub.Publish(epoch, mms.NewBool(false))
	// Step at each due time of the burst: 2 ms, then 4 ms later.
	pub.Step(epoch.Add(2 * time.Millisecond))
	pub.Step(epoch.Add(6 * time.Millisecond))

	if u := nextUpdate(t, sub); !u.NewState {
		t.Error("first frame not marked new state")
	}
	for want := uint32(1); want <= 2; want++ {
		u := nextUpdate(t, sub)
		if u.NewState {
			t.Errorf("retransmission %d marked new state", want)
		}
		if u.Message.StNum != 1 || u.Message.SqNum != want {
			t.Errorf("retransmission st/sq = %d/%d, want 1/%d", u.Message.StNum, u.Message.SqNum, want)
		}
	}
	if pub.Sent() != 3 {
		t.Errorf("sent = %d, want 3", pub.Sent())
	}
}

func TestStepRetransmitsOnlyWhenDue(t *testing.T) {
	_, hosts := testLAN(t, 2)
	pub := NewPublisher(hosts[0], PublisherConfig{GocbRef: "ref", AppID: 7})
	sub := Subscribe(hosts[1], 7)

	pub.Step(epoch) // nothing published yet: nothing to repeat
	pub.Publish(epoch, mms.NewInt(1))
	first := nextUpdate(t, sub)
	if first.Message.TTLMillis != 4 {
		t.Errorf("first TTL = %d ms, want 2 x the 2 ms first delay", first.Message.TTLMillis)
	}
	pub.Step(epoch.Add(time.Millisecond)) // before the 2 ms due time
	if pub.Sent() != 1 {
		t.Fatalf("sent = %d after an early Step, want 1", pub.Sent())
	}

	due := epoch.Add(2 * time.Millisecond)
	pub.Step(due)
	if pub.Sent() != 2 {
		t.Fatalf("sent = %d after the due Step, want 2", pub.Sent())
	}
	u := nextUpdate(t, sub)
	m := u.Message
	if u.NewState || m.StNum != first.Message.StNum || m.SqNum != first.Message.SqNum+1 {
		t.Errorf("retransmission new=%t st/sq = %d/%d, want false %d/%d",
			u.NewState, m.StNum, m.SqNum, first.Message.StNum, first.Message.SqNum+1)
	}
	if want := uint32(2 * RetransmissionSchedule(2, heartbeat) / time.Millisecond); m.TTLMillis != want {
		t.Errorf("retransmission TTL = %d ms, want %d", m.TTLMillis, want)
	}
	if d := m.Timestamp.Sub(due); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("retransmission timestamp = %v, want the step time %v", m.Timestamp, due)
	}

	pub.Step(due) // the next retransmission is 4 ms away
	if pub.Sent() != 2 {
		t.Errorf("sent = %d after a second Step at the same time, want 2", pub.Sent())
	}
}

func TestStateChangeBumpsStNum(t *testing.T) {
	_, hosts := testLAN(t, 2)
	pub := NewPublisher(hosts[0], PublisherConfig{GocbRef: "ref", AppID: 3})
	sub := Subscribe(hosts[1], 3)
	pub.Publish(epoch, mms.NewBool(false))
	pub.Publish(epoch, mms.NewBool(true))

	var stNums []uint32
	for len(stNums) < 2 {
		if u := nextUpdate(t, sub); u.NewState {
			stNums = append(stNums, u.Message.StNum)
		}
	}
	if stNums[0] != 1 || stNums[1] != 2 {
		t.Errorf("stNums = %v", stNums)
	}
	if pub.StNum() != 2 {
		t.Errorf("publisher StNum = %d", pub.StNum())
	}
}

func TestSubscriberIgnoresOtherAppIDs(t *testing.T) {
	_, hosts := testLAN(t, 2)
	pub := NewPublisher(hosts[0], PublisherConfig{GocbRef: "ref", AppID: 5})
	sub := Subscribe(hosts[1], 6) // different group
	pub.Publish(epoch, mms.NewBool(true))
	select {
	case u := <-sub.Updates():
		t.Fatalf("unexpected delivery %+v", u)
	case <-time.After(50 * time.Millisecond):
	}
}
