package netem

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestParseMAC(t *testing.T) {
	tests := []struct {
		in    string
		want  MAC
		valid bool
	}{
		{"aa:bb:cc:dd:ee:ff", MAC{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF}, true},
		{"00-0c-cd-01-00-01", MAC{0x00, 0x0C, 0xCD, 0x01, 0x00, 0x01}, true},
		{"aa:bb:cc:dd:ee", MAC{}, false},
		{"zz:bb:cc:dd:ee:ff", MAC{}, false},
		{"", MAC{}, false},
	}
	for _, tt := range tests {
		got, err := ParseMAC(tt.in)
		if (err == nil) != tt.valid {
			t.Errorf("ParseMAC(%q) err = %v", tt.in, err)
			continue
		}
		if tt.valid && got != tt.want {
			t.Errorf("ParseMAC(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
	m := MustMAC("01:0c:cd:01:00:05")
	if !m.IsMulticast() {
		t.Error("GOOSE MAC not multicast")
	}
	if got := m.String(); got != "01:0c:cd:01:00:05" {
		t.Errorf("String() = %q", got)
	}
	if !BroadcastMAC.IsBroadcast() || !BroadcastMAC.IsMulticast() {
		t.Error("broadcast flags wrong")
	}
}

func TestParseIPv4(t *testing.T) {
	ip, err := ParseIPv4("192.168.1.10")
	if err != nil || ip != (IPv4{192, 168, 1, 10}) {
		t.Errorf("ParseIPv4 = %v, %v", ip, err)
	}
	if ip.String() != "192.168.1.10" {
		t.Errorf("String() = %q", ip.String())
	}
	for _, bad := range []string{"1.2.3", "256.1.1.1", "a.b.c.d", ""} {
		if _, err := ParseIPv4(bad); err == nil {
			t.Errorf("ParseIPv4(%q) succeeded", bad)
		}
	}
}

func TestGooseMAC(t *testing.T) {
	g := GooseMAC(0x1234)
	if g[4] != 0x12 || g[5] != 0x34 || g[3] != 0x01 {
		t.Errorf("GooseMAC = %v", g)
	}
}

func TestARPMarshalRoundTrip(t *testing.T) {
	p := ARPPacket{
		Op:        ARPReply,
		SenderMAC: MustMAC("02:00:00:00:00:01"), SenderIP: MustIPv4("10.0.0.1"),
		TargetMAC: MustMAC("02:00:00:00:00:02"), TargetIP: MustIPv4("10.0.0.2"),
	}
	got, err := UnmarshalARP(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("round trip = %+v, want %+v", got, p)
	}
	if _, err := UnmarshalARP([]byte{1, 2, 3}); err == nil {
		t.Error("short ARP accepted")
	}
}

func TestIPMarshalRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		p := IPPacket{Src: MustIPv4("10.0.0.1"), Dst: MustIPv4("10.0.0.2"), Protocol: IPProtoUDP, Payload: payload}
		got, err := UnmarshalIP(p.Marshal())
		if err != nil {
			return false
		}
		return got.Src == p.Src && got.Dst == p.Dst && got.Protocol == p.Protocol &&
			bytes.Equal(got.Payload, payload) && got.TTL == 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIPUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalIP(make([]byte, 10)); err == nil {
		t.Error("short IP accepted")
	}
	bad := IPPacket{Src: IPv4{1}, Dst: IPv4{2}, Protocol: 6}.Marshal()
	bad[0] = 0x65 // version 6
	if _, err := UnmarshalIP(bad); err == nil {
		t.Error("IPv6 version accepted")
	}
}

func TestUDPMarshalRoundTrip(t *testing.T) {
	d := UDPDatagram{SrcPort: 1000, DstPort: 102, Payload: []byte("hello")}
	got, err := UnmarshalUDP(d.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 1000 || got.DstPort != 102 || string(got.Payload) != "hello" {
		t.Errorf("round trip = %+v", got)
	}
}

func TestTCPSegmentRoundTrip(t *testing.T) {
	s := tcpSegment{SrcPort: 5, DstPort: 6, Seq: 100, Ack: 200, Flags: tcpSYN | tcpACK, Window: 1024, Payload: []byte("xy")}
	got, err := unmarshalTCP(s.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 100 || got.Ack != 200 || got.Flags != tcpSYN|tcpACK || string(got.Payload) != "xy" {
		t.Errorf("round trip = %+v", got)
	}
}

// lan builds a 2-host + switch fabric and starts it.
func lan(t *testing.T) (*Network, *Host, *Host) {
	t.Helper()
	n := NewNetwork()
	sw, err := NewSwitch(n, "sw1", 8)
	if err != nil {
		t.Fatal(err)
	}
	_ = sw
	h1, err := NewHost(n, "h1", MustMAC("02:00:00:00:00:01"), MustIPv4("10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHost(n, "h2", MustMAC("02:00:00:00:00:02"), MustIPv4("10.0.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	mustConnect(t, n, "h1", 0, "sw1", 0)
	mustConnect(t, n, "h2", 0, "sw1", 1)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n, h1, h2
}

func mustConnect(t *testing.T, n *Network, a string, pa int, b string, pb int) *Link {
	t.Helper()
	l, err := n.Connect(a, pa, b, pb, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestUDPEndToEnd(t *testing.T) {
	_, h1, h2 := lan(t)
	s2, err := h2.BindUDP(102)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := h1.BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.SendTo(h2.IP(), 102, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-s2.Recv():
		if string(m.Data) != "ping" || m.From != h1.IP() {
			t.Errorf("got %+v", m)
		}
		// Reply to verify the reverse path and learned MAC table.
		if err := s2.SendTo(m.From, m.FromPort, []byte("pong")); err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no datagram received")
	}
	select {
	case m := <-s1.Recv():
		if string(m.Data) != "pong" {
			t.Errorf("reply = %q", m.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no reply received")
	}
}

func TestARPResolutionPopulatesCaches(t *testing.T) {
	_, h1, h2 := lan(t)
	mac, err := h1.ResolveARP(h2.IP(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if mac != h2.MAC() {
		t.Errorf("resolved %v, want %v", mac, h2.MAC())
	}
	if got := h1.ARPCache()[h2.IP()]; got != h2.MAC() {
		t.Errorf("cache entry %v", got)
	}
}

func TestARPTimeout(t *testing.T) {
	_, h1, _ := lan(t)
	if _, err := h1.ResolveARP(MustIPv4("10.0.0.99"), 30*time.Millisecond); err == nil {
		t.Error("resolution of absent host succeeded")
	}
}

func TestSwitchLearnsAndStopsFlooding(t *testing.T) {
	n := NewNetwork()
	sw, _ := NewSwitch(n, "sw1", 4)
	h1, _ := NewHost(n, "h1", MustMAC("02:00:00:00:00:01"), MustIPv4("10.0.0.1"))
	h2, _ := NewHost(n, "h2", MustMAC("02:00:00:00:00:02"), MustIPv4("10.0.0.2"))
	h3, _ := NewHost(n, "h3", MustMAC("02:00:00:00:00:03"), MustIPv4("10.0.0.3"))
	mustConnect(t, n, "h1", 0, "sw1", 0)
	mustConnect(t, n, "h2", 0, "sw1", 1)
	mustConnect(t, n, "h3", 0, "sw1", 2)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	var h3saw int
	h3.SetPromiscuous(func(f Frame) {
		if f.EtherType == EtherTypeIPv4 {
			h3saw++
		}
	})
	s2, _ := h2.BindUDP(500)
	s1, _ := h1.BindUDP(0)
	// First send floods (unknown dst MAC triggers ARP broadcast, then the
	// learned unicast goes straight to h2).
	_ = s1.SendTo(h2.IP(), 500, []byte("a"))
	<-s2.Recv()
	// Now the table knows both hosts: a second exchange must not reach h3.
	h3saw = 0
	_ = s1.SendTo(h2.IP(), 500, []byte("b"))
	select {
	case <-s2.Recv():
	case <-time.After(2 * time.Second):
		t.Fatal("second datagram lost")
	}
	if h3saw != 0 {
		t.Errorf("h3 saw %d unicast IP frames after learning", h3saw)
	}
	tbl := sw.MACTable()
	if tbl[h1.MAC()] != 0 || tbl[h2.MAC()] != 1 {
		t.Errorf("MAC table = %v", tbl)
	}
	sw.FlushMACTable()
	if len(sw.MACTable()) != 0 {
		t.Error("flush did not clear table")
	}
}

func TestMulticastDelivery(t *testing.T) {
	n := NewNetwork()
	NewSwitch(n, "sw1", 4)
	pub, _ := NewHost(n, "pub", MustMAC("02:00:00:00:00:01"), MustIPv4("10.0.0.1"))
	sub, _ := NewHost(n, "sub", MustMAC("02:00:00:00:00:02"), MustIPv4("10.0.0.2"))
	non, _ := NewHost(n, "non", MustMAC("02:00:00:00:00:03"), MustIPv4("10.0.0.3"))
	mustConnect(t, n, "pub", 0, "sw1", 0)
	mustConnect(t, n, "sub", 0, "sw1", 1)
	mustConnect(t, n, "non", 0, "sw1", 2)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	group := GooseMAC(0x0001)
	got := make(chan Frame, 1)
	sub.JoinMulticast(group)
	sub.HandleEtherType(EtherTypeGOOSE, func(f Frame) { got <- f })
	nonGot := make(chan Frame, 1)
	non.HandleEtherType(EtherTypeGOOSE, func(f Frame) { nonGot <- f })

	pub.SendFrame(Frame{Dst: group, Src: pub.MAC(), EtherType: EtherTypeGOOSE, Payload: []byte("goose")})
	select {
	case f := <-got:
		if string(f.Payload) != "goose" {
			t.Errorf("payload = %q", f.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscriber missed multicast")
	}
	select {
	case <-nonGot:
		t.Error("non-member received multicast")
	case <-time.After(30 * time.Millisecond):
	}
}

func TestTCPEndToEnd(t *testing.T) {
	_, h1, h2 := lan(t)
	ln, err := h2.ListenTCP(102)
	if err != nil {
		t.Fatal(err)
	}
	serverDone := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			serverDone <- err
			return
		}
		buf := make([]byte, 64)
		nr, err := c.Read(buf)
		if err != nil {
			serverDone <- err
			return
		}
		_, err = c.Write(bytes.ToUpper(buf[:nr]))
		serverDone <- err
	}()
	conn, err := h1.DialTCP(h2.IP(), 102)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello mms")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	nr, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:nr]); got != "HELLO MMS" {
		t.Errorf("reply = %q", got)
	}
	if err := <-serverDone; err != nil {
		t.Errorf("server: %v", err)
	}
	if conn.LocalAddr() == "" || !strings.Contains(conn.RemoteAddr(), "10.0.0.2:102") {
		t.Errorf("addrs: %q -> %q", conn.LocalAddr(), conn.RemoteAddr())
	}
}

func TestTCPLargeTransfer(t *testing.T) {
	_, h1, h2 := lan(t)
	ln, _ := h2.ListenTCP(9000)
	const size = 256 * 1024
	recvDone := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			recvDone <- nil
			return
		}
		var all []byte
		buf := make([]byte, 8192)
		for len(all) < size {
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			nr, err := c.Read(buf)
			if err != nil {
				break
			}
			all = append(all, buf[:nr]...)
		}
		recvDone <- all
	}()
	conn, err := h1.DialTCP(h2.IP(), 9000)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	got := <-recvDone
	if !bytes.Equal(got, data) {
		t.Fatalf("transfer corrupt: got %d bytes, want %d", len(got), len(data))
	}
	conn.Close()
}

func TestTCPSurvivesLossyLink(t *testing.T) {
	n := NewNetwork()
	NewSwitch(n, "sw1", 4)
	h1, _ := NewHost(n, "h1", MustMAC("02:00:00:00:00:01"), MustIPv4("10.0.0.1"))
	h2, _ := NewHost(n, "h2", MustMAC("02:00:00:00:00:02"), MustIPv4("10.0.0.2"))
	l1 := mustConnect(t, n, "h1", 0, "sw1", 0)
	mustConnect(t, n, "h2", 0, "sw1", 1)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)

	ln, _ := h2.ListenTCP(102)
	got := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		var all []byte
		buf := make([]byte, 4096)
		for len(all) < 20000 {
			c.SetReadDeadline(time.Now().Add(10 * time.Second))
			nr, err := c.Read(buf)
			if err != nil {
				break
			}
			all = append(all, buf[:nr]...)
		}
		got <- all
	}()
	conn, err := h1.DialTCP(h2.IP(), 102) // handshake over clean link
	if err != nil {
		t.Fatal(err)
	}
	l1.SetLossRate(0.10) // now 10% loss both ways
	data := make([]byte, 20000)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	all := <-got
	if !bytes.Equal(all, data) {
		t.Fatalf("lossy transfer corrupt: %d bytes of %d", len(all), len(data))
	}
	if n.Dropped() == 0 {
		t.Error("loss rate produced no drops")
	}
}

func TestTCPConnRefused(t *testing.T) {
	_, h1, h2 := lan(t)
	if _, err := h1.DialTCP(h2.IP(), 4444); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestTCPReadDeadline(t *testing.T) {
	_, h1, h2 := lan(t)
	ln, _ := h2.ListenTCP(102)
	go func() {
		c, _ := ln.Accept()
		_ = c // never writes
	}()
	conn, err := h1.DialTCP(h2.IP(), 102)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err = conn.Read(make([]byte, 8))
	if err == nil {
		t.Fatal("read succeeded with no data")
	}
	type timeouter interface{ Timeout() bool }
	if te, ok := err.(timeouter); !ok || !te.Timeout() {
		t.Errorf("err = %v, want timeout", err)
	}
	if time.Since(start) > time.Second {
		t.Error("deadline ignored")
	}
}

func TestTCPCloseDeliversEOF(t *testing.T) {
	_, h1, h2 := lan(t)
	ln, _ := h2.ListenTCP(102)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.Write([]byte("bye"))
		c.Close()
	}()
	conn, err := h1.DialTCP(h2.IP(), 102)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	nr, err := conn.Read(buf)
	if err != nil || string(buf[:nr]) != "bye" {
		t.Fatalf("read = %q, %v", buf[:nr], err)
	}
	_, err = conn.Read(buf)
	if err == nil {
		t.Error("no EOF after peer close")
	}
}

func TestLinkDownBlocksTraffic(t *testing.T) {
	n := NewNetwork()
	NewSwitch(n, "sw1", 4)
	h1, _ := NewHost(n, "h1", MustMAC("02:00:00:00:00:01"), MustIPv4("10.0.0.1"))
	h2, _ := NewHost(n, "h2", MustMAC("02:00:00:00:00:02"), MustIPv4("10.0.0.2"))
	l := mustConnect(t, n, "h1", 0, "sw1", 0)
	mustConnect(t, n, "h2", 0, "sw1", 1)
	n.Start()
	t.Cleanup(n.Stop)

	s2, _ := h2.BindUDP(700)
	s1, _ := h1.BindUDP(0)
	l.SetUp(false)
	_ = s1.SendTo(h2.IP(), 700, []byte("x"))
	select {
	case <-s2.Recv():
		t.Error("datagram crossed a down link")
	case <-time.After(50 * time.Millisecond):
	}
	l.SetUp(true)
	_ = s1.SendTo(h2.IP(), 700, []byte("y"))
	select {
	case <-s2.Recv():
	case <-time.After(2 * time.Second):
		t.Error("datagram lost after link restore")
	}
}

func TestLinkTamperRewritesFrames(t *testing.T) {
	n := NewNetwork()
	NewSwitch(n, "sw1", 4)
	h1, _ := NewHost(n, "h1", MustMAC("02:00:00:00:00:01"), MustIPv4("10.0.0.1"))
	h2, _ := NewHost(n, "h2", MustMAC("02:00:00:00:00:02"), MustIPv4("10.0.0.2"))
	mustConnect(t, n, "h1", 0, "sw1", 0)
	l2 := mustConnect(t, n, "h2", 0, "sw1", 1)
	n.Start()
	t.Cleanup(n.Stop)

	l2.SetTamper(func(f Frame) (Frame, bool) {
		if f.EtherType == EtherTypeGOOSE {
			f.Payload = []byte("corrupted")
		}
		return f, true
	})
	group := GooseMAC(1)
	h2.JoinMulticast(group)
	got := make(chan Frame, 1)
	h2.HandleEtherType(EtherTypeGOOSE, func(f Frame) { got <- f })
	h1.SendFrame(Frame{Dst: group, Src: h1.MAC(), EtherType: EtherTypeGOOSE, Payload: []byte("original")})
	select {
	case f := <-got:
		if string(f.Payload) != "corrupted" {
			t.Errorf("payload = %q", f.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tampered frame not delivered")
	}
}

func TestCaptureRecordsTraffic(t *testing.T) {
	n := NewNetwork()
	NewSwitch(n, "sw1", 4)
	h1, _ := NewHost(n, "h1", MustMAC("02:00:00:00:00:01"), MustIPv4("10.0.0.1"))
	h2, _ := NewHost(n, "h2", MustMAC("02:00:00:00:00:02"), MustIPv4("10.0.0.2"))
	mustConnect(t, n, "h1", 0, "sw1", 0)
	mustConnect(t, n, "h2", 0, "sw1", 1)
	cap := NewCapture(100)
	cap.Attach(n)
	n.Start()
	t.Cleanup(n.Stop)

	s2, _ := h2.BindUDP(102)
	s1, _ := h1.BindUDP(0)
	_ = s1.SendTo(h2.IP(), 102, []byte("data"))
	select {
	case <-s2.Recv():
	case <-time.After(2 * time.Second):
		t.Fatal("lost")
	}
	if cap.Total() == 0 {
		t.Fatal("capture saw nothing")
	}
	arps := cap.Filter(func(cf CapturedFrame) bool { return cf.Frame.EtherType == EtherTypeARP })
	if len(arps) == 0 {
		t.Error("no ARP frames captured")
	}
	dump := cap.Dump(0)
	if !strings.Contains(dump, "ARP who-has") || !strings.Contains(dump, "UDP") {
		t.Errorf("dump:\n%s", dump)
	}
}

func TestCaptureRingEviction(t *testing.T) {
	c := NewCapture(3)
	n := NewNetwork()
	NewSwitch(n, "sw", 2)
	h, _ := NewHost(n, "h", MustMAC("02:00:00:00:00:01"), MustIPv4("10.0.0.1"))
	mustConnect(t, n, "h", 0, "sw", 0)
	c.Attach(n)
	n.Start()
	t.Cleanup(n.Stop)
	for i := 0; i < 10; i++ {
		h.SendFrame(Frame{Dst: BroadcastMAC, Src: h.MAC(), EtherType: 0x9999, Payload: []byte{byte(i)}})
	}
	time.Sleep(20 * time.Millisecond)
	if got := len(c.Frames()); got > 3 {
		t.Errorf("ring holds %d frames, max 3", got)
	}
	if c.Total() != 10 {
		t.Errorf("total = %d, want 10", c.Total())
	}
}

func TestNetworkErrors(t *testing.T) {
	n := NewNetwork()
	if _, err := NewSwitch(n, "sw", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSwitch(n, "sw", 2); err == nil {
		t.Error("duplicate device accepted")
	}
	if _, err := n.Connect("sw", 0, "missing", 0, 0); err == nil {
		t.Error("connect to missing device accepted")
	}
	if _, err := NewHost(n, "h", MAC{2}, IPv4{10}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("h", 0, "sw", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("h", 0, "sw", 1, 0); err == nil {
		t.Error("double-connected port accepted")
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err == nil {
		t.Error("double start accepted")
	}
	if err := n.AddDevice(&Switch{name: "late"}); err == nil {
		t.Error("AddDevice after start accepted")
	}
	n.Stop()
	n.Stop() // idempotent
}

func TestTopologyRendering(t *testing.T) {
	n := NewNetwork()
	NewSwitch(n, "sw1", 4)
	NewHost(n, "ied1", MustMAC("02:00:00:00:00:01"), MustIPv4("10.0.0.1"))
	mustConnect(t, n, "ied1", 0, "sw1", 0)
	top := n.Topology()
	for _, want := range []string{"devices: 2", "links: 1", "host   ied1", "switch sw1", "10.0.0.1"} {
		if !strings.Contains(top, want) {
			t.Errorf("topology missing %q:\n%s", want, top)
		}
	}
}

func TestPortBindingErrors(t *testing.T) {
	n := NewNetwork()
	h, _ := NewHost(n, "h", MAC{2}, IPv4{10})
	if _, err := h.BindUDP(102); err != nil {
		t.Fatal(err)
	}
	if _, err := h.BindUDP(102); err == nil {
		t.Error("double UDP bind accepted")
	}
	if _, err := h.ListenTCP(102); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ListenTCP(102); err == nil {
		t.Error("double TCP listen accepted")
	}
}

func TestUDPSocketClose(t *testing.T) {
	n := NewNetwork()
	h, _ := NewHost(n, "h", MAC{2}, IPv4{10})
	s, _ := h.BindUDP(102)
	s.Close()
	s.Close() // idempotent
	if _, err := h.BindUDP(102); err != nil {
		t.Errorf("port not released: %v", err)
	}
	if _, ok := <-s.Recv(); ok {
		t.Error("recv channel not closed")
	}
}
