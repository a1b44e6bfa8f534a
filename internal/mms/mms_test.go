package mms

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netem"
)

// testPair builds a started LAN with a server host and a client host.
func testPair(t *testing.T) (*netem.Host, *netem.Host) {
	t.Helper()
	_, srv, cli := testNet(t)
	return srv, cli
}

// testNet is testPair that also returns the network, for link impairments.
func testNet(t *testing.T) (*netem.Network, *netem.Host, *netem.Host) {
	t.Helper()
	n := netem.NewNetwork()
	if _, err := netem.NewSwitch(n, "sw", 4); err != nil {
		t.Fatal(err)
	}
	srv, err := netem.NewHost(n, "srv", netem.MustMAC("02:00:00:00:00:01"), netem.MustIPv4("10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := netem.NewHost(n, "cli", netem.MustMAC("02:00:00:00:00:02"), netem.MustIPv4("10.0.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("srv", 0, "sw", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("cli", 0, "sw", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n, srv, cli
}

func TestValueRoundTripProperty(t *testing.T) {
	check := func(v Value) bool {
		payload := encodeReadResponse(nil, 7, v)
		p, err := decodePDU(payload)
		if err != nil {
			return false
		}
		got, err := decodeValue(p.body.Children[1].Children[0])
		return err == nil && got.Equal(v)
	}
	f := func(b bool, i int64, fl float64, s string, u uint64) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		vals := []Value{
			NewBool(b), NewInt(i), NewFloat(fl), NewString(s), NewUnsigned(u),
			NewStructure(NewBool(b), NewStructure(NewInt(i), NewFloat(fl))),
			NewBitString([]byte{0xF0}, 4),
		}
		for _, v := range vals {
			if !check(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUTCTimeValue(t *testing.T) {
	now := time.Unix(1_700_000_000, 123_456_000).UTC()
	payload := encodeReadResponse(nil, 1, NewUTCTime(now))
	p, err := decodePDU(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeValue(p.body.Children[1].Children[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindUTCTime {
		t.Fatalf("kind = %v", got.Kind)
	}
	if d := got.Time.Sub(now); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("time drift %v", d)
	}
}

func TestObjectReference(t *testing.T) {
	r := ObjectReference("LD0/MMXU1.A.phsA")
	d, i := r.Split()
	if d != "LD0" || i != "MMXU1.A.phsA" {
		t.Errorf("split = %q / %q", d, i)
	}
	if !r.Valid() {
		t.Error("valid ref reported invalid")
	}
	if ObjectReference("nodomain").Valid() {
		t.Error("domainless ref reported valid")
	}
}

func TestReadWriteEndToEnd(t *testing.T) {
	srvHost, cliHost := testPair(t)
	srv := NewServer("SGML", "vIED-1")
	srv.Define("LD0/MMXU1.A.phsA", NewFloat(0.150))
	srv.DefineReadOnly("LD0/LLN0.NamPlt", NewString("GIED1"))
	if err := srv.Serve(srvHost, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(cliHost, srvHost.IP(), 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if vendor, model := cli.PeerIdentity(); vendor != "SGML" || model != "vIED-1" {
		t.Errorf("identity = %q/%q", vendor, model)
	}
	v, err := cli.Read("LD0/MMXU1.A.phsA")
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != KindFloat || v.Float != 0.150 {
		t.Errorf("read = %v", v)
	}
	// Server-side update is visible on next read.
	srv.Update("LD0/MMXU1.A.phsA", NewFloat(0.175))
	v, err = cli.Read("LD0/MMXU1.A.phsA")
	if err != nil {
		t.Fatal(err)
	}
	if v.Float != 0.175 {
		t.Errorf("read after update = %v", v)
	}
	// Client write round-trips.
	if err := cli.Write("LD0/MMXU1.A.phsA", NewFloat(9.9)); err != nil {
		t.Fatal(err)
	}
	if got, _ := srv.Get("LD0/MMXU1.A.phsA"); got.Float != 9.9 {
		t.Errorf("server value after write = %v", got)
	}
	reads, writes := srv.Stats()
	if reads != 2 || writes != 1 {
		t.Errorf("stats = %d reads, %d writes", reads, writes)
	}
}

func TestErrorResponses(t *testing.T) {
	srvHost, cliHost := testPair(t)
	srv := NewServer("SGML", "vIED")
	srv.DefineReadOnly("LD0/LLN0.NamPlt", NewString("x"))
	if err := srv.Serve(srvHost, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(cliHost, srvHost.IP(), 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Read("LD0/Ghost"); !errors.Is(err, ErrObjectNotFound) {
		t.Errorf("read ghost err = %v", err)
	}
	if err := cli.Write("LD0/Ghost", NewInt(1)); !errors.Is(err, ErrObjectNotFound) {
		t.Errorf("write ghost err = %v", err)
	}
	if err := cli.Write("LD0/LLN0.NamPlt", NewString("hax")); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("write read-only err = %v", err)
	}
}

func TestWriteHandlerControl(t *testing.T) {
	srvHost, cliHost := testPair(t)
	srv := NewServer("SGML", "vIED")
	var mu sync.Mutex
	var commands []bool
	srv.OnWrite("LD0/XCBR1.Pos.Oper", NewBool(true), func(_ ObjectReference, v Value) error {
		if v.Kind != KindBool {
			return errors.New("bad type")
		}
		mu.Lock()
		commands = append(commands, v.Bool)
		mu.Unlock()
		return nil
	})
	if err := srv.Serve(srvHost, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(cliHost, srvHost.IP(), 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.Write("LD0/XCBR1.Pos.Oper", NewBool(false)); err != nil {
		t.Fatal(err)
	}
	// Handler rejection surfaces as access denied.
	if err := cli.Write("LD0/XCBR1.Pos.Oper", NewInt(42)); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("rejected write err = %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(commands) != 1 || commands[0] != false {
		t.Errorf("commands = %v", commands)
	}
}

func TestGetNameList(t *testing.T) {
	srvHost, cliHost := testPair(t)
	srv := NewServer("SGML", "vIED")
	srv.Define("LD0/MMXU1.A.phsA", NewFloat(1))
	srv.Define("LD0/MMXU1.PhV.phsA", NewFloat(1))
	srv.Define("LD1/XCBR1.Pos.stVal", NewBool(true))
	if err := srv.Serve(srvHost, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(cliHost, srvHost.IP(), 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	all, err := cli.GetNameList("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Errorf("all names = %v", all)
	}
	ld0, err := cli.GetNameList("LD0/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ld0) != 2 {
		t.Errorf("LD0 names = %v", ld0)
	}
}

func TestInformationReports(t *testing.T) {
	srvHost, cliHost := testPair(t)
	srv := NewServer("SGML", "vIED")
	srv.Define("LD0/PTOC1.Op.general", NewBool(false))
	if err := srv.Serve(srvHost, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The client reads reports on its own requests, so the handler runs on
	// the requesting goroutine and needs no locking.
	var got []Value
	cli, err := Dial(cliHost, srvHost.IP(), 0, DialOptions{
		OnReport: func(ref ObjectReference, v Value) {
			if ref == "LD0/PTOC1.Op.general" {
				got = append(got, v)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// A report sent right after Dial precedes the next response on the
	// association, so OnReport has fired by the time that Read returns.
	srv.Report("LD0/PTOC1.Op.general", NewBool(true))
	if _, err := cli.Read("LD0/PTOC1.Op.general"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Bool {
		t.Fatalf("reports before Read returned = %v, want one true", got)
	}
}

func TestLateResponseIsSkipped(t *testing.T) {
	n, srvHost, cliHost := testNet(t)
	srv := NewServer("SGML", "vIED")
	srv.Define("LD0/A.v", NewInt(1))
	srv.Define("LD0/B.v", NewInt(2))
	if err := srv.Serve(srvHost, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const timeout = 200 * time.Millisecond
	cli, err := Dial(cliHost, srvHost.IP(), 0, DialOptions{Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// A link slower than the client timeout: the first Read gives up.
	link := n.LinkBetween("cli", "sw")
	link.SetLatency(5 * timeout)
	if _, err := cli.Read("LD0/A.v"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("read over the slow link = %v, want ErrTimeout", err)
	}
	// Heal the link and wait for the server to answer the abandoned Read;
	// its late response now sits ahead of the next one on the association.
	link.SetLatency(0)
	deadline := time.Now().Add(2 * time.Second)
	for reads, _ := srv.Stats(); reads < 1; reads, _ = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatal("server never saw the abandoned Read")
		}
		time.Sleep(time.Millisecond)
	}
	v, err := cli.Read("LD0/B.v")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 2 {
		t.Errorf("second Read = %v, want its own value 2 (not the late answer 1)", v)
	}
}

func TestConcurrentClients(t *testing.T) {
	srvHost, cliHost := testPair(t)
	srv := NewServer("SGML", "vIED")
	srv.Define("LD0/MMXU1.A.phsA", NewFloat(1))
	if err := srv.Serve(srvHost, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(cliHost, srvHost.IP(), 0, DialOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for j := 0; j < 10; j++ {
				if _, err := cli.Read("LD0/MMXU1.A.phsA"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerCloseTerminatesAssociations(t *testing.T) {
	srvHost, cliHost := testPair(t)
	srv := NewServer("SGML", "vIED")
	srv.Define("LD0/X.v", NewInt(1))
	if err := srv.Serve(srvHost, 0); err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(cliHost, srvHost.IP(), 0, DialOptions{Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Close()
	if _, err := cli.Read("LD0/X.v"); err == nil {
		t.Error("read succeeded after server close")
	}
	// Serve after close is rejected.
	if err := srv.Serve(srvHost, 1102); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve after close = %v", err)
	}
}

func TestDialErrors(t *testing.T) {
	srvHost, cliHost := testPair(t)
	_ = srvHost
	if _, err := Dial(cliHost, srvHost.IP(), 555, DialOptions{Timeout: 200 * time.Millisecond}); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestDecodePDUErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{0xA0, 0x00},             // confirmed request without invokeID
		{0xFF, 0x01, 0x00},       // unknown tag
		{0x02, 0x01, 0x05, 0xFF}, // trailing bytes
	}
	for _, b := range bad {
		if _, err := decodePDU(b); err == nil {
			t.Errorf("decodePDU(%x) succeeded", b)
		}
	}
}

func TestFramingErrors(t *testing.T) {
	srvHost, cliHost := testPair(t)
	// A raw TCP client sending garbage must not wedge the server.
	srv := NewServer("SGML", "vIED")
	srv.Define("LD0/X.v", NewInt(1))
	if err := srv.Serve(srvHost, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := cliHost.DialTCP(srvHost.IP(), DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02})
	conn.Close()
	// A fresh legitimate association still works.
	cli, err := Dial(cliHost, srvHost.IP(), 0, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Read("LD0/X.v"); err != nil {
		t.Error(err)
	}
}

// tpkt frames a PDU as the client and server put it on the wire.
func tpkt(pdu []byte) []byte {
	var b bytes.Buffer
	writeFrame(&b, pdu)
	return b.Bytes()
}

// containsWriteCases are TCP segments as a passive monitor sees them.
func containsWriteCases() []struct {
	name string
	in   []byte
	want bool
} {
	read := tpkt(encodeReadRequest(nil, 1, "LD0/MMXU1.A.phsA"))
	write := tpkt(encodeWriteRequest(nil, 2, "LD0/XCBR1.Pos.Oper", NewBool(false)))
	// A value over 127 bytes takes the confirmed request's length, and the
	// value's own, into BER's long form.
	long := tpkt(encodeWriteRequest(nil, 3, "LD0/LLN0.NamPlt.d", NewString(strings.Repeat("x", 200))))
	return []struct {
		name string
		in   []byte
		want bool
	}{
		{"garbage", []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06}, false},
		{"short buffer", []byte{0x03}, false},
		{"read", read, false},
		{"getNameList", tpkt(encodeGetNameListRequest(nil, 4, "LD0")), false},
		{"write", write, true},
		{"read then write", append(append([]byte(nil), read...), write...), true},
		{"long-form lengths", long, true},
		{"write cut short", write[:len(write)-1], false},
	}
}

func TestContainsWrite(t *testing.T) {
	for _, c := range containsWriteCases() {
		if got := ContainsWrite(c.in); got != c.want {
			t.Errorf("%s: ContainsWrite = %v, want %v", c.name, got, c.want)
		}
	}
}

// FuzzContainsWrite holds ContainsWrite, which the IDS runs on attacker
// bytes, to the server's own path: split the input with the stream frame
// reader and decode each frame as the server does. It must never panic, and
// it reports a write exactly when some frame before the first bad or
// truncated one decodes as a confirmed write request.
func FuzzContainsWrite(f *testing.F) {
	for _, c := range containsWriteCases() {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want := false
		frames := netem.NewFrameReader(bytes.NewReader(b), 4, frameSize)
		for !want {
			frame, err := frames.Next()
			if err != nil {
				break
			}
			p, err := decodePDU(frame[4:])
			want = err == nil && p.kind == tagConfirmedRequest && p.service == svcWrite
		}
		if got := ContainsWrite(b); got != want {
			t.Fatalf("ContainsWrite(% x) = %v, server path says %v", b, got, want)
		}
	})
}
