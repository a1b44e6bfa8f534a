package modbus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/netem"
)

func pair(t *testing.T) (*netem.Host, *netem.Host) {
	t.Helper()
	_, srv, cli := testNet(t)
	return srv, cli
}

// testNet is pair that also returns the network, for link impairments.
func testNet(t *testing.T) (*netem.Network, *netem.Host, *netem.Host) {
	t.Helper()
	n := netem.NewNetwork()
	if _, err := netem.NewSwitch(n, "sw", 4); err != nil {
		t.Fatal(err)
	}
	srv, err := netem.NewHost(n, "plc", netem.MustMAC("02:00:00:00:00:01"), netem.MustIPv4("10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := netem.NewHost(n, "scada", netem.MustMAC("02:00:00:00:00:02"), netem.MustIPv4("10.0.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("plc", 0, "sw", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("scada", 0, "sw", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n, srv, cli
}

func served(t *testing.T) (*Server, *Client) {
	t.Helper()
	srvHost, cliHost := pair(t)
	srv := NewServer(64, 64, 128, 128)
	if err := srv.Serve(srvHost, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := DialClient(cliHost, srvHost.IP(), 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func TestReadInputRegisters(t *testing.T) {
	srv, cli := served(t)
	srv.SetInput(0, 1020) // e.g. voltage * 1000
	srv.SetInput(1, 351)
	got, err := cli.ReadInput(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1020 || got[1] != 351 {
		t.Errorf("input = %v", got)
	}
}

func TestHoldingRegistersRoundTrip(t *testing.T) {
	srv, cli := served(t)
	if err := cli.WriteRegister(5, 777); err != nil {
		t.Fatal(err)
	}
	if got := srv.Holding(5); got != 777 {
		t.Errorf("server holding[5] = %d", got)
	}
	vals, err := cli.ReadHolding(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 777 {
		t.Errorf("read back %v", vals)
	}
}

func TestWriteMultipleRegisters(t *testing.T) {
	srv, cli := served(t)
	want := []uint16{1, 2, 3, 65535}
	if err := cli.WriteRegisters(10, want); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadHolding(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reg %d = %d, want %d", i, got[i], want[i])
		}
	}
	_ = srv
}

func TestCoilsAndHook(t *testing.T) {
	srv, cli := served(t)
	var mu sync.Mutex
	writes := map[uint16]bool{}
	srv.OnCoilWrite(func(addr uint16, v bool) {
		mu.Lock()
		writes[addr] = v
		mu.Unlock()
	})
	if err := cli.WriteCoil(3, true); err != nil {
		t.Fatal(err)
	}
	if !srv.Coil(3) {
		t.Error("coil not set")
	}
	if err := cli.WriteCoils(8, []bool{true, false, true}); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadCoils(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0] || got[1] || !got[2] {
		t.Errorf("coils = %v", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if !writes[3] || !writes[8] || writes[9] || !writes[10] {
		t.Errorf("hook writes = %v", writes)
	}
}

func TestDiscreteInputs(t *testing.T) {
	srv, cli := served(t)
	srv.SetDiscrete(0, true)
	srv.SetDiscrete(2, true)
	got, err := cli.ReadDiscreteInputs(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0] || got[1] || !got[2] {
		t.Errorf("discrete = %v", got)
	}
}

func TestRegisterWriteHook(t *testing.T) {
	srv, cli := served(t)
	got := make(chan uint16, 1)
	srv.OnRegisterWrite(func(addr uint16, v uint16) {
		if addr == 20 {
			got <- v
		}
	})
	if err := cli.WriteRegister(20, 444); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 444 {
			t.Errorf("hook value = %d", v)
		}
	case <-time.After(time.Second):
		t.Fatal("hook not fired")
	}
}

func TestExceptions(t *testing.T) {
	_, cli := served(t)
	// Out-of-range address.
	if _, err := cli.ReadHolding(1000, 4); !errors.Is(err, ErrException) {
		t.Errorf("out of range err = %v", err)
	}
	var ex *ExceptionError
	_, err := cli.ReadHolding(1000, 4)
	if !errors.As(err, &ex) || ex.Code != ExIllegalAddress {
		t.Errorf("exception = %+v", ex)
	}
	// Zero count.
	if _, err := cli.ReadCoils(0, 0); !errors.Is(err, ErrException) {
		t.Errorf("zero count err = %v", err)
	}
}

func TestConcurrentPolling(t *testing.T) {
	srv, cli := served(t)
	srv.SetInput(0, 42)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := cli.ReadInput(0, 1); err != nil {
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
	if srv.Requests() < 160 {
		t.Errorf("requests = %d", srv.Requests())
	}
}

func TestServerCloseBreaksClient(t *testing.T) {
	srv, cli := served(t)
	srv.Close()
	if _, err := cli.ReadInput(0, 1); err == nil {
		t.Error("read succeeded after server close")
	}
}

func TestMultipleClients(t *testing.T) {
	srvHost, cliHost := pair(t)
	srv := NewServer(8, 8, 8, 8)
	if err := srv.Serve(srvHost, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetInput(0, 7)
	for i := 0; i < 3; i++ {
		cli, err := DialClient(cliHost, srvHost.IP(), 0, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cli.ReadInput(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 7 {
			t.Errorf("client %d read %v", i, got)
		}
		cli.Close()
	}
}

func TestBoundsSettersIgnoreOutOfRange(t *testing.T) {
	srv := NewServer(1, 1, 1, 1)
	srv.SetInput(-1, 5)
	srv.SetInput(99, 5)
	srv.SetDiscrete(99, true)
	srv.SetHolding(99, 5)
	srv.SetCoil(99, true)
	if srv.Coil(99) || srv.Holding(99) != 0 {
		t.Error("out-of-range access leaked")
	}
}

func TestLateResponseIsSkipped(t *testing.T) {
	n, srvHost, cliHost := testNet(t)
	srv := NewServer(0, 0, 2, 0)
	if err := srv.Serve(srvHost, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const timeout = 200 * time.Millisecond
	cli, err := DialClient(cliHost, srvHost.IP(), 0, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// A link slower than the client timeout: the first read gives up.
	link := n.LinkBetween("scada", "sw")
	link.SetLatency(5 * timeout)
	srv.SetHolding(0, 99)
	var te interface{ Timeout() bool }
	if _, err := cli.ReadHolding(0, 1); !errors.As(err, &te) || !te.Timeout() {
		t.Fatalf("read over the slow link = %v, want a timeout", err)
	}
	// Heal the link and wait for the server to answer the abandoned read;
	// its late response now sits ahead of the next one on the connection.
	link.SetLatency(0)
	deadline := time.Now().Add(2 * time.Second)
	for srv.Requests() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("server never saw the abandoned read")
		}
		time.Sleep(time.Millisecond)
	}
	for i := uint16(1); i <= 3; i++ {
		srv.SetHolding(1, i)
		got, err := cli.ReadHolding(1, 1)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got[0] != i {
			t.Errorf("read %d = %v, want its own value (not the late answer 99)", i, got)
		}
	}
}

func TestADUSize(t *testing.T) {
	hdr := func(proto, length uint16) []byte {
		b := make([]byte, mbapLen)
		binary.BigEndian.PutUint16(b[2:], proto)
		binary.BigEndian.PutUint16(b[4:], length)
		return b
	}
	for _, h := range [][]byte{hdr(1, 6), hdr(0, 1), hdr(0, 261)} {
		if _, err := aduSize(h); !errors.Is(err, ErrFraming) {
			t.Errorf("aduSize(% x) = %v, want ErrFraming", h, err)
		}
	}
	for length, want := range map[uint16]int{2: 8, 6: 12, 260: 266} {
		if got, err := aduSize(hdr(0, length)); err != nil || got != want {
			t.Errorf("aduSize(length %d) = %d, %v; want %d", length, got, err, want)
		}
	}
}

func TestFramingErrors(t *testing.T) {
	srvHost, cliHost := pair(t)
	// A raw TCP client sending garbage must not wedge the server.
	srv := NewServer(0, 0, 0, 1)
	srv.SetInput(0, 7)
	if err := srv.Serve(srvHost, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := cliHost.DialTCP(srvHost.IP(), DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04})
	conn.Close()
	// A fresh client still reads.
	cli, err := DialClient(cliHost, srvHost.IP(), 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if got, err := cli.ReadInput(0, 1); err != nil || got[0] != 7 {
		t.Errorf("ReadInput = %v, %v; want [7]", got, err)
	}
}

// FuzzServeFrames feeds arbitrary bytes, as a connection would carry them,
// through the server's frame reader into handlePDU. It must never panic, and
// every reply carries the request's function code, or that code with the
// exception bit set and an exception code of 1-4.
func FuzzServeFrames(f *testing.F) {
	f.Add(adu(1, 1, readReq(FuncReadHolding, 0, 2)))
	f.Add(append(adu(2, 1, []byte{FuncWriteSingleCoil, 0, 3, 0xFF, 0}), adu(3, 1, []byte{0x2B})...))
	f.Add(adu(4, 1, []byte{FuncWriteMultiRegs, 0, 0, 0, 1, 2, 0x12, 0x34}))
	f.Add(adu(5, 1, []byte{FuncWriteMultiCoils, 0, 0, 0, 9, 1, 0xFF}))
	f.Add([]byte{0, 1, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		srv := NewServer(16, 16, 16, 16)
		frames := netem.NewFrameReader(bytes.NewReader(b), mbapLen, aduSize)
		for {
			frame, err := frames.Next()
			if err != nil {
				return
			}
			req := frame[mbapLen:]
			resp := srv.handlePDU(req)
			switch {
			case len(resp) == 0:
				t.Fatalf("empty reply to % x", req)
			case resp[0] == req[0]:
			case resp[0] == req[0]|0x80 && len(resp) == 2 && resp[1] >= ExIllegalFunction && resp[1] <= ExServerFailure:
			default:
				t.Fatalf("reply % x to request % x", resp, req)
			}
		}
	})
}
