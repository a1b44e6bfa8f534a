package netem

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

const (
	tcpMSS          = 1200
	tcpWindowSegs   = 32
	tcpRTO          = 100 * time.Millisecond
	tcpMaxRetries   = 20
	tcpDialTimeout  = 3 * time.Second
	tcpAcceptBuffer = 64
)

type connKey struct {
	localPort  uint16
	remoteIP   IPv4
	remotePort uint16
}

type tcpState int

const (
	stateSynSent tcpState = iota + 1
	stateSynRcvd
	stateEstablished
	stateClosed
)

var isnCounter atomic.Uint32

// TCPConn is a reliable, in-order byte stream over the emulated fabric, with
// go-back-N retransmission so MITM drops and lossy links are survivable.
type TCPConn struct {
	host *Host
	key  connKey

	mu        sync.Mutex
	readCond  *sync.Cond
	writeCond *sync.Cond
	state     tcpState
	sndNxt    uint32
	sndUna    uint32
	rcvNxt    uint32
	inflight  []tcpSegment // unacked, in seq order
	retries   int
	rtTimer   *time.Timer
	recvBuf   []byte
	deadline  time.Time
	err       error
	eof       bool // peer FIN consumed
	finSent   bool
	estCh     chan struct{}
	estOnce   sync.Once
}

func newTCPConn(h *Host, key connKey, state tcpState) *TCPConn {
	c := &TCPConn{
		host:   h,
		key:    key,
		state:  state,
		sndNxt: isnCounter.Add(12345) + 1,
		estCh:  make(chan struct{}),
	}
	c.sndUna = c.sndNxt
	c.readCond = sync.NewCond(&c.mu)
	c.writeCond = sync.NewCond(&c.mu)
	return c
}

// LocalAddr returns "ip:port" of the local endpoint.
func (c *TCPConn) LocalAddr() string {
	return fmt.Sprintf("%s:%d", c.host.IP(), c.key.localPort)
}

// RemoteAddr returns "ip:port" of the peer.
func (c *TCPConn) RemoteAddr() string {
	return fmt.Sprintf("%s:%d", c.key.remoteIP, c.key.remotePort)
}

// SetReadDeadline bounds future Read calls.
func (c *TCPConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	c.readCond.Broadcast()
	// Wake any reader at the deadline so it can observe the timeout.
	if !t.IsZero() {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		time.AfterFunc(d+time.Millisecond, c.readCond.Broadcast)
	}
	return nil
}

// SetReadTimeout bounds future Read calls to d from now. It keeps the
// wall-clock read inside the transport, which owns the wall-clock timers.
func (c *TCPConn) SetReadTimeout(d time.Duration) error {
	return c.SetReadDeadline(time.Now().Add(d))
}

// timeoutError matches net.Error-style timeout checks.
type timeoutError struct{}

func (timeoutError) Error() string { return "netem: read deadline exceeded" }
func (timeoutError) Timeout() bool { return true }

// Read copies received bytes, blocking until data, EOF, error or deadline.
func (c *TCPConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.recvBuf) > 0 {
			n := copy(p, c.recvBuf)
			c.recvBuf = c.recvBuf[n:]
			return n, nil
		}
		if c.err != nil {
			return 0, c.err
		}
		if c.eof {
			return 0, io.EOF
		}
		if !c.deadline.IsZero() && time.Now().After(c.deadline) {
			return 0, timeoutError{}
		}
		c.readCond.Wait()
	}
}

// Write queues bytes for transmission, blocking when the window is full.
func (c *TCPConn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > tcpMSS {
			chunk = chunk[:tcpMSS]
		}
		c.mu.Lock()
		for c.err == nil && c.state == stateEstablished && len(c.inflight) >= tcpWindowSegs {
			c.writeCond.Wait()
		}
		if c.err != nil {
			err := c.err
			c.mu.Unlock()
			return total, err
		}
		if c.state != stateEstablished {
			c.mu.Unlock()
			return total, ErrConnClosed
		}
		seg := tcpSegment{
			SrcPort: c.key.localPort,
			DstPort: c.key.remotePort,
			Seq:     c.sndNxt,
			Ack:     c.rcvNxt,
			Flags:   tcpACK,
			Window:  0xFFFF,
			Payload: append([]byte(nil), chunk...),
		}
		c.sndNxt += uint32(len(chunk))
		c.inflight = append(c.inflight, seg)
		c.armTimerLocked()
		c.mu.Unlock()

		c.send(seg)
		total += len(chunk)
		p = p[len(chunk):]
	}
	return total, nil
}

// Close sends FIN and releases the connection.
func (c *TCPConn) Close() error {
	c.mu.Lock()
	if c.state == stateClosed {
		c.mu.Unlock()
		return nil
	}
	wasEst := c.state == stateEstablished
	c.state = stateClosed
	if c.err == nil {
		c.err = ErrConnClosed
	}
	fin := tcpSegment{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.sndNxt, Ack: c.rcvNxt, Flags: tcpFIN | tcpACK, Window: 0xFFFF,
	}
	c.finSent = true
	if c.rtTimer != nil {
		c.rtTimer.Stop()
	}
	c.mu.Unlock()
	c.readCond.Broadcast()
	c.writeCond.Broadcast()
	if wasEst {
		c.send(fin)
	}
	c.host.removeConn(c.key)
	return nil
}

func (c *TCPConn) send(seg tcpSegment) {
	_ = c.host.SendIP(c.key.remoteIP, IPProtoTCP, seg.marshal())
}

// armTimerLocked (re)schedules the retransmission timer.
func (c *TCPConn) armTimerLocked() {
	if c.rtTimer != nil {
		c.rtTimer.Stop()
	}
	c.rtTimer = time.AfterFunc(tcpRTO, c.retransmit)
}

func (c *TCPConn) retransmit() {
	c.mu.Lock()
	if c.state == stateClosed || len(c.inflight) == 0 {
		c.mu.Unlock()
		return
	}
	c.retries++
	if c.retries > tcpMaxRetries {
		c.failLocked(ErrConnTimeout)
		c.mu.Unlock()
		return
	}
	segs := append([]tcpSegment(nil), c.inflight...)
	c.armTimerLocked()
	c.mu.Unlock()
	for _, s := range segs {
		c.send(s)
	}
}

// failLocked marks the connection broken and wakes everyone.
func (c *TCPConn) failLocked(err error) {
	if c.err == nil {
		c.err = err
	}
	c.state = stateClosed
	if c.rtTimer != nil {
		c.rtTimer.Stop()
	}
	c.readCond.Broadcast()
	c.writeCond.Broadcast()
	go c.host.removeConn(c.key)
}

// handleSegment processes one inbound segment for this connection.
func (c *TCPConn) handleSegment(seg tcpSegment) {
	c.mu.Lock()

	if seg.Flags&tcpRST != 0 {
		c.failLocked(ErrConnReset)
		c.mu.Unlock()
		return
	}

	switch c.state {
	case stateSynSent:
		if seg.Flags&tcpSYN != 0 && seg.Flags&tcpACK != 0 && seg.Ack == c.sndNxt {
			c.rcvNxt = seg.Seq + 1
			c.sndUna = seg.Ack
			c.state = stateEstablished
			ack := tcpSegment{SrcPort: c.key.localPort, DstPort: c.key.remotePort,
				Seq: c.sndNxt, Ack: c.rcvNxt, Flags: tcpACK, Window: 0xFFFF}
			c.estOnce.Do(func() { close(c.estCh) })
			c.mu.Unlock()
			c.send(ack)
			return
		}
	case stateSynRcvd:
		if seg.Flags&tcpSYN != 0 && seg.Flags&tcpACK == 0 {
			// Retransmitted SYN: our SYN-ACK was lost; resend it.
			synAck := tcpSegment{SrcPort: c.key.localPort, DstPort: c.key.remotePort,
				Seq: c.sndNxt - 1, Ack: c.rcvNxt, Flags: tcpSYN | tcpACK, Window: 0xFFFF}
			c.mu.Unlock()
			c.send(synAck)
			return
		}
		if seg.Flags&tcpACK != 0 && seg.Ack == c.sndNxt {
			c.state = stateEstablished
			c.estOnce.Do(func() { close(c.estCh) })
		}
		// Fall through to data processing: the ACK may carry data.
		c.processDataLocked(seg)
		c.mu.Unlock()
		return
	case stateEstablished:
		c.processDataLocked(seg)
		c.mu.Unlock()
		return
	case stateClosed:
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
}

// processDataLocked handles ACK bookkeeping, payload delivery and FIN.
func (c *TCPConn) processDataLocked(seg tcpSegment) {
	// ACK advance.
	if seg.Flags&tcpACK != 0 && seqGE(seg.Ack, c.sndUna) {
		if seg.Ack != c.sndUna {
			c.retries = 0
		}
		c.sndUna = seg.Ack
		kept := c.inflight[:0]
		for _, s := range c.inflight {
			if seqGE(seg.Ack, s.Seq+uint32(len(s.Payload))) {
				continue // fully acked
			}
			kept = append(kept, s)
		}
		c.inflight = kept
		if len(c.inflight) == 0 && c.rtTimer != nil {
			c.rtTimer.Stop()
		} else if len(c.inflight) > 0 {
			c.armTimerLocked()
		}
		c.writeCond.Broadcast()
	}

	ackNeeded := false
	if len(seg.Payload) > 0 {
		switch {
		case seg.Seq == c.rcvNxt:
			c.recvBuf = append(c.recvBuf, seg.Payload...)
			c.rcvNxt += uint32(len(seg.Payload))
			c.readCond.Broadcast()
			ackNeeded = true
		case seqGE(c.rcvNxt, seg.Seq+uint32(len(seg.Payload))):
			ackNeeded = true // duplicate: re-ACK
		default:
			ackNeeded = true // out of order: dup-ACK, sender will retransmit
		}
	}
	if seg.Flags&tcpFIN != 0 && seg.Seq == c.rcvNxt {
		c.rcvNxt++
		c.eof = true
		c.readCond.Broadcast()
		ackNeeded = true
	}
	if ackNeeded {
		ack := tcpSegment{SrcPort: c.key.localPort, DstPort: c.key.remotePort,
			Seq: c.sndNxt, Ack: c.rcvNxt, Flags: tcpACK, Window: 0xFFFF}
		go c.send(ack)
	}
}

// seqGE reports a >= b in modular 32-bit sequence arithmetic.
func seqGE(a, b uint32) bool { return int32(a-b) >= 0 }

// Listener accepts inbound TCP-lite connections on a port.
type Listener struct {
	host   *Host
	port   uint16
	accept chan *TCPConn

	mu     sync.Mutex
	closed bool
}

// Accept blocks until a connection is established or the listener closes.
func (l *Listener) Accept() (*TCPConn, error) {
	c, ok := <-l.accept
	if !ok {
		return nil, ErrConnClosed
	}
	return c, nil
}

// Close stops accepting; established connections are unaffected.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.accept) // under mu: handleTCP sends only while it holds mu
	l.mu.Unlock()
	l.host.mu.Lock()
	delete(l.host.listeners, l.port)
	l.host.mu.Unlock()
	return nil
}

// Port returns the bound port.
func (l *Listener) Port() uint16 { return l.port }

// TCPServer runs a handler per accepted connection on a host port: the
// accept loop, live-connection set and handler accounting that every
// protocol server (MMS, Modbus) needs around its per-connection loop.
type TCPServer struct {
	ln *Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns map[*TCPConn]bool // nil once closed
}

// ServeTCP listens on port and runs handle on its own goroutine for each
// accepted connection, closing the connection when handle returns. It
// returns at once; Close stops the server.
func (h *Host) ServeTCP(port uint16, handle func(*TCPConn)) (*TCPServer, error) {
	ln, err := h.ListenTCP(port)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{ln: ln, conns: make(map[*TCPConn]bool)}
	s.wg.Add(1)
	go s.accept(handle)
	return s, nil
}

func (s *TCPServer) accept(handle func(*TCPConn)) {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.conns == nil {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			handle(conn)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live connection and waits for the
// handlers to return. Closing twice is harmless.
func (s *TCPServer) Close() {
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	s.ln.Close()
	for c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// ListenTCP binds a TCP-lite listener.
func (h *Host) ListenTCP(port uint16) (*Listener, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if port == 0 {
		port = h.ephemeralLocked()
	}
	if _, used := h.listeners[port]; used {
		return nil, fmt.Errorf("%w: tcp/%d", ErrPortBound, port)
	}
	l := &Listener{host: h, port: port, accept: make(chan *TCPConn, tcpAcceptBuffer)}
	h.listeners[port] = l
	return l, nil
}

// DialTCP opens a connection to ip:port, blocking until established.
func (h *Host) DialTCP(ip IPv4, port uint16) (*TCPConn, error) {
	h.mu.Lock()
	local := h.ephemeralLocked()
	key := connKey{localPort: local, remoteIP: ip, remotePort: port}
	c := newTCPConn(h, key, stateSynSent)
	h.tcpConns[key] = c
	h.mu.Unlock()

	syn := tcpSegment{SrcPort: local, DstPort: port, Seq: c.sndNxt - 1, Flags: tcpSYN, Window: 0xFFFF}
	deadline := time.Now().Add(tcpDialTimeout)
	for attempt := 0; ; attempt++ {
		c.send(syn)
		select {
		case <-c.estCh:
			return c, nil
		case <-time.After(150 * time.Millisecond):
		}
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err != nil && err != ErrConnClosed {
			h.removeConn(key)
			return nil, err
		}
		if time.Now().After(deadline) {
			h.removeConn(key)
			return nil, ErrConnTimeout
		}
	}
}

func (h *Host) removeConn(key connKey) {
	h.mu.Lock()
	delete(h.tcpConns, key)
	h.mu.Unlock()
}

// handleTCP demultiplexes an inbound segment to a connection or listener.
func (h *Host) handleTCP(src IPv4, seg tcpSegment) {
	key := connKey{localPort: seg.DstPort, remoteIP: src, remotePort: seg.SrcPort}
	h.mu.Lock()
	conn := h.tcpConns[key]
	listener := h.listeners[seg.DstPort]
	h.mu.Unlock()

	if conn != nil {
		conn.handleSegment(seg)
		return
	}
	if listener != nil && seg.Flags&tcpSYN != 0 && seg.Flags&tcpACK == 0 {
		// New connection: SYN-ACK and register.
		c := newTCPConn(h, key, stateSynRcvd)
		c.rcvNxt = seg.Seq + 1
		h.mu.Lock()
		if existing := h.tcpConns[key]; existing != nil {
			h.mu.Unlock()
			return // retransmitted SYN
		}
		h.tcpConns[key] = c
		h.mu.Unlock()
		synAck := tcpSegment{SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Seq: c.sndNxt - 1, Ack: c.rcvNxt, Flags: tcpSYN | tcpACK, Window: 0xFFFF}
		c.send(synAck)
		// Deliver to Accept once established.
		go func() {
			select {
			case <-c.estCh:
				// Send under the listener's lock, so Close cannot close the
				// accept channel between the closed check and the send.
				listener.mu.Lock()
				queued := false
				if !listener.closed {
					select {
					case listener.accept <- c:
						queued = true
					default: // accept backlog full
					}
				}
				listener.mu.Unlock()
				if !queued {
					_ = c.Close()
				}
			case <-time.After(tcpDialTimeout):
				_ = c.Close()
			}
		}()
		return
	}
	if seg.Flags&tcpRST == 0 {
		// Closed port: RST.
		rst := tcpSegment{SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Seq: seg.Ack, Ack: seg.Seq + 1, Flags: tcpRST | tcpACK}
		pkt := rst.marshal()
		_ = h.SendIP(src, IPProtoTCP, pkt)
	}
}
