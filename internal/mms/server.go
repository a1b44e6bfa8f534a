package mms

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ber"
	"repro/internal/netem"
)

// DefaultPort is the ISO transport port MMS servers listen on.
const DefaultPort = 102

// MMS error codes carried in confirmedError PDUs.
const (
	errCodeObjectNotFound   = 10
	errCodeAccessDenied     = 3
	errCodeTypeInconsistent = 7
)

// Server errors.
var (
	ErrObjectNotFound = errors.New("mms: object not found")
	ErrAccessDenied   = errors.New("mms: access denied")
	ErrServerClosed   = errors.New("mms: server closed")
)

// WriteHandler intercepts a write to a control object. Returning an error
// rejects the write with an access-denied response.
type WriteHandler func(ref ObjectReference, v Value) error

// Server is an MMS server hosting a variable tree — the network face of a
// virtual IED or PLC.
type Server struct {
	Vendor string
	Model  string

	mu        sync.RWMutex
	vars      map[ObjectReference]Value
	handlers  map[ObjectReference]WriteHandler
	readOnly  map[ObjectReference]bool
	listener  *netem.Listener
	conns     map[*netem.TCPConn]bool
	reporters map[*netem.TCPConn]bool
	closed    bool
	wg        sync.WaitGroup

	// Stats for the experiment harness.
	reads  uint64
	writes uint64
}

// NewServer returns an empty server.
func NewServer(vendor, model string) *Server {
	return &Server{
		Vendor:    vendor,
		Model:     model,
		vars:      make(map[ObjectReference]Value),
		handlers:  make(map[ObjectReference]WriteHandler),
		readOnly:  make(map[ObjectReference]bool),
		conns:     make(map[*netem.TCPConn]bool),
		reporters: make(map[*netem.TCPConn]bool),
	}
}

// Define creates or replaces a variable.
func (s *Server) Define(ref ObjectReference, v Value) {
	s.mu.Lock()
	s.vars[ref] = v
	s.mu.Unlock()
}

// DefineReadOnly creates a variable that rejects client writes.
func (s *Server) DefineReadOnly(ref ObjectReference, v Value) {
	s.mu.Lock()
	s.vars[ref] = v
	s.readOnly[ref] = true
	s.mu.Unlock()
}

// OnWrite installs a write handler for a control object. The variable is
// created with the given initial value.
func (s *Server) OnWrite(ref ObjectReference, initial Value, h WriteHandler) {
	s.mu.Lock()
	s.vars[ref] = initial
	s.handlers[ref] = h
	s.mu.Unlock()
}

// Update sets a variable's value locally (e.g. fresh measurement) without
// invoking write handlers.
func (s *Server) Update(ref ObjectReference, v Value) {
	s.mu.Lock()
	s.vars[ref] = v
	s.mu.Unlock()
}

// Get returns the current value of a variable.
func (s *Server) Get(ref ObjectReference) (Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.vars[ref]
	return v, ok
}

// Names returns all object references, sorted.
func (s *Server) Names() []ObjectReference {
	s.mu.RLock()
	out := make([]ObjectReference, 0, len(s.vars))
	for ref := range s.vars {
		out = append(out, ref)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats reports served read and write counts.
func (s *Server) Stats() (reads, writes uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reads, s.writes
}

// Serve starts accepting MMS associations on the host's port. It returns
// immediately; call Close to stop.
func (s *Server) Serve(h *netem.Host, port uint16) error {
	if port == 0 {
		port = DefaultPort
	}
	ln, err := h.ListenTCP(port)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = true
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
	return nil
}

// Close stops the server and tears down associations.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.listener
	conns := make([]*netem.TCPConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// Report pushes an information report for ref to every associated client
// that completed the initiate handshake.
func (s *Server) Report(ref ObjectReference, v Value) {
	payload := encodeInfoReport(nil, ref, v)
	s.mu.RLock()
	var targets []*netem.TCPConn
	for c, ok := range s.reporters {
		if ok {
			targets = append(targets, c)
		}
	}
	s.mu.RUnlock()
	for _, c := range targets {
		_ = writeFrame(c, payload)
	}
}

func (s *Server) serveConn(conn *netem.TCPConn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		delete(s.reporters, conn)
		s.mu.Unlock()
	}()
	// Per-connection scratch: the TLV arena and one frame buffer are reused
	// across requests, so the steady-state request/response loop (a PLC's
	// per-scan reads) is allocation-light. The response PDU is encoded in
	// place after a reserved 4-byte TPKT header (the MarshalAppend pattern),
	// so each reply is built and written without an intermediate copy. Safe
	// because each pdu is fully consumed before the next decode.
	var (
		dec      ber.Decoder
		frameBuf []byte
	)
	// hdr resets the frame buffer to a TPKT header placeholder for the next
	// in-place encode; reply back-patches the length and writes the frame.
	hdr := func() []byte {
		return append(frameBuf[:0], 0x03, 0x00, 0, 0)
	}
	reply := func(frame []byte) error {
		frameBuf = frame
		if len(frame) > 0xFFFF {
			return ErrTooLarge
		}
		frame[2] = byte(len(frame) >> 8)
		frame[3] = byte(len(frame))
		_, err := conn.Write(frame)
		return err
	}
	for {
		payload, err := readFrame(conn)
		if err != nil {
			return
		}
		p, err := decodePDUArena(&dec, payload)
		if err != nil {
			return // malformed association: drop it
		}
		switch p.kind {
		case tagInitiateRequest:
			// Register as a report target before replying, holding the lock
			// across the reply: a Report issued once the client's Dial has
			// returned reaches this connection, and no report can reach the
			// wire ahead of the initiate response.
			s.mu.Lock()
			s.reporters[conn] = true
			err := reply(encodeInitiateResponse(hdr(), s.Vendor, s.Model))
			s.mu.Unlock()
			if err != nil {
				return
			}
		case tagConclude:
			return
		case tagConfirmedRequest:
			if err := reply(s.handleRequest(hdr(), p)); err != nil {
				return
			}
		default:
			// Responses/reports from a client make no sense; ignore.
		}
	}
}

// handleRequest appends the response PDU to dst and returns it.
func (s *Server) handleRequest(dst []byte, p pdu) []byte {
	svcTLV := p.body.Children[1]
	switch p.service {
	case svcRead:
		if len(svcTLV.Children) < 1 {
			return encodeErrorResponse(dst, p.invokeID, errCodeObjectNotFound)
		}
		ref, err := decodeObjectName(svcTLV.Children[0])
		if err != nil {
			return encodeErrorResponse(dst, p.invokeID, errCodeObjectNotFound)
		}
		s.mu.Lock()
		v, ok := s.vars[ref]
		s.reads++
		s.mu.Unlock()
		if !ok {
			return encodeErrorResponse(dst, p.invokeID, errCodeObjectNotFound)
		}
		return encodeReadResponse(dst, p.invokeID, v)

	case svcWrite:
		if len(svcTLV.Children) < 2 {
			return encodeErrorResponse(dst, p.invokeID, errCodeTypeInconsistent)
		}
		ref, err := decodeObjectName(svcTLV.Children[0])
		if err != nil {
			return encodeErrorResponse(dst, p.invokeID, errCodeObjectNotFound)
		}
		v, err := decodeValue(svcTLV.Children[1])
		if err != nil {
			return encodeErrorResponse(dst, p.invokeID, errCodeTypeInconsistent)
		}
		s.mu.Lock()
		_, exists := s.vars[ref]
		ro := s.readOnly[ref]
		handler := s.handlers[ref]
		s.mu.Unlock()
		if !exists {
			return encodeErrorResponse(dst, p.invokeID, errCodeObjectNotFound)
		}
		if ro {
			return encodeErrorResponse(dst, p.invokeID, errCodeAccessDenied)
		}
		if handler != nil {
			if err := handler(ref, v); err != nil {
				return encodeErrorResponse(dst, p.invokeID, errCodeAccessDenied)
			}
		}
		s.mu.Lock()
		s.vars[ref] = v
		s.writes++
		s.mu.Unlock()
		return encodeWriteResponse(dst, p.invokeID)

	case svcGetNameList:
		prefix := ""
		if len(svcTLV.Children) > 0 {
			prefix = svcTLV.Children[0].String()
		}
		var names []string
		for _, ref := range s.Names() {
			if prefix == "" || strings.HasPrefix(string(ref), prefix) {
				names = append(names, string(ref))
			}
		}
		return encodeGetNameListResponse(dst, p.invokeID, names)

	default:
		return encodeErrorResponse(dst, p.invokeID, errCodeObjectNotFound)
	}
}

// errorFromCode maps a wire error code back to a sentinel error.
func errorFromCode(code int64) error {
	switch code {
	case errCodeObjectNotFound:
		return ErrObjectNotFound
	case errCodeAccessDenied:
		return ErrAccessDenied
	default:
		return fmt.Errorf("mms: service error %d", code)
	}
}
