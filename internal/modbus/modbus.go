// Package modbus implements Modbus/TCP, the protocol between the SCADA HMI
// and the virtual PLC ("OpenPLC61850 supports Modbus communication protocol
// (for interacting with SCADA)", §III-B).
//
// It provides a register-table server with write hooks (the PLC's northbound
// face) and a client (the SCADA poller), speaking standard MBAP framing with
// function codes 1-6, 15 and 16, including proper exception responses. Both
// ends read MBAP frames through netem's FrameReader, and the client skips
// responses whose transaction ID is not its request's, so the late answer to
// a timed-out request cannot desynchronise the association.
package modbus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/netem"
)

// DefaultPort is the registered Modbus/TCP port.
const DefaultPort = 502

// Function codes.
const (
	FuncReadCoils          = 1
	FuncReadDiscreteInputs = 2
	FuncReadHolding        = 3
	FuncReadInput          = 4
	FuncWriteSingleCoil    = 5
	FuncWriteSingleReg     = 6
	FuncWriteMultiCoils    = 15
	FuncWriteMultiRegs     = 16
)

// Exception codes.
const (
	ExIllegalFunction = 1
	ExIllegalAddress  = 2
	ExIllegalValue    = 3
	ExServerFailure   = 4
)

// Errors returned by the client.
var (
	ErrException = errors.New("modbus: exception response")
	ErrFraming   = errors.New("modbus: bad frame")
	ErrClosed    = errors.New("modbus: connection closed")
)

// ExceptionError carries the exception code of a failed request.
type ExceptionError struct {
	Function byte
	Code     byte
}

func (e *ExceptionError) Error() string {
	return fmt.Sprintf("modbus: function %d exception %d", e.Function, e.Code)
}

// Is reports that an ExceptionError matches ErrException.
func (e *ExceptionError) Is(target error) bool { return target == ErrException }

// mbapLen is the length of the MBAP header: transaction ID, protocol ID,
// length (of the unit ID and PDU) and unit ID.
const mbapLen = 7

// aduSize is the one check of an MBAP header: protocol ID 0 and a length
// that covers the unit ID and a PDU of 1-259 bytes. It is the size function
// of every Modbus frame reader.
func aduSize(hdr []byte) (int, error) {
	if binary.BigEndian.Uint16(hdr[2:]) != 0 {
		return 0, fmt.Errorf("%w: protocol id", ErrFraming)
	}
	length := int(binary.BigEndian.Uint16(hdr[4:]))
	if length < 2 || length > 260 {
		return 0, fmt.Errorf("%w: length %d", ErrFraming, length)
	}
	return 6 + length, nil
}

// adu frames pdu behind an MBAP header.
func adu(txID uint16, unitID byte, pdu []byte) []byte {
	buf := make([]byte, mbapLen, mbapLen+len(pdu))
	binary.BigEndian.PutUint16(buf[0:], txID)
	binary.BigEndian.PutUint16(buf[4:], uint16(1+len(pdu)))
	buf[6] = unitID
	return append(buf, pdu...)
}

// CoilWriteHook observes a committed coil write (PLC command intake).
type CoilWriteHook func(addr uint16, value bool)

// RegWriteHook observes a committed holding-register write.
type RegWriteHook func(addr uint16, value uint16)

// Server is a Modbus/TCP register-table server.
type Server struct {
	mu       sync.RWMutex
	coils    []bool
	discrete []bool
	holding  []uint16
	input    []uint16
	onCoil   CoilWriteHook
	onReg    RegWriteHook
	tcp      *netem.TCPServer
	closed   bool
	requests uint64
}

// NewServer allocates a server with the given table sizes.
func NewServer(coils, discrete, holding, input int) *Server {
	return &Server{
		coils:    make([]bool, coils),
		discrete: make([]bool, discrete),
		holding:  make([]uint16, holding),
		input:    make([]uint16, input),
	}
}

// OnCoilWrite installs the coil write hook.
func (s *Server) OnCoilWrite(h CoilWriteHook) {
	s.mu.Lock()
	s.onCoil = h
	s.mu.Unlock()
}

// OnRegisterWrite installs the holding-register write hook.
func (s *Server) OnRegisterWrite(h RegWriteHook) {
	s.mu.Lock()
	s.onReg = h
	s.mu.Unlock()
}

// SetInput sets an input register (measurement exposure).
func (s *Server) SetInput(addr int, v uint16) {
	s.mu.Lock()
	if addr >= 0 && addr < len(s.input) {
		s.input[addr] = v
	}
	s.mu.Unlock()
}

// SetDiscrete sets a discrete input (status exposure).
func (s *Server) SetDiscrete(addr int, v bool) {
	s.mu.Lock()
	if addr >= 0 && addr < len(s.discrete) {
		s.discrete[addr] = v
	}
	s.mu.Unlock()
}

// SetHolding sets a holding register locally.
func (s *Server) SetHolding(addr int, v uint16) {
	s.mu.Lock()
	if addr >= 0 && addr < len(s.holding) {
		s.holding[addr] = v
	}
	s.mu.Unlock()
}

// SetCoil sets a coil locally (without firing the hook).
func (s *Server) SetCoil(addr int, v bool) {
	s.mu.Lock()
	if addr >= 0 && addr < len(s.coils) {
		s.coils[addr] = v
	}
	s.mu.Unlock()
}

// Coil reads a coil.
func (s *Server) Coil(addr int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if addr < 0 || addr >= len(s.coils) {
		return false
	}
	return s.coils[addr]
}

// InputReg reads an input register.
func (s *Server) InputReg(addr int) uint16 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if addr < 0 || addr >= len(s.input) {
		return 0
	}
	return s.input[addr]
}

// Discrete reads a discrete input.
func (s *Server) Discrete(addr int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if addr < 0 || addr >= len(s.discrete) {
		return false
	}
	return s.discrete[addr]
}

// Holding reads a holding register.
func (s *Server) Holding(addr int) uint16 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if addr < 0 || addr >= len(s.holding) {
		return 0
	}
	return s.holding[addr]
}

// Requests reports the number of served PDUs.
func (s *Server) Requests() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.requests
}

// Serve starts accepting connections on the host.
func (s *Server) Serve(h *netem.Host, port uint16) error {
	if port == 0 {
		port = DefaultPort
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	tcp, err := h.ServeTCP(port, s.serveConn)
	if err != nil {
		return err
	}
	s.tcp = tcp
	return nil
}

// Close stops the server.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	tcp := s.tcp
	s.mu.Unlock()
	if tcp != nil {
		tcp.Close()
	}
}

func (s *Server) serveConn(conn *netem.TCPConn) {
	frames := netem.NewFrameReader(conn, mbapLen, aduSize)
	for {
		req, err := frames.Next()
		if err != nil {
			return
		}
		resp := s.handlePDU(req[mbapLen:])
		if _, err := conn.Write(adu(binary.BigEndian.Uint16(req), req[6], resp)); err != nil {
			return
		}
	}
}

func exception(fn, code byte) []byte { return []byte{fn | 0x80, code} }

func (s *Server) handlePDU(pdu []byte) []byte {
	if len(pdu) < 1 {
		return exception(0, ExIllegalFunction)
	}
	fn := pdu[0]
	s.mu.Lock()
	s.requests++
	s.mu.Unlock()
	switch fn {
	case FuncReadCoils, FuncReadDiscreteInputs:
		if len(pdu) < 5 {
			return exception(fn, ExIllegalValue)
		}
		addr := binary.BigEndian.Uint16(pdu[1:])
		count := binary.BigEndian.Uint16(pdu[3:])
		if count == 0 || count > 2000 {
			return exception(fn, ExIllegalValue)
		}
		s.mu.RLock()
		table := s.coils
		if fn == FuncReadDiscreteInputs {
			table = s.discrete
		}
		if int(addr)+int(count) > len(table) {
			s.mu.RUnlock()
			return exception(fn, ExIllegalAddress)
		}
		nbytes := (int(count) + 7) / 8
		resp := make([]byte, 2+nbytes)
		resp[0], resp[1] = fn, byte(nbytes)
		for i := 0; i < int(count); i++ {
			if table[int(addr)+i] {
				resp[2+i/8] |= 1 << (i % 8)
			}
		}
		s.mu.RUnlock()
		return resp

	case FuncReadHolding, FuncReadInput:
		if len(pdu) < 5 {
			return exception(fn, ExIllegalValue)
		}
		addr := binary.BigEndian.Uint16(pdu[1:])
		count := binary.BigEndian.Uint16(pdu[3:])
		if count == 0 || count > 125 {
			return exception(fn, ExIllegalValue)
		}
		s.mu.RLock()
		table := s.holding
		if fn == FuncReadInput {
			table = s.input
		}
		if int(addr)+int(count) > len(table) {
			s.mu.RUnlock()
			return exception(fn, ExIllegalAddress)
		}
		resp := make([]byte, 2+2*int(count))
		resp[0], resp[1] = fn, byte(2*count)
		for i := 0; i < int(count); i++ {
			binary.BigEndian.PutUint16(resp[2+2*i:], table[int(addr)+i])
		}
		s.mu.RUnlock()
		return resp

	case FuncWriteSingleCoil:
		if len(pdu) < 5 {
			return exception(fn, ExIllegalValue)
		}
		addr := binary.BigEndian.Uint16(pdu[1:])
		raw := binary.BigEndian.Uint16(pdu[3:])
		if raw != 0x0000 && raw != 0xFF00 {
			return exception(fn, ExIllegalValue)
		}
		v := raw == 0xFF00
		s.mu.Lock()
		if int(addr) >= len(s.coils) {
			s.mu.Unlock()
			return exception(fn, ExIllegalAddress)
		}
		s.coils[addr] = v
		hook := s.onCoil
		s.mu.Unlock()
		if hook != nil {
			hook(addr, v)
		}
		return append([]byte(nil), pdu[:5]...)

	case FuncWriteSingleReg:
		if len(pdu) < 5 {
			return exception(fn, ExIllegalValue)
		}
		addr := binary.BigEndian.Uint16(pdu[1:])
		v := binary.BigEndian.Uint16(pdu[3:])
		s.mu.Lock()
		if int(addr) >= len(s.holding) {
			s.mu.Unlock()
			return exception(fn, ExIllegalAddress)
		}
		s.holding[addr] = v
		hook := s.onReg
		s.mu.Unlock()
		if hook != nil {
			hook(addr, v)
		}
		return append([]byte(nil), pdu[:5]...)

	case FuncWriteMultiCoils:
		if len(pdu) < 6 {
			return exception(fn, ExIllegalValue)
		}
		addr := binary.BigEndian.Uint16(pdu[1:])
		count := binary.BigEndian.Uint16(pdu[3:])
		nbytes := int(pdu[5])
		if count == 0 || count > 1968 || nbytes != (int(count)+7)/8 || len(pdu) < 6+nbytes {
			return exception(fn, ExIllegalValue)
		}
		s.mu.Lock()
		if int(addr)+int(count) > len(s.coils) {
			s.mu.Unlock()
			return exception(fn, ExIllegalAddress)
		}
		hook := s.onCoil
		changed := make([]bool, count)
		for i := 0; i < int(count); i++ {
			v := pdu[6+i/8]&(1<<(i%8)) != 0
			s.coils[int(addr)+i] = v
			changed[i] = v
		}
		s.mu.Unlock()
		if hook != nil {
			for i, v := range changed {
				hook(addr+uint16(i), v)
			}
		}
		resp := make([]byte, 5)
		resp[0] = fn
		binary.BigEndian.PutUint16(resp[1:], addr)
		binary.BigEndian.PutUint16(resp[3:], count)
		return resp

	case FuncWriteMultiRegs:
		if len(pdu) < 6 {
			return exception(fn, ExIllegalValue)
		}
		addr := binary.BigEndian.Uint16(pdu[1:])
		count := binary.BigEndian.Uint16(pdu[3:])
		nbytes := int(pdu[5])
		if count == 0 || count > 123 || nbytes != 2*int(count) || len(pdu) < 6+nbytes {
			return exception(fn, ExIllegalValue)
		}
		s.mu.Lock()
		if int(addr)+int(count) > len(s.holding) {
			s.mu.Unlock()
			return exception(fn, ExIllegalAddress)
		}
		hook := s.onReg
		vals := make([]uint16, count)
		for i := 0; i < int(count); i++ {
			v := binary.BigEndian.Uint16(pdu[6+2*i:])
			s.holding[int(addr)+i] = v
			vals[i] = v
		}
		s.mu.Unlock()
		if hook != nil {
			for i, v := range vals {
				hook(addr+uint16(i), v)
			}
		}
		resp := make([]byte, 5)
		resp[0] = fn
		binary.BigEndian.PutUint16(resp[1:], addr)
		binary.BigEndian.PutUint16(resp[3:], count)
		return resp

	default:
		return exception(fn, ExIllegalFunction)
	}
}

// Client is a Modbus/TCP master.
type Client struct {
	mu      sync.Mutex // serialises requests; guards frames and txID
	conn    *netem.TCPConn
	frames  *netem.FrameReader
	txID    uint16
	timeout time.Duration
}

// DialClient connects to a Modbus server.
func DialClient(h *netem.Host, ip netem.IPv4, port uint16, timeout time.Duration) (*Client, error) {
	if port == 0 {
		port = DefaultPort
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	conn, err := h.DialTCP(ip, port)
	if err != nil {
		return nil, fmt.Errorf("modbus: dial %s:%d: %w", ip, port, err)
	}
	return &Client{conn: conn, frames: netem.NewFrameReader(conn, mbapLen, aduSize), timeout: timeout}, nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip issues one request PDU and reads the connection until the
// response carrying its transaction ID arrives, skipping the late responses
// of requests that timed out. Requests are serialised: Modbus/TCP allows one
// outstanding transaction.
func (c *Client) roundTrip(pdu []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.txID++
	if _, err := c.conn.Write(adu(c.txID, 1, pdu)); err != nil {
		return nil, err
	}
	c.conn.SetReadTimeout(c.timeout)
	for {
		frame, err := c.frames.Next()
		if err != nil {
			return nil, err
		}
		if binary.BigEndian.Uint16(frame) != c.txID {
			continue
		}
		resp := frame[mbapLen:]
		if len(resp) >= 2 && resp[0]&0x80 != 0 {
			return nil, &ExceptionError{Function: resp[0] & 0x7F, Code: resp[1]}
		}
		return slices.Clone(resp), nil // frame is reused by the next request
	}
}

func readReq(fn byte, addr, count uint16) []byte {
	pdu := make([]byte, 5)
	pdu[0] = fn
	binary.BigEndian.PutUint16(pdu[1:], addr)
	binary.BigEndian.PutUint16(pdu[3:], count)
	return pdu
}

// ReadCoils reads coil states.
func (c *Client) ReadCoils(addr, count uint16) ([]bool, error) {
	return c.readBits(FuncReadCoils, addr, count)
}

// ReadDiscreteInputs reads discrete input states.
func (c *Client) ReadDiscreteInputs(addr, count uint16) ([]bool, error) {
	return c.readBits(FuncReadDiscreteInputs, addr, count)
}

func (c *Client) readBits(fn byte, addr, count uint16) ([]bool, error) {
	resp, err := c.roundTrip(readReq(fn, addr, count))
	if err != nil {
		return nil, err
	}
	if len(resp) < 2 || len(resp) < 2+int(resp[1]) {
		return nil, ErrFraming
	}
	out := make([]bool, count)
	for i := range out {
		out[i] = resp[2+i/8]&(1<<(i%8)) != 0
	}
	return out, nil
}

// ReadHolding reads holding registers.
func (c *Client) ReadHolding(addr, count uint16) ([]uint16, error) {
	return c.readRegs(FuncReadHolding, addr, count)
}

// ReadInput reads input registers.
func (c *Client) ReadInput(addr, count uint16) ([]uint16, error) {
	return c.readRegs(FuncReadInput, addr, count)
}

func (c *Client) readRegs(fn byte, addr, count uint16) ([]uint16, error) {
	resp, err := c.roundTrip(readReq(fn, addr, count))
	if err != nil {
		return nil, err
	}
	if len(resp) < 2 || len(resp) < 2+int(resp[1]) || int(resp[1]) != 2*int(count) {
		return nil, ErrFraming
	}
	out := make([]uint16, count)
	for i := range out {
		out[i] = binary.BigEndian.Uint16(resp[2+2*i:])
	}
	return out, nil
}

// WriteCoil writes a single coil.
func (c *Client) WriteCoil(addr uint16, v bool) error {
	raw := uint16(0)
	if v {
		raw = 0xFF00
	}
	pdu := make([]byte, 5)
	pdu[0] = FuncWriteSingleCoil
	binary.BigEndian.PutUint16(pdu[1:], addr)
	binary.BigEndian.PutUint16(pdu[3:], raw)
	_, err := c.roundTrip(pdu)
	return err
}

// WriteRegister writes a single holding register.
func (c *Client) WriteRegister(addr, v uint16) error {
	pdu := make([]byte, 5)
	pdu[0] = FuncWriteSingleReg
	binary.BigEndian.PutUint16(pdu[1:], addr)
	binary.BigEndian.PutUint16(pdu[3:], v)
	_, err := c.roundTrip(pdu)
	return err
}

// WriteCoils writes multiple coils starting at addr.
func (c *Client) WriteCoils(addr uint16, vals []bool) error {
	nbytes := (len(vals) + 7) / 8
	pdu := make([]byte, 6+nbytes)
	pdu[0] = FuncWriteMultiCoils
	binary.BigEndian.PutUint16(pdu[1:], addr)
	binary.BigEndian.PutUint16(pdu[3:], uint16(len(vals)))
	pdu[5] = byte(nbytes)
	for i, v := range vals {
		if v {
			pdu[6+i/8] |= 1 << (i % 8)
		}
	}
	_, err := c.roundTrip(pdu)
	return err
}

// WriteRegisters writes multiple holding registers starting at addr.
func (c *Client) WriteRegisters(addr uint16, vals []uint16) error {
	pdu := make([]byte, 6+2*len(vals))
	pdu[0] = FuncWriteMultiRegs
	binary.BigEndian.PutUint16(pdu[1:], addr)
	binary.BigEndian.PutUint16(pdu[3:], uint16(len(vals)))
	pdu[5] = byte(2 * len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint16(pdu[6+2*i:], v)
	}
	_, err := c.roundTrip(pdu)
	return err
}
