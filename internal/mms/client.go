package mms

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netem"
)

// Client errors.
var (
	ErrTimeout      = errors.New("mms: request timeout")
	ErrClientClosed = errors.New("mms: client closed")
	ErrNoInitiate   = errors.New("mms: association not initiated")
)

// ReportHandler receives unsolicited information reports.
type ReportHandler func(ref ObjectReference, v Value)

// Client is an MMS client association, used by SCADA, PLCs — and attackers
// injecting false commands (§IV-B). Like modbus.Client it has no goroutine of
// its own: each request writes, then reads the association on the caller's
// goroutine until its own response arrives. Unsolicited reports read on the
// way go to OnReport, so a report reaches the handler during the client's
// next request.
type Client struct {
	mu       sync.Mutex // serialises requests; guards frames
	conn     *netem.TCPConn
	frames   *netem.FrameReader
	nextID   atomic.Uint32
	closed   atomic.Bool
	onReport ReportHandler
	timeout  time.Duration

	// From the initiate response; fixed once Dial returns.
	peerVendor string
	peerModel  string
}

// DialOptions tunes the client.
type DialOptions struct {
	Timeout  time.Duration // per-request; default 2 s
	Vendor   string        // reported in initiate; default "sgml-client"
	OnReport ReportHandler
}

// Dial opens a TCP association from the host and performs the MMS initiate
// handshake.
func Dial(h *netem.Host, ip netem.IPv4, port uint16, opts DialOptions) (*Client, error) {
	if port == 0 {
		port = DefaultPort
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Second
	}
	if opts.Vendor == "" {
		opts.Vendor = "sgml-client"
	}
	conn, err := h.DialTCP(ip, port)
	if err != nil {
		return nil, fmt.Errorf("mms: dial %s:%d: %w", ip, port, err)
	}
	c := &Client{conn: conn, frames: netem.NewFrameReader(conn, 4, frameSize), onReport: opts.OnReport, timeout: opts.Timeout}
	p, err := c.roundTrip(encodeInitiateRequest(nil, opts.Vendor), 0)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: initiate: %v", ErrNoInitiate, err)
	}
	if len(p.body.Children) >= 3 {
		c.peerVendor = p.body.Children[1].String()
		c.peerModel = p.body.Children[2].String()
	}
	return c, nil
}

// PeerIdentity returns the server's vendor and model from the initiate
// response.
func (c *Client) PeerIdentity() (vendor, model string) {
	return c.peerVendor, c.peerModel
}

// roundTrip writes one request and reads the association until the PDU
// answering it arrives: the initiate response for id 0, else the confirmed
// response or error carrying invoke ID id. Reports read on the way go to
// OnReport. Anything else, such as the late answer to an earlier request
// that timed out, is skipped.
func (c *Client) roundTrip(req []byte, id uint32) (pdu, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return pdu{}, ErrClientClosed
	}
	if err := writeFrame(c.conn, req); err != nil {
		return pdu{}, err
	}
	c.conn.SetReadTimeout(c.timeout)
	for {
		frame, err := c.frames.Next()
		if err != nil {
			var te interface{ Timeout() bool }
			if errors.As(err, &te) && te.Timeout() {
				return pdu{}, ErrTimeout
			}
			return pdu{}, ErrClientClosed
		}
		p, err := decodePDU(frame[4:])
		if err != nil {
			continue // tolerate garbage mid-association (tampering experiments)
		}
		switch {
		case p.kind == tagUnconfirmed:
			c.deliverReport(p)
		case id == 0 && p.kind == tagInitiateResponse,
			id != 0 && p.kind == tagConfirmedResponse && p.invokeID == id:
			return p, nil
		case id != 0 && p.kind == tagConfirmedError && p.invokeID == id:
			return pdu{}, errorFromCode(p.errCode)
		}
	}
}

func (c *Client) deliverReport(p pdu) {
	if c.onReport == nil || len(p.body.Children) == 0 {
		return
	}
	svc := p.body.Children[0]
	if len(svc.Children) < 2 {
		return
	}
	ref, err := decodeObjectName(svc.Children[0])
	if err != nil {
		return
	}
	v, err := decodeValue(svc.Children[1])
	if err != nil {
		return
	}
	c.onReport(ref, v)
}

// Read fetches the value of an object.
func (c *Client) Read(ref ObjectReference) (Value, error) {
	id := c.nextID.Add(1)
	p, err := c.roundTrip(encodeReadRequest(nil, id, ref), id)
	if err != nil {
		return Value{}, fmt.Errorf("mms: read %s: %w", ref, err)
	}
	svc := p.body.Children[1]
	if len(svc.Children) < 1 {
		return Value{}, fmt.Errorf("mms: read %s: %w", ref, ErrBadPDU)
	}
	v, err := decodeValue(svc.Children[0])
	if err != nil {
		return Value{}, fmt.Errorf("mms: read %s: %w", ref, err)
	}
	return v, nil
}

// Write sets the value of an object (the control primitive: a breaker-open
// command is a Write to the XCBR Pos.Oper object).
func (c *Client) Write(ref ObjectReference, v Value) error {
	id := c.nextID.Add(1)
	if _, err := c.roundTrip(encodeWriteRequest(nil, id, ref, v), id); err != nil {
		return fmt.Errorf("mms: write %s: %w", ref, err)
	}
	return nil
}

// GetNameList lists object references, optionally filtered by prefix.
func (c *Client) GetNameList(prefix string) ([]string, error) {
	id := c.nextID.Add(1)
	p, err := c.roundTrip(encodeGetNameListRequest(nil, id, prefix), id)
	if err != nil {
		return nil, fmt.Errorf("mms: getNameList: %w", err)
	}
	svc := p.body.Children[1]
	names := make([]string, 0, len(svc.Children))
	for _, child := range svc.Children {
		names = append(names, child.String())
	}
	return names, nil
}

// Close concludes the association. A request in flight on another goroutine
// returns ErrClientClosed.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	_ = writeFrame(c.conn, encodeConclude(nil))
	return c.conn.Close()
}
