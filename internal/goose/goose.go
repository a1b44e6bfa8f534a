// Package goose implements GOOSE (Generic Object Oriented Substation Event,
// IEC 61850-8-1) publish/subscribe messaging, substituting libiec61850's
// GOOSE layer (§III-B).
//
// GOOSE carries device status (breaker positions, protection trips) between
// IEDs as multicast Ethernet frames with EtherType 0x88B8. Publishers
// retransmit each state with an increasing interval and bump stNum on state
// changes / sqNum on retransmissions, exactly the semantics interlocking
// (CILO, Table II) depends on. Publishers are step-driven, like the rest of
// a device: the owner passes the step time to Publish and calls Step once per
// step, so retransmissions fall on step boundaries (README, "Substitutions").
// Every CILO guard is in its interlocked IED's substation, so GOOSE never
// crosses the routed WAN and the routable R-GOOSE variant is not modelled.
package goose

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ber"
	"repro/internal/mms"
	"repro/internal/netem"
)

// Message is a decoded GOOSE PDU.
type Message struct {
	GocbRef   string
	DatSet    string
	GoID      string
	Timestamp time.Time
	StNum     uint32
	SqNum     uint32
	TTLMillis uint32
	ConfRev   uint32
	Values    []mms.Value
	SrcMAC    netem.MAC
}

// Errors returned by the codec.
var ErrBadPDU = errors.New("goose: malformed PDU")

// goosePDU field tags (context-specific, after IEC 61850-8-1).
const (
	tagGocbRef  = 0x80
	tagTTL      = 0x81
	tagDatSet   = 0x82
	tagGoID     = 0x83
	tagT        = 0x84
	tagStNum    = 0x85
	tagSqNum    = 0x86
	tagSim      = 0x87
	tagConfRev  = 0x88
	tagNdsCom   = 0x89
	tagNumEnt   = 0x8A
	tagAllData  = 0xAB
	tagGoosePDU = 0x61 // APPLICATION 1 constructed
)

// Marshal encodes the message as APPID header + goosePDU, the payload of an
// 0x88B8 Ethernet frame.
func Marshal(appID uint16, m Message) []byte {
	return MarshalAppend(nil, appID, m)
}

// MarshalAppend appends the encoded message to dst and returns the extended
// buffer — the warm-path form of Marshal: with a reused dst it allocates
// nothing. The output bytes are identical to Marshal's.
func MarshalAppend(dst []byte, appID uint16, m Message) []byte {
	start := len(dst)
	// IEC 61850-8-1 session header: APPID, length, 2 reserved words.
	var e ber.Encoder
	e.UseBuf(append(dst, 0, 0, 0, 0, 0, 0, 0, 0))
	e.AppendConstructed(tagGoosePDU, func(e *ber.Encoder) {
		e.AppendString(tagGocbRef, m.GocbRef)
		e.AppendUint(tagTTL, uint64(m.TTLMillis))
		e.AppendString(tagDatSet, m.DatSet)
		e.AppendString(tagGoID, m.GoID)
		e.AppendUTCTime(tagT, m.Timestamp.Unix(), int64(m.Timestamp.Nanosecond()))
		e.AppendUint(tagStNum, uint64(m.StNum))
		e.AppendUint(tagSqNum, uint64(m.SqNum))
		e.AppendBool(tagSim, false)
		e.AppendUint(tagConfRev, uint64(m.ConfRev))
		e.AppendBool(tagNdsCom, false)
		e.AppendUint(tagNumEnt, uint64(len(m.Values)))
		e.AppendConstructed(tagAllData, func(data *ber.Encoder) {
			for _, v := range m.Values {
				mms.EncodeData(data, v)
			}
		})
	})
	out := e.Bytes()
	binary.BigEndian.PutUint16(out[start:], appID)
	binary.BigEndian.PutUint16(out[start+2:], uint16(len(out)-start))
	return out
}

// Decoder decodes GOOSE payloads reusing an internal TLV arena across calls
// (see ber.Decoder), so a long-lived subscriber or sensor decodes without
// re-allocating the TLV tree per packet. The control-block identity strings
// (gocbRef, datSet, goID) are interned — their cardinality is bounded by the
// model, so a steady-state stream re-uses one string per control block
// instead of allocating per packet. Not safe for concurrent use.
type Decoder struct {
	ber      ber.Decoder
	interned map[string]string
}

// NewDecoder returns a decoder with identity-string interning enabled — the
// right choice for long-lived consumers (subscribers, sensors). A zero-value
// Decoder still reuses its TLV arena but copies identity strings per call,
// which is cheaper for one-shot decodes.
func NewDecoder() *Decoder {
	return &Decoder{interned: make(map[string]string)}
}

// maxInterned bounds the identity-string cache; past it (which no sane model
// reaches) new strings are allocated per packet instead of cached.
const maxInterned = 4096

// intern returns a stable string for b, allocating only the first time a
// given control-block identity is seen (when interning is enabled).
func (d *Decoder) intern(b []byte) string {
	if d.interned == nil {
		return string(b)
	}
	if s, ok := d.interned[string(b)]; ok { // string() in a map index: no alloc
		return s
	}
	s := string(b)
	if len(d.interned) < maxInterned {
		d.interned[s] = s
	}
	return s
}

// Unmarshal decodes an 0x88B8 payload. It returns the APPID and message.
func Unmarshal(payload []byte) (uint16, Message, error) {
	var d Decoder
	return d.Unmarshal(payload)
}

// Unmarshal decodes an 0x88B8 payload like the package-level Unmarshal,
// reusing the decoder's arena. The returned Message owns all its data (no
// field aliases the payload), so the wire buffer may be reused immediately.
func (d *Decoder) Unmarshal(payload []byte) (uint16, Message, error) {
	var m Message
	appID, t, err := d.decodePDU(payload)
	if err != nil {
		return 0, m, err
	}
	for _, c := range t.Children {
		switch c.Tag {
		case tagGocbRef:
			m.GocbRef = d.intern(c.Value)
		case tagTTL:
			v, _ := c.Uint()
			m.TTLMillis = uint32(v)
		case tagDatSet:
			m.DatSet = d.intern(c.Value)
		case tagGoID:
			m.GoID = d.intern(c.Value)
		case tagT:
			sec, nanos, err := c.UTCTime()
			if err == nil {
				m.Timestamp = time.Unix(sec, nanos).UTC()
			}
		case tagStNum:
			v, _ := c.Uint()
			m.StNum = uint32(v)
		case tagSqNum:
			v, _ := c.Uint()
			m.SqNum = uint32(v)
		case tagConfRev:
			v, _ := c.Uint()
			m.ConfRev = uint32(v)
		case tagAllData:
			if m.Values == nil && len(c.Children) > 0 {
				m.Values = make([]mms.Value, 0, len(c.Children))
			}
			for _, d := range c.Children {
				v, err := mms.DecodeData(d)
				if err != nil {
					return 0, m, fmt.Errorf("%w: data: %v", ErrBadPDU, err)
				}
				m.Values = append(m.Values, v)
			}
		}
	}
	if m.GocbRef == "" {
		return 0, m, fmt.Errorf("%w: missing gocbRef", ErrBadPDU)
	}
	return appID, m, nil
}

// Header is a shallow summary of a GOOSE PDU for inspection paths (the IDS):
// only the fields anomaly detection needs, decoded without building values.
// GocbRef aliases the payload and must not be retained.
type Header struct {
	GocbRef []byte
	StNum   uint32
	SqNum   uint32
}

// DecodeHeader extracts the APPID and Header from an 0x88B8 payload without
// decoding the dataset values — the allocation-free inspection fast path.
func (d *Decoder) DecodeHeader(payload []byte) (uint16, Header, error) {
	var h Header
	appID, t, err := d.decodePDU(payload)
	if err != nil {
		return 0, h, err
	}
	for _, c := range t.Children {
		switch c.Tag {
		case tagGocbRef:
			h.GocbRef = c.Value
		case tagStNum:
			v, _ := c.Uint()
			h.StNum = uint32(v)
		case tagSqNum:
			v, _ := c.Uint()
			h.SqNum = uint32(v)
		}
	}
	if len(h.GocbRef) == 0 {
		return 0, h, fmt.Errorf("%w: missing gocbRef", ErrBadPDU)
	}
	return appID, h, nil
}

// decodePDU validates the session header and decodes the goosePDU element.
func (d *Decoder) decodePDU(payload []byte) (uint16, ber.TLV, error) {
	if len(payload) < 8 {
		return 0, ber.TLV{}, fmt.Errorf("%w: short header", ErrBadPDU)
	}
	appID := binary.BigEndian.Uint16(payload[0:])
	length := int(binary.BigEndian.Uint16(payload[2:]))
	if length < 8 || length > len(payload) {
		return 0, ber.TLV{}, fmt.Errorf("%w: bad length %d", ErrBadPDU, length)
	}
	t, _, err := d.ber.Decode(payload[8:length])
	if err != nil {
		return 0, ber.TLV{}, fmt.Errorf("%w: %v", ErrBadPDU, err)
	}
	if t.Tag != tagGoosePDU {
		return 0, ber.TLV{}, fmt.Errorf("%w: tag 0x%02x", ErrBadPDU, t.Tag)
	}
	return appID, t, nil
}

// heartbeat is the longest retransmission interval: a publisher whose state
// has not changed repeats it once a heartbeat.
const heartbeat = time.Second

// RetransmissionSchedule returns the delay before the n-th retransmission
// (n starting at 1): fast initial bursts backing off to the heartbeat, the
// standard GOOSE profile.
func RetransmissionSchedule(n int, heartbeat time.Duration) time.Duration {
	d := 2 * time.Millisecond
	for i := 1; i < n; i++ {
		d *= 2
		if d >= heartbeat {
			return heartbeat
		}
	}
	if d >= heartbeat {
		return heartbeat
	}
	return d
}

// PublisherConfig configures a GOOSE publisher.
type PublisherConfig struct {
	GocbRef string
	DatSet  string
	GoID    string
	AppID   uint16
	ConfRev uint32
}

// Publisher multicasts the current dataset state. It has no timer of its
// own: Publish sends a new state, and the owner's Step sends the
// retransmissions that have fallen due, so they land on step boundaries.
type Publisher struct {
	cfg  PublisherConfig
	host *netem.Host
	mac  netem.MAC

	mu      sync.Mutex
	values  []mms.Value
	stNum   uint32
	sqNum   uint32
	retrans int
	due     time.Time // next retransmission; zero before the first Publish
	sent    uint64
}

// NewPublisher creates a publisher multicasting on a host NIC.
func NewPublisher(h *netem.Host, cfg PublisherConfig) *Publisher {
	return &Publisher{cfg: cfg, host: h, mac: netem.GooseMAC(cfg.AppID)}
}

// Publish announces a new dataset state at now: stNum increments, sqNum
// resets, and the retransmission burst restarts. The values are copied into
// a reused per-publisher buffer, so a steady-state publish allocates nothing.
func (p *Publisher) Publish(now time.Time, values ...mms.Value) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.values = append(p.values[:0], values...)
	p.stNum++
	p.sqNum = 0
	p.retrans = 0
	p.sendLocked(now)
}

// Step retransmits the current state if its retransmission is due at now.
// It sends at most one frame per call.
func (p *Publisher) Step(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stNum == 0 || now.Before(p.due) {
		return
	}
	p.sendLocked(now)
}

// Sent reports frames transmitted (including retransmissions).
func (p *Publisher) Sent() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent
}

// StNum returns the current state number.
func (p *Publisher) StNum() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stNum
}

// sendLocked transmits the current state stamped with now and schedules the
// next retransmission; the frame's TTL is twice that delay.
func (p *Publisher) sendLocked(now time.Time) {
	delay := RetransmissionSchedule(p.retrans+1, heartbeat)
	msg := Message{
		GocbRef:   p.cfg.GocbRef,
		DatSet:    p.cfg.DatSet,
		GoID:      p.cfg.GoID,
		Timestamp: now,
		StNum:     p.stNum,
		SqNum:     p.sqNum,
		TTLMillis: uint32(2 * delay / time.Millisecond),
		ConfRev:   p.cfg.ConfRev,
		Values:    p.values,
	}
	p.sqNum++
	p.retrans++
	p.due = now.Add(delay)
	// Marshal into a fabric-pooled buffer and hand ownership to the fabric;
	// the terminal deliverer releases it (zero-allocation warm path).
	pb := p.host.AllocPayload()
	pb.B = MarshalAppend(pb.B, p.cfg.AppID, msg)
	p.host.SendPooled(p.mac, netem.EtherTypeGOOSE, pb)
	p.sent++
}

// Update is a decoded message delivered to a subscriber, annotated with
// whether it announces a new state (stNum changed) or is a retransmission.
type Update struct {
	Message  Message
	AppID    uint16
	NewState bool
}

// Subscriber receives GOOSE messages for one APPID group.
type Subscriber struct {
	mu       sync.Mutex
	lastSt   map[string]uint32 // gocbRef -> last stNum
	received uint64
	dropped  uint64
	ch       chan Update
}

// Subscribe joins the multicast group for appID on the host and returns the
// subscriber. The returned channel yields every received message; NewState
// distinguishes fresh states from retransmissions.
func Subscribe(h *netem.Host, appID uint16) *Subscriber {
	s := &Subscriber{lastSt: make(map[string]uint32), ch: make(chan Update, 256)}
	h.JoinMulticast(netem.GooseMAC(appID))
	// The handler runs on the host's single worker goroutine, so the arena
	// decoder needs no locking. The decoded Message copies everything it
	// keeps, honouring the fabric's pooled-payload ownership rules.
	dec := NewDecoder()
	h.HandleEtherType(netem.EtherTypeGOOSE, func(f netem.Frame) {
		gotID, msg, err := dec.Unmarshal(f.Payload)
		if err != nil || gotID != appID {
			return
		}
		msg.SrcMAC = f.Src
		s.deliver(gotID, msg)
	})
	return s
}

func (s *Subscriber) deliver(appID uint16, msg Message) {
	s.mu.Lock()
	last, seen := s.lastSt[msg.GocbRef]
	isNew := !seen || msg.StNum != last
	s.lastSt[msg.GocbRef] = msg.StNum
	s.received++
	s.mu.Unlock()
	select {
	case s.ch <- Update{Message: msg, AppID: appID, NewState: isNew}:
	default: // slow subscriber: GOOSE is fire-and-forget
		s.mu.Lock()
		s.dropped++
		s.mu.Unlock()
	}
}

// Updates returns the delivery channel.
func (s *Subscriber) Updates() <-chan Update { return s.ch }

// Received reports total messages seen (including retransmissions).
func (s *Subscriber) Received() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received
}

// Dropped reports updates lost because the subscriber's channel was full —
// the per-subscriber accounting sv.Subscriber.Stats has always had and the
// GOOSE side silently lacked.
func (s *Subscriber) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
