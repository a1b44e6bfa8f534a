// Package sv implements routable Sampled Values (R-SV, IEC TR 61850-90-5
// carrying the IEC 61850-9-2 savPdu), substituting libiec61850's SV layer
// (§III-B).
//
// SV streams power-grid measurements (phase currents and voltages) between
// merging units and IEDs. In the cyber range R-SV carries measurements
// between substations for differential protection (PDIF, Table II): each
// gateway IED streams its local line current to the remote end, which
// compares the two. No model streams SV on a LAN, so the L2 (EtherType
// 0x88BA) transport is not modelled; samples travel as UDP datagrams across
// the WAN (README, "Substitutions"). Streams are step-driven at both ends:
// the owner calls PublishNow once per step, stamping RefrTm with the step
// time, and drains its subscription with Poll, so the range's step clock
// sets the sampling rate and no SV goroutine runs.
package sv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/ber"
	"repro/internal/netem"
)

// RSVPort is the UDP port used for routable SV.
const RSVPort = 103

// ErrBadPDU is returned for malformed SV payloads.
var ErrBadPDU = errors.New("sv: malformed PDU")

// Sample is one ASDU: a snapshot of measured values.
type Sample struct {
	SvID    string
	SmpCnt  uint16
	ConfRev uint32
	// Values carries the dataset in dataset order (e.g. [iA, iB, iC, vA, vB, vC]
	// or a single line current for R-SV differential exchange).
	Values []float64
	// RefrTm is the refresh timestamp.
	RefrTm time.Time
}

// PDU field tags (context-specific, after IEC 61850-9-2 savPdu).
const (
	tagSavPDU   = 0x60 // APPLICATION 0 constructed
	tagNoASDU   = 0x80
	tagSeqASDU  = 0xA2
	tagASDU     = 0x30
	tagSvID     = 0x80
	tagSmpCnt   = 0x82
	tagConfRev  = 0x83
	tagRefrTm   = 0x84
	tagSamples  = 0x87
	tagSmpSynch = 0x85
)

// Marshal encodes APPID header + savPdu with one ASDU.
func Marshal(appID uint16, s Sample) []byte {
	return MarshalAppend(nil, appID, s)
}

// MarshalAppend appends the encoded sample to dst and returns the extended
// buffer — the warm-path form of Marshal: with a reused dst it allocates
// nothing. The output bytes are identical to Marshal's.
func MarshalAppend(dst []byte, appID uint16, s Sample) []byte {
	start := len(dst)
	var e ber.Encoder
	e.UseBuf(append(dst, 0, 0, 0, 0, 0, 0, 0, 0))
	e.AppendConstructed(tagSavPDU, func(e *ber.Encoder) {
		e.AppendUint(tagNoASDU, 1)
		e.AppendConstructed(tagSeqASDU, func(seq *ber.Encoder) {
			seq.AppendConstructed(tagASDU, func(a *ber.Encoder) {
				a.AppendString(tagSvID, s.SvID)
				var cnt [2]byte
				binary.BigEndian.PutUint16(cnt[:], s.SmpCnt)
				a.AppendTLV(tagSmpCnt, cnt[:])
				a.AppendUint(tagConfRev, uint64(s.ConfRev))
				a.AppendUTCTime(tagRefrTm, s.RefrTm.Unix(), int64(s.RefrTm.Nanosecond()))
				a.AppendTLV(tagSmpSynch, []byte{0x01})
				// Samples: packed IEEE-754 doubles (the production protocol
				// uses scaled INT32; doubles keep the simulator exact),
				// appended in place inside the constructed element.
				a.AppendTLVFunc(tagSamples, func(e *ber.Encoder) {
					var w [8]byte
					for _, v := range s.Values {
						binary.BigEndian.PutUint64(w[:], math.Float64bits(v))
						e.AppendRaw(w[:])
					}
				})
			})
		})
	})
	out := e.Bytes()
	binary.BigEndian.PutUint16(out[start:], appID)
	binary.BigEndian.PutUint16(out[start+2:], uint16(len(out)-start))
	return out
}

// Decoder decodes SV payloads reusing an internal TLV arena across calls
// (see ber.Decoder). Not safe for concurrent use.
type Decoder struct {
	ber ber.Decoder
}

// Unmarshal decodes an SV payload, returning APPID and the first ASDU.
func Unmarshal(payload []byte) (uint16, Sample, error) {
	var d Decoder
	return d.Unmarshal(payload)
}

// Unmarshal decodes like the package-level Unmarshal, reusing the decoder's
// arena. The returned Sample owns all its data (nothing aliases the payload).
func (d *Decoder) Unmarshal(payload []byte) (uint16, Sample, error) {
	var s Sample
	if len(payload) < 8 {
		return 0, s, fmt.Errorf("%w: short header", ErrBadPDU)
	}
	appID := binary.BigEndian.Uint16(payload[0:])
	length := int(binary.BigEndian.Uint16(payload[2:]))
	if length < 8 || length > len(payload) {
		return 0, s, fmt.Errorf("%w: bad length %d", ErrBadPDU, length)
	}
	t, _, err := d.ber.Decode(payload[8:length])
	if err != nil || t.Tag != tagSavPDU {
		return 0, s, fmt.Errorf("%w: savPdu", ErrBadPDU)
	}
	seq, err := t.Child(tagSeqASDU)
	if err != nil || len(seq.Children) == 0 {
		return 0, s, fmt.Errorf("%w: no ASDU", ErrBadPDU)
	}
	asdu := seq.Children[0]
	for _, c := range asdu.Children {
		switch c.Tag {
		case tagSvID:
			s.SvID = c.String()
		case tagSmpCnt:
			if len(c.Value) == 2 {
				s.SmpCnt = binary.BigEndian.Uint16(c.Value)
			}
		case tagConfRev:
			v, _ := c.Uint()
			s.ConfRev = uint32(v)
		case tagRefrTm:
			sec, nanos, err := c.UTCTime()
			if err == nil {
				s.RefrTm = time.Unix(sec, nanos).UTC()
			}
		case tagSamples:
			if len(c.Value)%8 != 0 {
				return 0, s, fmt.Errorf("%w: sample block size %d", ErrBadPDU, len(c.Value))
			}
			if s.Values == nil && len(c.Value) > 0 {
				s.Values = make([]float64, 0, len(c.Value)/8)
			}
			for i := 0; i+8 <= len(c.Value); i += 8 {
				bits := binary.BigEndian.Uint64(c.Value[i:])
				s.Values = append(s.Values, math.Float64frombits(bits))
			}
		}
	}
	if s.SvID == "" {
		return 0, s, fmt.Errorf("%w: missing svID", ErrBadPDU)
	}
	return appID, s, nil
}

// SourceFunc supplies the current measurement values for each transmission.
type SourceFunc func() []float64

// PublisherConfig configures an SV stream.
type PublisherConfig struct {
	SvID    string
	AppID   uint16
	ConfRev uint32
}

// Publisher sends samples as UDP datagrams to each peer gateway.
type Publisher struct {
	cfg   PublisherConfig
	src   SourceFunc
	sock  *netem.UDPSocket
	peers []netem.IPv4

	mu      sync.Mutex
	smpCnt  uint16
	sent    uint64
	scratch []byte // marshal buffer; SendTo copies, so reuse is safe
}

// NewRPublisher creates an R-SV publisher: it binds an ephemeral UDP socket
// on the host and sends every sample to each peer's RSVPort. The emulated
// WAN has no IP multicast, so R-SV unicasts (README, "Substitutions").
func NewRPublisher(h *netem.Host, cfg PublisherConfig, peers []netem.IPv4, src SourceFunc) (*Publisher, error) {
	sock, err := h.BindUDP(0)
	if err != nil {
		return nil, err
	}
	return &Publisher{cfg: cfg, src: src, sock: sock, peers: append([]netem.IPv4(nil), peers...)}, nil
}

// PublishNow transmits one sample of the source's current values, stamped
// with the step time now.
func (p *Publisher) PublishNow(now time.Time) {
	values := p.src()
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Sample{
		SvID:    p.cfg.SvID,
		SmpCnt:  p.smpCnt,
		ConfRev: p.cfg.ConfRev,
		Values:  values,
		RefrTm:  now,
	}
	p.smpCnt++
	p.scratch = MarshalAppend(p.scratch[:0], p.cfg.AppID, s)
	for _, peer := range p.peers {
		if p.sock.SendTo(peer, RSVPort, p.scratch) == nil {
			p.sent++
		}
	}
}

// Stop closes the publisher's socket.
func (p *Publisher) Stop() { p.sock.Close() }

// Sent reports transmitted samples, one per peer datagram.
func (p *Publisher) Sent() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent
}

// Subscriber receives an SV stream from UDP datagrams. It has no goroutine
// of its own: the owner calls Poll, once per step, to decode what arrived.
type Subscriber struct {
	appID uint16
	sock  *netem.UDPSocket
	dec   Decoder // arena reused across Poll calls

	mu       sync.Mutex
	received uint64
	lost     uint64
	lastCnt  uint16
	seen     bool
}

// SubscribeR binds the R-SV port for the stream with the given APPID.
func SubscribeR(h *netem.Host, appID uint16) (*Subscriber, error) {
	sock, err := h.BindUDP(RSVPort)
	if err != nil {
		return nil, err
	}
	return &Subscriber{appID: appID, sock: sock}, nil
}

// Poll decodes every datagram queued on the socket, on the caller's
// goroutine and without blocking, and passes each sample of the subscribed
// APPID to fn in arrival order. Poll must not be called concurrently.
func (s *Subscriber) Poll(fn func(Sample)) {
	for {
		select {
		case m, ok := <-s.sock.Recv():
			if !ok {
				return
			}
			gotID, sample, err := s.dec.Unmarshal(m.Data)
			if err != nil || gotID != s.appID {
				continue
			}
			s.count(sample.SmpCnt)
			fn(sample)
		default:
			return
		}
	}
}

// Close releases the subscriber's socket.
func (s *Subscriber) Close() { s.sock.Close() }

// count updates the received and lost counters (lost from smpCnt gaps).
func (s *Subscriber) count(smpCnt uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen {
		expected := s.lastCnt + 1
		if smpCnt != expected {
			s.lost += uint64(uint16(smpCnt - expected))
		}
	}
	s.lastCnt = smpCnt
	s.seen = true
	s.received++
}

// Stats reports received and lost sample counts (from smpCnt gaps).
func (s *Subscriber) Stats() (received, lost uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received, s.lost
}
