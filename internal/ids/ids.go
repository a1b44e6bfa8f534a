// Package ids implements a passive network intrusion detection sensor for
// the cyber range — the defensive (blue-team) counterpart of the §IV-B
// attack case studies.
//
// The paper positions the cyber range for "red-team exercise to identify
// vulnerabilities" and "cybersecurity hands-on training"; a training range
// needs the defender's instruments too. The sensor taps every link of the
// emulated network (the same primitive a SPAN port gives a real IDS) and
// raises alerts for exactly the footprints the implemented attacks leave:
//
//   - ARP spoofing: an IP address claimed by conflicting MAC addresses
//     (the MITM case study, Fig 6);
//   - unauthorized MMS control writes: segments towards port 102 from
//     sources outside the allowlist that an MMS server would accept as a
//     confirmed write (mms.ContainsWrite; the FCI case study);
//   - GOOSE stNum anomalies: regressions that indicate replay or a second
//     publisher (GOOSE spoofing);
//   - TCP port scans: one source probing many distinct ports (the "Nmap on
//     a virtual node" usage).
package ids

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/goose"
	"repro/internal/mms"
	"repro/internal/netem"
)

// AlertKind classifies sensor alerts.
type AlertKind string

// Alert kinds.
const (
	AlertARPSpoof          AlertKind = "arp-spoof"
	AlertUnauthorizedWrite AlertKind = "unauthorized-mms-write"
	AlertGooseAnomaly      AlertKind = "goose-stnum-anomaly"
	AlertPortScan          AlertKind = "tcp-port-scan"
)

// Alert is one detection.
type Alert struct {
	Time   time.Time
	Kind   AlertKind
	Source string // offending MAC or IP
	Detail string
	// Step is the simulation step during which the alert was raised, stamped
	// via SetStepFunc; -1 when no step provider is installed. Alerts raised
	// by synchronous scenario actions carry a deterministic step; alerts from
	// asynchronous traffic (GOOSE retransmissions, ARP re-poisoning ticks)
	// inherit whatever step the wall clock landed them in.
	Step int
}

// Options configures the sensor.
type Options struct {
	// AuthorizedWriters are the sources allowed to issue MMS control writes
	// (the SCADA HMI and PLCs). Empty disables write monitoring.
	AuthorizedWriters []netem.IPv4
	// PortScanThreshold is the number of distinct destination ports probed
	// by one source before a scan alert fires; default 10.
	PortScanThreshold int
}

// gooseState tracks the newest state number per control block and when it
// was first observed. The fabric floods multicast frames across several
// links, so a frame with the previous stNum can trail the new state by
// microseconds on another link; only regressions older than the grace
// window are genuine replays.
type gooseState struct {
	max uint32
	at  time.Time
}

// gooseReplayGrace is the window within which an out-of-order old-state
// frame is treated as flood duplication rather than replay.
const gooseReplayGrace = 100 * time.Millisecond

// Sensor is a passive detector attached to the fabric.
type Sensor struct {
	mu         sync.Mutex
	alerts     []Alert
	ipToMAC    map[netem.IPv4]netem.MAC
	writers    map[netem.IPv4]bool
	writeWatch bool
	gooseSt    map[string]*gooseState // gocbRef -> highest stNum seen
	gooseDec   goose.Decoder          // arena reused across inspected frames (under mu)
	synSeen    map[netem.IPv4]map[uint16]bool
	scanThresh int
	scanFired  map[netem.IPv4]bool
	frames     uint64
	stepFn     func() int // simulation-step provider for alert stamping
}

// New builds a sensor.
func New(opts Options) *Sensor {
	s := &Sensor{
		ipToMAC:    make(map[netem.IPv4]netem.MAC),
		writers:    make(map[netem.IPv4]bool),
		gooseSt:    make(map[string]*gooseState),
		synSeen:    make(map[netem.IPv4]map[uint16]bool),
		scanFired:  make(map[netem.IPv4]bool),
		scanThresh: opts.PortScanThreshold,
	}
	if s.scanThresh <= 0 {
		s.scanThresh = 10
	}
	for _, ip := range opts.AuthorizedWriters {
		s.writers[ip] = true
	}
	s.writeWatch = len(opts.AuthorizedWriters) > 0
	return s
}

// Attach registers the sensor as a tap on every link of the network. It may
// be called before the network starts or while it is running (scenario-driven
// sensor deployment); a sensor attached mid-run observes from the next frame.
func (s *Sensor) Attach(n *netem.Network) {
	n.Tap(func(_ *netem.Link, _ string, f netem.Frame) {
		s.inspect(f)
	})
}

// SetStepFunc installs a simulation-step provider; every subsequent alert is
// stamped with its value (Alert.Step). The function is called from fabric
// goroutines and must be safe for concurrent use (e.g. an atomic load).
func (s *Sensor) SetStepFunc(fn func() int) {
	s.mu.Lock()
	s.stepFn = fn
	s.mu.Unlock()
}

// Alerts returns a copy of the alert log.
func (s *Sensor) Alerts() []Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Alert(nil), s.alerts...)
}

// AlertsOf filters alerts by kind.
func (s *Sensor) AlertsOf(kind AlertKind) []Alert {
	var out []Alert
	for _, a := range s.Alerts() {
		if a.Kind == kind {
			out = append(out, a)
		}
	}
	return out
}

// Frames reports the number of frames inspected.
func (s *Sensor) Frames() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames
}

func (s *Sensor) raise(kind AlertKind, source, detail string) {
	step := -1
	if s.stepFn != nil {
		step = s.stepFn()
	}
	s.alerts = append(s.alerts, Alert{Time: time.Now(), Kind: kind, Source: source, Detail: detail, Step: step})
}

// inspect runs under the tap; it must be fast and never block.
func (s *Sensor) inspect(f netem.Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames++
	switch f.EtherType {
	case netem.EtherTypeARP:
		s.inspectARP(f)
	case netem.EtherTypeIPv4:
		s.inspectIP(f)
	case netem.EtherTypeGOOSE:
		s.inspectGOOSE(f)
	}
}

func (s *Sensor) inspectARP(f netem.Frame) {
	pkt, err := netem.UnmarshalARP(f.Payload)
	if err != nil {
		return
	}
	if pkt.SenderIP.IsZero() {
		return
	}
	known, seen := s.ipToMAC[pkt.SenderIP]
	if seen && known != pkt.SenderMAC {
		// Every subsequent poisoning round re-raises; dedupe per claimed pair.
		s.raise(AlertARPSpoof, pkt.SenderMAC.String(),
			fmt.Sprintf("IP %s previously at %s now claimed by %s", pkt.SenderIP, known, pkt.SenderMAC))
	}
	s.ipToMAC[pkt.SenderIP] = pkt.SenderMAC
}

func (s *Sensor) inspectIP(f netem.Frame) {
	pkt, err := netem.UnmarshalIP(f.Payload)
	if err != nil || pkt.Protocol != netem.IPProtoTCP || len(pkt.Payload) < 20 {
		return
	}
	dstPort := binary.BigEndian.Uint16(pkt.Payload[2:])
	flags := pkt.Payload[13]
	dataOff := int(pkt.Payload[12]>>4) * 4

	// Port-scan detection: SYNs without ACK to many distinct ports.
	if flags&0x02 != 0 && flags&0x10 == 0 {
		ports := s.synSeen[pkt.Src]
		if ports == nil {
			ports = make(map[uint16]bool)
			s.synSeen[pkt.Src] = ports
		}
		ports[dstPort] = true
		if len(ports) >= s.scanThresh && !s.scanFired[pkt.Src] {
			s.scanFired[pkt.Src] = true
			s.raise(AlertPortScan, pkt.Src.String(),
				fmt.Sprintf("%d distinct ports probed", len(ports)))
		}
	}

	// Unauthorized MMS write: a segment towards the MMS port, from outside
	// the allowlist, that an MMS server would accept as a write request.
	if s.writeWatch && dstPort == mms.DefaultPort && !s.writers[pkt.Src] &&
		dataOff >= 20 && dataOff < len(pkt.Payload) && mms.ContainsWrite(pkt.Payload[dataOff:]) {
		s.raise(AlertUnauthorizedWrite, pkt.Src.String(),
			fmt.Sprintf("MMS write request to %s from non-authorized source", pkt.Dst))
	}
}

// inspectGOOSE uses the header-only arena decode: per frame it neither
// re-allocates a TLV tree nor decodes the dataset values, and the gocbRef
// string is only materialised once per control block (map inserts).
func (s *Sensor) inspectGOOSE(f netem.Frame) {
	_, hdr, err := s.gooseDec.DecodeHeader(f.Payload)
	if err != nil {
		return
	}
	st := s.gooseSt[string(hdr.GocbRef)] // string() in a map index: no alloc
	now := time.Now()
	if st != nil && hdr.StNum < st.max && now.Sub(st.at) > gooseReplayGrace {
		s.raise(AlertGooseAnomaly, f.Src.String(),
			fmt.Sprintf("gocbRef %s stNum regressed %d -> %d (replay or spoofed publisher)",
				hdr.GocbRef, st.max, hdr.StNum))
	}
	switch {
	case st == nil:
		s.gooseSt[string(hdr.GocbRef)] = &gooseState{max: hdr.StNum, at: now}
	case hdr.StNum > st.max:
		st.max, st.at = hdr.StNum, now
	}
}
