// Package ied implements the virtual IED of the cyber range (§III-B).
//
// "A virtual IED implements communication using IEC 61850 protocols,
// including MMS, GOOSE, R-GOOSE and R-SV. [...] Virtual IEDs also implement
// popular protection functions (Table II). Each virtual IED is instantiated
// by an IEC 61850 ICD file by enabling features defined in it [...] actual
// thresholds come from IED Config XML. Virtual IEDs are connected to the
// power system simulator through [a key-value cache]."
//
// An IED is a netem host running an MMS server (measurements + breaker
// control), an L2 GOOSE publisher (status/trip events), optional L2 GOOSE
// subscription (CILO interlock guard, always in the IED's own substation),
// optional R-SV publish/subscribe (PDIF differential exchange across the
// WAN), and a protection evaluation (Step) coupled to the simulator through
// the kv bus, which the range's step engine calls once per simulation
// interval. Step also drives all of the IED's GOOSE and R-SV I/O, stamped
// with the step time. R-GOOSE is not modelled: no model interlocks across
// substations (README, "Substitutions").
package ied

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/goose"
	"repro/internal/kvbus"
	"repro/internal/mms"
	"repro/internal/netem"
	"repro/internal/scl"
	"repro/internal/sgmlconf"
	"repro/internal/sv"
)

// Object reference naming used by the virtual IED data model. The paper's
// IED Config XML exists precisely because this mapping (data name ↔ power
// element) is not in the ICD.
const (
	ldInst = "LD0"
)

// RefVoltage is the measured bus voltage object (pu).
func RefVoltage() mms.ObjectReference { return ldInst + "/MMXU1.PhV.phsA" }

// RefCurrent is the measured line current object (kA).
func RefCurrent() mms.ObjectReference { return ldInst + "/MMXU1.A.phsA" }

// RefActivePower is the measured line active power object (MW).
func RefActivePower() mms.ObjectReference { return ldInst + "/MMXU1.TotW" }

// RefReactivePower is the measured line reactive power object (MVAr).
func RefReactivePower() mms.ObjectReference { return ldInst + "/MMXU1.TotVAr" }

// RefBreakerStatus is the breaker position status for breaker i (1-based).
func RefBreakerStatus(i int) mms.ObjectReference {
	return mms.ObjectReference(fmt.Sprintf("%s/XCBR%d.Pos.stVal", ldInst, i))
}

// RefBreakerOper is the breaker operate (control) object for breaker i.
func RefBreakerOper(i int) mms.ObjectReference {
	return mms.ObjectReference(fmt.Sprintf("%s/XCBR%d.Pos.Oper", ldInst, i))
}

// RefProtTrip is the protection operate status for function class fn.
func RefProtTrip(fn string) mms.ObjectReference {
	return mms.ObjectReference(ldInst + "/" + fn + "1.Op.general")
}

// EventKind classifies IED log events.
type EventKind string

// Event kinds.
const (
	EventTrip          EventKind = "trip"
	EventControl       EventKind = "control"
	EventInterlockDeny EventKind = "interlock-deny"
	EventStatusChange  EventKind = "status-change"
)

// Event is one protection/control log entry.
type Event struct {
	Time   time.Time
	Kind   EventKind
	Func   string // protection class or "MMS"
	Detail string
}

// Config assembles a virtual IED.
type Config struct {
	Name       string
	Substation string
	// ICD gates which functions may be enabled (HasLNClass per §III-B);
	// nil enables everything the entry configures.
	ICD *scl.Document
	// Entry supplies thresholds and the cyber-physical mapping.
	Entry *sgmlconf.IEDEntry
	// GooseAppID is the IED's status publication group (0 disables GOOSE).
	GooseAppID uint16
	// GuardAppID is the GOOSE group of the CILO guard IED.
	GuardAppID uint16
	// RSVAppID is the differential-exchange group (0 disables R-SV).
	RSVAppID uint16
	// RSVPeers are the gateway addresses receiving our R-SV stream.
	RSVPeers []netem.IPv4
	// MMSPort defaults to 102.
	MMSPort uint16
}

type protState struct {
	armedSince time.Time
	armed      bool
	tripped    bool
}

// IED is a running virtual IED.
type IED struct {
	cfg  Config
	host *netem.Host
	bus  *kvbus.Bus
	srv  *mms.Server
	on   map[string]bool // enabled protection classes, fixed at New

	gpub *goose.Publisher
	gsub *goose.Subscriber
	rpub *sv.Publisher
	rsub *sv.Subscriber

	mu                     sync.Mutex
	breakers               []string // controlled breaker element names
	lastStatus             map[string]bool
	guardClosed            bool
	guardFresh             bool
	remoteIKA              float64
	remoteAt               time.Time
	ptoc, ptov, ptuv, pdif protState
	events                 []Event
	steps                  uint64
}

// enabledClasses returns the protection classes that are both configured in
// the entry and declared in the ICD (the paper enables functions from the
// ICD's logical nodes). Both inputs are immutable, so New decides this once.
func enabledClasses(cfg Config) map[string]bool {
	on := make(map[string]bool)
	if cfg.Entry == nil {
		return on
	}
	p := cfg.Entry.Protection
	configured := map[string]bool{
		"PTOC": p.PTOC != nil,
		"PTOV": p.PTOV != nil,
		"PTUV": p.PTUV != nil,
		"PDIF": p.PDIF != nil,
		"CILO": p.CILO != nil,
	}
	for class, ok := range configured {
		if ok && (cfg.ICD == nil || len(cfg.ICD.IEDs) == 0 || cfg.ICD.IEDs[0].HasLNClass(class)) {
			on[class] = true
		}
	}
	return on
}

// enabled reports whether a protection class is enabled (see enabledClasses).
func (d *IED) enabled(class string) bool { return d.on[class] }

// New builds the IED on a host coupled to the kv bus.
func New(host *netem.Host, bus *kvbus.Bus, cfg Config) (*IED, error) {
	d := &IED{
		cfg:        cfg,
		host:       host,
		bus:        bus,
		srv:        mms.NewServer("SG-ML", "vIED "+cfg.Name),
		on:         enabledClasses(cfg),
		lastStatus: make(map[string]bool),
	}
	if cfg.Entry != nil {
		for _, c := range cfg.Entry.Controls {
			d.breakers = append(d.breakers, c.Breaker)
		}
	}
	// Data model: measurements, protection status, breaker status + control.
	d.srv.DefineReadOnly(ldInst+"/LLN0.NamPlt", mms.NewString(cfg.Name))
	d.srv.Define(RefVoltage(), mms.NewFloat(0))
	d.srv.Define(RefCurrent(), mms.NewFloat(0))
	d.srv.Define(RefActivePower(), mms.NewFloat(0))
	d.srv.Define(RefReactivePower(), mms.NewFloat(0))
	for _, fn := range []string{"PTOC", "PTOV", "PTUV", "PDIF"} {
		if d.enabled(fn) {
			d.srv.Define(RefProtTrip(fn), mms.NewBool(false))
		}
	}
	for i, cb := range d.breakers {
		num := i + 1
		cbName := cb
		d.srv.Define(RefBreakerStatus(num), mms.NewBool(true))
		d.srv.OnWrite(RefBreakerOper(num), mms.NewBool(true), func(_ mms.ObjectReference, v mms.Value) error {
			if v.Kind != mms.KindBool {
				return fmt.Errorf("ied: breaker operate expects boolean")
			}
			return d.operateBreaker(cbName, v.Bool)
		})
	}
	if cfg.GooseAppID != 0 {
		d.gpub = goose.NewPublisher(host, goose.PublisherConfig{
			GocbRef: cfg.Name + ldInst + "/LLN0$GO$gcb1",
			DatSet:  cfg.Name + ldInst + "/LLN0$Status",
			GoID:    cfg.Name + "-status",
			AppID:   cfg.GooseAppID,
			ConfRev: 1,
		})
	}
	if d.enabled("CILO") && cfg.GuardAppID != 0 {
		d.gsub = goose.Subscribe(host, cfg.GuardAppID)
	}
	return d, nil
}

// Serve starts the MMS server (and R-SV when configured).
func (d *IED) Serve() error {
	if err := d.srv.Serve(d.host, d.cfg.MMSPort); err != nil {
		return err
	}
	if d.cfg.RSVAppID != 0 {
		if d.enabled("PDIF") {
			rsub, err := sv.SubscribeR(d.host, d.cfg.RSVAppID)
			if err != nil {
				return err
			}
			d.rsub = rsub
		}
		if len(d.cfg.RSVPeers) > 0 {
			rpub, err := sv.NewRPublisher(d.host, sv.PublisherConfig{
				SvID:  d.cfg.Name,
				AppID: d.cfg.RSVAppID,
			}, d.cfg.RSVPeers, d.localCurrent)
			if err != nil {
				return err
			}
			d.rpub = rpub
		}
	}
	return nil
}

// Stop closes the R-SV sockets and the MMS server.
func (d *IED) Stop() {
	if d.rpub != nil {
		d.rpub.Stop()
	}
	if d.rsub != nil {
		d.rsub.Close()
	}
	d.srv.Close()
}

// Name returns the IED's name.
func (d *IED) Name() string { return d.cfg.Name }

// Server exposes the MMS server (the range's SCADA/PLC dials it).
func (d *IED) Server() *mms.Server { return d.srv }

// GooseDropped reports updates the IED's GOOSE subscription lost to a full
// delivery channel (0 when the IED subscribes to nothing).
func (d *IED) GooseDropped() uint64 {
	if d.gsub == nil {
		return 0
	}
	return d.gsub.Dropped()
}

// Events returns a copy of the event log.
func (d *IED) Events() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Event(nil), d.events...)
}

// Steps reports protection evaluations performed.
func (d *IED) Steps() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.steps
}

func (d *IED) logEvent(kind EventKind, fn, detail string) {
	d.mu.Lock()
	d.events = append(d.events, Event{Time: time.Now(), Kind: kind, Func: fn, Detail: detail})
	d.mu.Unlock()
}

// localCurrent feeds the R-SV publisher with the monitored line current.
func (d *IED) localCurrent() []float64 {
	if d.cfg.Entry == nil || d.cfg.Entry.Protection.PDIF == nil {
		return []float64{0}
	}
	line := d.cfg.Entry.Protection.PDIF.Line
	return []float64{d.bus.GetFloat(kvbus.LineCurrentKey(d.cfg.Substation, line), 0)}
}

// operateBreaker handles an MMS control write (true = close, false = open).
// A close command is subject to CILO interlocking when configured.
func (d *IED) operateBreaker(breaker string, closeIt bool) error {
	if closeIt && d.enabled("CILO") {
		d.mu.Lock()
		guardOK := d.guardClosed && d.guardFresh
		d.mu.Unlock()
		if !guardOK {
			d.logEvent(EventInterlockDeny, "CILO",
				fmt.Sprintf("close of %s denied: guard breaker %s open or unknown", breaker, d.cfg.Entry.Protection.CILO.GuardBreaker))
			return fmt.Errorf("ied: interlock denies close of %s", breaker)
		}
	}
	d.bus.SetBool(kvbus.BreakerCmdKey(d.cfg.Substation, breaker), closeIt)
	d.logEvent(EventControl, "MMS", fmt.Sprintf("breaker %s command close=%t", breaker, closeIt))
	return nil
}

// Step performs one acquisition + protection pass at the given instant,
// writing actuation commands directly to the bus. It is the only driver of
// the IED's GOOSE and R-SV I/O: it drains both subscriptions, then sends
// GOOSE state changes, the retransmission due at now and one R-SV sample,
// all stamped with now. A single IED must not be stepped concurrently.
func (d *IED) Step(now time.Time) {
	d.mu.Lock()
	d.steps++
	d.mu.Unlock()

	d.drainSubscriptions(now)
	vm, ika := d.refreshMeasurements()
	d.refreshBreakerStatus(now)
	d.evaluateProtection(now, vm, ika)
	if d.gpub != nil {
		d.gpub.Step(now)
	}
	if d.rpub != nil {
		d.rpub.PublishNow(now)
	}
}

// drainSubscriptions consumes pending GOOSE (guard status) and R-SV (remote
// current) messages without blocking.
func (d *IED) drainSubscriptions(now time.Time) {
	if d.gsub != nil {
	drain:
		for {
			select {
			case u := <-d.gsub.Updates():
				if len(u.Message.Values) >= 1 && u.Message.Values[0].Kind == mms.KindBool {
					d.mu.Lock()
					d.guardClosed = u.Message.Values[0].Bool
					d.guardFresh = true
					d.mu.Unlock()
				}
			default:
				break drain
			}
		}
	}
	if d.rsub != nil {
		d.rsub.Poll(func(s sv.Sample) {
			if len(s.Values) >= 1 && s.SvID != d.cfg.Name {
				d.mu.Lock()
				d.remoteIKA = s.Values[0]
				d.remoteAt = now
				d.mu.Unlock()
			}
		})
	}
}

// refreshMeasurements pulls simulator values from the bus into the MMS model.
func (d *IED) refreshMeasurements() (vmPU, iKA float64) {
	if d.cfg.Entry == nil {
		return 0, 0
	}
	for _, m := range d.cfg.Entry.Measures {
		switch m.Point {
		case "busVoltage":
			vmPU = d.bus.GetFloat(kvbus.BusVoltageKey(d.cfg.Substation, m.Element), 0)
			d.srv.Update(RefVoltage(), mms.NewFloat(vmPU))
		case "lineCurrent":
			iKA = d.bus.GetFloat(kvbus.LineCurrentKey(d.cfg.Substation, m.Element), 0)
			d.srv.Update(RefCurrent(), mms.NewFloat(iKA))
		case "lineP":
			p := d.bus.GetFloat(kvbus.LinePKey(d.cfg.Substation, m.Element), 0)
			d.srv.Update(RefActivePower(), mms.NewFloat(p))
		case "lineQ":
			q := d.bus.GetFloat(kvbus.LineQKey(d.cfg.Substation, m.Element), 0)
			d.srv.Update(RefReactivePower(), mms.NewFloat(q))
		}
	}
	return vmPU, iKA
}

// refreshBreakerStatus mirrors simulator breaker states into the data model
// and publishes GOOSE on change.
func (d *IED) refreshBreakerStatus(now time.Time) {
	changed := false
	var statuses []mms.Value
	for i, cb := range d.breakers {
		closed := d.bus.GetBool(kvbus.BreakerStatusKey(d.cfg.Substation, cb), true)
		d.srv.Update(RefBreakerStatus(i+1), mms.NewBool(closed))
		d.mu.Lock()
		if last, seen := d.lastStatus[cb]; !seen || last != closed {
			d.lastStatus[cb] = closed
			changed = true
		}
		d.mu.Unlock()
		statuses = append(statuses, mms.NewBool(closed))
	}
	if changed {
		for _, cb := range d.breakers {
			d.logEvent(EventStatusChange, "XCBR", fmt.Sprintf("breaker %s closed=%t", cb, d.lastStatusOf(cb)))
		}
		if d.gpub != nil {
			d.gpub.Publish(now, statuses...)
		}
	}
}

func (d *IED) lastStatusOf(cb string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastStatus[cb]
}

// evaluateProtection applies the Table II functions with their IED Config
// XML thresholds and time delays.
func (d *IED) evaluateProtection(now time.Time, vmPU, iKA float64) {
	p := d.cfg.Entry
	if p == nil {
		return
	}
	if d.enabled("PTOC") {
		c := p.Protection.PTOC
		i := iKA
		if c.Line != "" {
			i = d.bus.GetFloat(kvbus.LineCurrentKey(d.cfg.Substation, c.Line), iKA)
		}
		d.applyFunction(now, "PTOC", &d.ptoc, i > c.ThresholdKA,
			time.Duration(c.DelayMS)*time.Millisecond,
			fmt.Sprintf("current %.3f kA > %.3f kA", i, c.ThresholdKA))
	}
	if d.enabled("PTOV") {
		c := p.Protection.PTOV
		v := vmPU
		if c.Bus != "" {
			v = d.bus.GetFloat(kvbus.BusVoltageKey(d.cfg.Substation, c.Bus), vmPU)
		}
		d.applyFunction(now, "PTOV", &d.ptov, v > c.ThresholdPU,
			time.Duration(c.DelayMS)*time.Millisecond,
			fmt.Sprintf("voltage %.4f pu > %.4f pu", v, c.ThresholdPU))
	}
	if d.enabled("PTUV") {
		c := p.Protection.PTUV
		v := vmPU
		if c.Bus != "" {
			v = d.bus.GetFloat(kvbus.BusVoltageKey(d.cfg.Substation, c.Bus), vmPU)
		}
		// A de-energised bus (≈0 pu) is not an under-voltage condition —
		// the breaker is already open; re-tripping would mask restoration.
		d.applyFunction(now, "PTUV", &d.ptuv, v > 0.05 && v < c.ThresholdPU,
			time.Duration(c.DelayMS)*time.Millisecond,
			fmt.Sprintf("voltage %.4f pu < %.4f pu", v, c.ThresholdPU))
	}
	if d.enabled("PDIF") && d.rsub != nil {
		c := p.Protection.PDIF
		local := d.bus.GetFloat(kvbus.LineCurrentKey(d.cfg.Substation, c.Line), 0)
		d.mu.Lock()
		remote, at := d.remoteIKA, d.remoteAt
		d.mu.Unlock()
		fresh := !at.IsZero() && now.Sub(at) < time.Second
		diff := local - remote
		if diff < 0 {
			diff = -diff
		}
		d.applyFunction(now, "PDIF", &d.pdif, fresh && diff > c.ThresholdKA,
			time.Duration(c.DelayMS)*time.Millisecond,
			fmt.Sprintf("differential %.3f kA > %.3f kA (local %.3f, remote %.3f)", diff, c.ThresholdKA, local, remote))
	}
}

// applyFunction implements the pickup/delay/trip state machine shared by all
// threshold protections.
func (d *IED) applyFunction(now time.Time, fn string, ps *protState, violated bool, delay time.Duration, detail string) {
	d.mu.Lock()
	if !violated {
		ps.armed = false
		if ps.tripped {
			ps.tripped = false
			d.srv.Update(RefProtTrip(fn), mms.NewBool(false))
		}
		d.mu.Unlock()
		return
	}
	if !ps.armed {
		ps.armed = true
		ps.armedSince = now
	}
	shouldTrip := !ps.tripped && now.Sub(ps.armedSince) >= delay
	if shouldTrip {
		ps.tripped = true
	}
	d.mu.Unlock()
	if shouldTrip {
		d.trip(now, fn, detail)
	}
}

// trip opens every controlled breaker, raises the protection status and
// publishes a GOOSE trip event.
func (d *IED) trip(now time.Time, fn, detail string) {
	d.srv.Update(RefProtTrip(fn), mms.NewBool(true))
	for _, cb := range d.breakers {
		d.bus.SetBool(kvbus.BreakerCmdKey(d.cfg.Substation, cb), false)
	}
	d.logEvent(EventTrip, fn, detail)
	d.srv.Report(RefProtTrip(fn), mms.NewBool(true))
	if d.gpub != nil {
		d.gpub.Publish(now, mms.NewBool(false), mms.NewString(fn+" trip"))
	}
}

// TripCount reports how many trips the IED has issued (tests and benches).
func (d *IED) TripCount() int {
	n := 0
	for _, e := range d.Events() {
		if e.Kind == EventTrip {
			n++
		}
	}
	return n
}
