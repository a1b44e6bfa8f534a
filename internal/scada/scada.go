// Package scada implements the SCADA HMI of the cyber range — the SCADABR
// substitute (§III-B).
//
// "A SCADA system offers an user-interface for a human user to monitor the
// system status and trigger manual control on a physical plant. [...] The
// settings on data source (e.g., PLCs) and data points has to be configured
// [...] We have implemented a script to translate the SCADA Config XML into
// a JSON format that SCADABR can import."
//
// The HMI loads exactly that import JSON (sgmlconf.ScadaImport), polls its
// data sources over Modbus and MMS, evaluates alarm limits, keeps an event
// log, accepts operator control actions on settable points, and renders a
// text status panel.
package scada

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mms"
	"repro/internal/modbus"
	"repro/internal/netem"
	"repro/internal/sgmlconf"
)

// Quality describes the trustworthiness of a point value.
type Quality int

// Point qualities.
const (
	QualityInit Quality = iota
	QualityGood
	QualityCommFail
)

func (q Quality) String() string {
	switch q {
	case QualityGood:
		return "GOOD"
	case QualityCommFail:
		return "COMM_FAIL"
	default:
		return "INIT"
	}
}

// Errors returned by the HMI.
var (
	ErrUnknownPoint = errors.New("scada: unknown data point")
	ErrNotSettable  = errors.New("scada: point not settable")
	ErrNoSource     = errors.New("scada: data source unavailable")
	ErrBadLocator   = errors.New("scada: bad point locator")
)

// EventKind classifies HMI events.
type EventKind string

// Event kinds.
const (
	EventAlarmRaised  EventKind = "alarm-raised"
	EventAlarmCleared EventKind = "alarm-cleared"
	EventCommFail     EventKind = "comm-fail"
	EventCommRestore  EventKind = "comm-restore"
	EventOperator     EventKind = "operator-action"
)

// Event is one HMI log entry.
type Event struct {
	Time   time.Time
	Kind   EventKind
	Point  string
	Detail string
}

// PointState is the current state of one data point.
type PointState struct {
	XID      string
	Name     string
	Value    float64
	Binary   bool
	IsBinary bool
	Quality  Quality
	InAlarm  bool
	Updated  time.Time
}

type source struct {
	cfg      sgmlconf.ScadaImportSource
	mu       sync.Mutex
	mb       *modbus.Client
	mmsC     *mms.Client
	lastFail time.Time
}

// dialBackoff bounds reconnection attempts to a dead source so one failed
// endpoint cannot stall a whole poll round on dial timeouts.
const dialBackoff = 2 * time.Second

type point struct {
	cfg   sgmlconf.ScadaImportPoint
	state PointState
}

// HMI is the SCADA master station.
type HMI struct {
	host *netem.Host

	mu      sync.Mutex
	sources map[string]*source
	points  map[string]*point
	order   []string // point XIDs in import order
	events  []Event
	polls   uint64
	diag    func() string // optional diagnostics footer for StatusPanel
}

// SetDiagnostics installs a provider whose one-line (or multi-line) text is
// appended to StatusPanel — the range wires its data-plane counters here so
// operators see fabric health next to the process values.
func (h *HMI) SetDiagnostics(fn func() string) {
	h.mu.Lock()
	h.diag = fn
	h.mu.Unlock()
}

// New builds an HMI on a host from the import JSON model.
func New(host *netem.Host, imp *sgmlconf.ScadaImport) (*HMI, error) {
	h := &HMI{
		host:    host,
		sources: make(map[string]*source, len(imp.DataSources)),
		points:  make(map[string]*point, len(imp.DataPoints)),
	}
	for _, s := range imp.DataSources {
		h.sources[s.XID] = &source{cfg: s}
	}
	for _, p := range imp.DataPoints {
		if _, ok := h.sources[p.DataSourceXID]; !ok {
			return nil, fmt.Errorf("%w: point %q references %q", ErrNoSource, p.XID, p.DataSourceXID)
		}
		h.points[p.XID] = &point{
			cfg:   p,
			state: PointState{XID: p.XID, Name: p.Name, IsBinary: p.DataType == "BINARY"},
		}
		h.order = append(h.order, p.XID)
	}
	return h, nil
}

// Connect dials every data source. Sources that fail to connect are left in
// comm-fail state and retried on each poll.
func (h *HMI) Connect() {
	h.mu.Lock()
	srcs := make([]*source, 0, len(h.sources))
	for _, s := range h.sources {
		srcs = append(srcs, s)
	}
	h.mu.Unlock()
	for _, s := range srcs {
		h.ensureConnected(s)
	}
}

func (h *HMI) ensureConnected(s *source) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ip, err := netem.ParseIPv4(s.cfg.IP)
	if err != nil {
		return false
	}
	connected := (s.cfg.Type == "MODBUS_IP" && s.mb != nil) || (s.cfg.Type == "MMS" && s.mmsC != nil)
	if connected {
		return true
	}
	if time.Since(s.lastFail) < dialBackoff {
		return false
	}
	switch s.cfg.Type {
	case "MODBUS_IP":
		cli, err := modbus.DialClient(h.host, ip, uint16(s.cfg.Port), time.Second)
		if err != nil {
			s.lastFail = time.Now()
			return false
		}
		s.mb = cli
	case "MMS":
		cli, err := mms.Dial(h.host, ip, uint16(s.cfg.Port), mms.DialOptions{Vendor: "scadabr-sgml"})
		if err != nil {
			s.lastFail = time.Now()
			return false
		}
		s.mmsC = cli
	default:
		return false
	}
	return true
}

func (h *HMI) dropConnection(s *source) {
	s.mu.Lock()
	if s.mb != nil {
		s.mb.Close()
		s.mb = nil
	}
	if s.mmsC != nil {
		s.mmsC.Close()
		s.mmsC = nil
	}
	s.mu.Unlock()
}

// Close releases all connections.
func (h *HMI) Close() {
	h.mu.Lock()
	srcs := make([]*source, 0, len(h.sources))
	for _, s := range h.sources {
		srcs = append(srcs, s)
	}
	h.mu.Unlock()
	for _, s := range srcs {
		h.dropConnection(s)
	}
}

// PollOnce reads every data point once.
func (h *HMI) PollOnce() {
	h.mu.Lock()
	order := append([]string(nil), h.order...)
	h.polls++
	h.mu.Unlock()
	for _, xid := range order {
		h.pollPoint(xid)
	}
}

func (h *HMI) pollPoint(xid string) {
	h.mu.Lock()
	pt := h.points[xid]
	src := h.sources[pt.cfg.DataSourceXID]
	h.mu.Unlock()

	value, binary, err := h.readPoint(src, pt)
	h.mu.Lock()
	defer h.mu.Unlock()
	now := time.Now()
	prevQuality := pt.state.Quality
	if err != nil {
		pt.state.Quality = QualityCommFail
		if prevQuality == QualityGood {
			h.logLocked(EventCommFail, xid, err.Error())
		}
		return
	}
	pt.state.Quality = QualityGood
	if prevQuality == QualityCommFail {
		h.logLocked(EventCommRestore, xid, "")
	}
	pt.state.Updated = now
	if pt.state.IsBinary {
		pt.state.Binary = binary
		if binary {
			pt.state.Value = 1
		} else {
			pt.state.Value = 0
		}
		return
	}
	pt.state.Value = value * multiplierOf(pt.cfg)
	// Alarm evaluation.
	if pt.cfg.AlarmEnabled {
		inAlarm := pt.state.Value < pt.cfg.AlarmLowLimit || pt.state.Value > pt.cfg.AlarmHighLimit
		if inAlarm && !pt.state.InAlarm {
			h.logLocked(EventAlarmRaised, xid,
				fmt.Sprintf("value %.4f outside [%.4f, %.4f]", pt.state.Value, pt.cfg.AlarmLowLimit, pt.cfg.AlarmHighLimit))
		}
		if !inAlarm && pt.state.InAlarm {
			h.logLocked(EventAlarmCleared, xid, fmt.Sprintf("value %.4f back in band", pt.state.Value))
		}
		pt.state.InAlarm = inAlarm
	}
}

func multiplierOf(cfg sgmlconf.ScadaImportPoint) float64 {
	if cfg.Multiplier == 0 {
		return 1
	}
	return cfg.Multiplier
}

// readPoint fetches the raw value over the source protocol.
func (h *HMI) readPoint(src *source, pt *point) (float64, bool, error) {
	if !h.ensureConnected(src) {
		return 0, false, fmt.Errorf("%w: %s", ErrNoSource, src.cfg.XID)
	}
	src.mu.Lock()
	mb, mc := src.mb, src.mmsC
	src.mu.Unlock()
	switch {
	case mb != nil:
		table, addr, err := splitModbusLocator(pt.cfg.PointLocator)
		if err != nil {
			return 0, false, err
		}
		switch table {
		case 0: // coil
			bits, err := mb.ReadCoils(addr, 1)
			if err != nil {
				h.dropConnection(src)
				return 0, false, err
			}
			return boolToF(bits[0]), bits[0], nil
		case 1: // discrete input
			bits, err := mb.ReadDiscreteInputs(addr, 1)
			if err != nil {
				h.dropConnection(src)
				return 0, false, err
			}
			return boolToF(bits[0]), bits[0], nil
		case 3: // input register
			regs, err := mb.ReadInput(addr, 1)
			if err != nil {
				h.dropConnection(src)
				return 0, false, err
			}
			return float64(regs[0]), regs[0] != 0, nil
		case 4: // holding register
			regs, err := mb.ReadHolding(addr, 1)
			if err != nil {
				h.dropConnection(src)
				return 0, false, err
			}
			return float64(regs[0]), regs[0] != 0, nil
		}
		return 0, false, fmt.Errorf("%w: table %d", ErrBadLocator, table)
	case mc != nil:
		v, err := mc.Read(mms.ObjectReference(pt.cfg.PointLocator))
		if err != nil {
			if !errors.Is(err, mms.ErrObjectNotFound) {
				h.dropConnection(src)
			}
			return 0, false, err
		}
		switch v.Kind {
		case mms.KindBool:
			return boolToF(v.Bool), v.Bool, nil
		case mms.KindFloat:
			return v.Float, v.Float != 0, nil
		case mms.KindInt:
			return float64(v.Int), v.Int != 0, nil
		case mms.KindUnsigned:
			return float64(v.Uint), v.Uint != 0, nil
		default:
			return 0, false, fmt.Errorf("scada: unsupported MMS kind %v", v.Kind)
		}
	}
	return 0, false, fmt.Errorf("%w: %s", ErrNoSource, src.cfg.XID)
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// splitModbusLocator parses classic Modbus point addresses: 1-based with a
// table prefix (0xxxx coils, 1xxxx discrete inputs, 3xxxx input registers,
// 4xxxx holding registers). Bare small numbers address coils.
func splitModbusLocator(loc string) (table int, addr uint16, err error) {
	n, err := strconv.Atoi(strings.TrimSpace(loc))
	if err != nil || n < 0 {
		return 0, 0, fmt.Errorf("%w: %q", ErrBadLocator, loc)
	}
	switch {
	case n >= 40001 && n <= 49999:
		return 4, uint16(n - 40001), nil
	case n >= 30001 && n <= 39999:
		return 3, uint16(n - 30001), nil
	case n >= 10001 && n <= 19999:
		return 1, uint16(n - 10001), nil
	case n >= 1 && n <= 9999:
		return 0, uint16(n - 1), nil
	case n == 0:
		return 0, 0, nil
	}
	return 0, 0, fmt.Errorf("%w: %q", ErrBadLocator, loc)
}

// Point returns the state of one point.
func (h *HMI) Point(xid string) (PointState, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	pt, ok := h.points[xid]
	if !ok {
		return PointState{}, fmt.Errorf("%w: %s", ErrUnknownPoint, xid)
	}
	return pt.state, nil
}

// Points returns all point states in import order.
func (h *HMI) Points() []PointState {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]PointState, 0, len(h.order))
	for _, xid := range h.order {
		out = append(out, h.points[xid].state)
	}
	return out
}

// ActiveAlarms returns the XIDs of points currently in alarm, sorted.
func (h *HMI) ActiveAlarms() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for xid, pt := range h.points {
		if pt.state.InAlarm {
			out = append(out, xid)
		}
	}
	sort.Strings(out)
	return out
}

// Events returns a copy of the event log.
func (h *HMI) Events() []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Event(nil), h.events...)
}

// Polls reports completed poll rounds.
func (h *HMI) Polls() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.polls
}

func (h *HMI) logLocked(kind EventKind, xid, detail string) {
	h.events = append(h.events, Event{Time: time.Now(), Kind: kind, Point: xid, Detail: detail})
}

// Control performs an operator action on a settable point: binary points
// receive coil/boolean writes, numeric points register/value writes.
func (h *HMI) Control(xid string, value float64) error {
	h.mu.Lock()
	pt, ok := h.points[xid]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownPoint, xid)
	}
	if !pt.cfg.SettableEnabled {
		h.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotSettable, xid)
	}
	src := h.sources[pt.cfg.DataSourceXID]
	h.mu.Unlock()
	if !h.ensureConnected(src) {
		return fmt.Errorf("%w: %s", ErrNoSource, src.cfg.XID)
	}
	src.mu.Lock()
	mb, mc := src.mb, src.mmsC
	src.mu.Unlock()

	var err error
	switch {
	case mb != nil:
		var table int
		var addr uint16
		table, addr, err = splitModbusLocator(pt.cfg.PointLocator)
		if err == nil {
			switch table {
			case 0:
				err = mb.WriteCoil(addr, value != 0)
			case 4:
				err = mb.WriteRegister(addr, uint16(value))
			default:
				err = fmt.Errorf("%w: table %d not writable", ErrBadLocator, table)
			}
		}
	case mc != nil:
		ref := mms.ObjectReference(pt.cfg.PointLocator)
		if pt.state.IsBinary {
			err = mc.Write(ref, mms.NewBool(value != 0))
		} else {
			err = mc.Write(ref, mms.NewFloat(value))
		}
	default:
		err = fmt.Errorf("%w: %s", ErrNoSource, src.cfg.XID)
	}
	h.mu.Lock()
	h.logLocked(EventOperator, xid, fmt.Sprintf("set %v (err=%v)", value, err))
	h.mu.Unlock()
	return err
}

// StatusPanel renders the operator text view: every point with value,
// quality and alarm flag, plus active alarm summary.
func (h *HMI) StatusPanel() string {
	points := h.Points()
	var sb strings.Builder
	sb.WriteString("=== SCADA HMI STATUS ===\n")
	for _, p := range points {
		alarm := ""
		if p.InAlarm {
			alarm = "  ** ALARM **"
		}
		if p.IsBinary {
			state := "OFF"
			if p.Binary {
				state = "ON"
			}
			fmt.Fprintf(&sb, "%-24s %-6s [%s]%s\n", p.Name, state, p.Quality, alarm)
		} else {
			fmt.Fprintf(&sb, "%-24s %10.4f [%s]%s\n", p.Name, p.Value, p.Quality, alarm)
		}
	}
	alarms := h.ActiveAlarms()
	fmt.Fprintf(&sb, "active alarms: %d\n", len(alarms))
	h.mu.Lock()
	diag := h.diag
	h.mu.Unlock()
	if diag != nil {
		sb.WriteString(diag())
	}
	return sb.String()
}
