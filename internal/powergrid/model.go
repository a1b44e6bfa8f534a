// Package powergrid defines the bus/branch network model used by the power
// system simulation side of the cyber range.
//
// The paper generates a Pandapower model from IEC 61850 SSD files (§III-B).
// This package is the Go equivalent of that model: buses, lines, two-winding
// transformers, generators, static loads, shunts, external-grid (slack)
// connections and switchable circuit breakers. The element and result naming
// deliberately mirrors Pandapower (vm_pu, va_degree, p_mw, q_mvar, i_ka,
// loading_percent) so results read like the paper's artefacts.
package powergrid

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Errors returned during model validation.
var (
	ErrUnknownBus   = errors.New("powergrid: unknown bus")
	ErrDuplicate    = errors.New("powergrid: duplicate element name")
	ErrNoSlack      = errors.New("powergrid: no external grid (slack) connection")
	ErrBadParameter = errors.New("powergrid: invalid element parameter")
)

// Bus is a node of the electrical network.
type Bus struct {
	Name string
	VnKV float64 // nominal voltage, kV
	Zone string  // substation / segment label (used in Fig 5 rendering)
}

// Line is an AC transmission or distribution line between two buses.
type Line struct {
	Name     string
	FromBus  string
	ToBus    string
	LengthKM float64
	// Per-km positive sequence parameters.
	ROhmPerKM float64
	XOhmPerKM float64
	CNFPerKM  float64 // shunt capacitance, nF/km
	MaxIKA    float64 // thermal limit used for loading_percent
	InService bool
}

// Transformer is a two-winding transformer between an HV and an LV bus.
type Transformer struct {
	Name       string
	HVBus      string
	LVBus      string
	SnMVA      float64 // rated apparent power
	VnHVKV     float64 // rated HV voltage
	VnLVKV     float64 // rated LV voltage
	VKPercent  float64 // short-circuit voltage, %
	VKRPercent float64 // real part of short-circuit voltage, %
	TapPos     int     // current tap position
	TapStepPC  float64 // voltage change per tap step, %
	InService  bool
}

// Generator is a PV-bus machine with voltage setpoint control.
type Generator struct {
	Name      string
	Bus       string
	PMW       float64 // active power injection
	VmPU      float64 // voltage setpoint
	MinQMVAr  float64
	MaxQMVAr  float64
	InService bool
}

// StaticGenerator is a PQ injection (PV panels, batteries discharging, etc.).
type StaticGenerator struct {
	Name      string
	Bus       string
	PMW       float64
	QMVAr     float64
	InService bool
}

// Load is a PQ consumption at a bus.
type Load struct {
	Name    string
	Bus     string
	PMW     float64
	QMVAr   float64
	Scaling float64 // multiplier applied by load profiles; 1.0 = nominal
	// ScalingSet records that Scaling was explicitly assigned. It is what
	// lets an explicit scaling of 0 (Pandapower semantics: scaling=0 ⇒ no
	// load) be told apart from a zero-value Load literal that never set the
	// field, which keeps the legacy default of 1.0. SetScaling maintains it.
	ScalingSet bool
	InService  bool
}

// SetScaling assigns the load-profile multiplier, marking it explicit so a
// zero survives as "no load" instead of falling back to the 1.0 default.
func (l *Load) SetScaling(s float64) {
	l.Scaling = s
	l.ScalingSet = true
}

// EffectiveScaling returns the multiplier the solver applies: Scaling when it
// was explicitly set or is non-zero, else the 1.0 default for untouched
// zero-value literals.
func (l *Load) EffectiveScaling() float64 {
	if l.ScalingSet || l.Scaling != 0 {
		return l.Scaling
	}
	return 1
}

// Shunt is a fixed shunt admittance (capacitor bank / reactor).
type Shunt struct {
	Name      string
	Bus       string
	PMW       float64 // at v = 1 pu
	QMVAr     float64 // at v = 1 pu; negative = capacitive injection
	InService bool
}

// ExternalGrid is the slack connection to the upstream network.
type ExternalGrid struct {
	Name  string
	Bus   string
	VmPU  float64
	VaDeg float64
}

// SwitchTarget identifies what a switch disconnects.
type SwitchTarget int

// Switch target kinds.
const (
	SwitchLine   SwitchTarget = iota + 1 // disconnects a line end
	SwitchTrafo                          // disconnects a transformer end
	SwitchBusBus                         // bus coupler between two buses
)

// Switch is a circuit breaker or disconnector. For SwitchLine/SwitchTrafo the
// switch sits between Bus and the named element; for SwitchBusBus, Element
// names the second bus.
type Switch struct {
	Name    string
	Bus     string
	Element string
	Kind    SwitchTarget
	Closed  bool
}

// Network is the complete electrical model of one (possibly multi-substation)
// power system.
type Network struct {
	Name      string
	BaseMVA   float64 // system base for per-unit conversion; default 100
	Buses     []Bus
	Lines     []Line
	Trafos    []Transformer
	Gens      []Generator
	SGens     []StaticGenerator
	Loads     []Load
	Shunts    []Shunt
	Externals []ExternalGrid
	Switches  []Switch
}

// New returns an empty network with the conventional 100 MVA base.
func New(name string) *Network {
	return &Network{Name: name, BaseMVA: 100}
}

// AddBus appends a bus and returns its name for chaining convenience.
func (n *Network) AddBus(name string, vnKV float64, zone string) string {
	n.Buses = append(n.Buses, Bus{Name: name, VnKV: vnKV, Zone: zone})
	return name
}

// BusIndex returns the position of the named bus, or -1.
func (n *Network) BusIndex(name string) int {
	for i := range n.Buses {
		if n.Buses[i].Name == name {
			return i
		}
	}
	return -1
}

// FindSwitch returns a pointer to the named switch, or nil.
func (n *Network) FindSwitch(name string) *Switch {
	for i := range n.Switches {
		if n.Switches[i].Name == name {
			return &n.Switches[i]
		}
	}
	return nil
}

// FindLoad returns a pointer to the named load, or nil.
func (n *Network) FindLoad(name string) *Load {
	for i := range n.Loads {
		if n.Loads[i].Name == name {
			return &n.Loads[i]
		}
	}
	return nil
}

// FindGen returns a pointer to the named generator, or nil.
func (n *Network) FindGen(name string) *Generator {
	for i := range n.Gens {
		if n.Gens[i].Name == name {
			return &n.Gens[i]
		}
	}
	return nil
}

// FindSGen returns a pointer to the named static generator, or nil.
func (n *Network) FindSGen(name string) *StaticGenerator {
	for i := range n.SGens {
		if n.SGens[i].Name == name {
			return &n.SGens[i]
		}
	}
	return nil
}

// FindLine returns a pointer to the named line, or nil.
func (n *Network) FindLine(name string) *Line {
	for i := range n.Lines {
		if n.Lines[i].Name == name {
			return &n.Lines[i]
		}
	}
	return nil
}

// ValidateSetpoints checks the per-solve electrical inputs that can legally
// change between solves of an unchanged topology: the system base and the
// generator / external-grid voltage targets. It is the part of Validate a
// topology-caching solver must re-run on every solve (these values sit
// outside its structural cache key).
func (n *Network) ValidateSetpoints() error {
	if n.BaseMVA <= 0 {
		return fmt.Errorf("%w: base MVA %v", ErrBadParameter, n.BaseMVA)
	}
	for i := range n.Gens {
		if g := &n.Gens[i]; g.VmPU <= 0 {
			return fmt.Errorf("%w: gen %q vm %v", ErrBadParameter, g.Name, g.VmPU)
		}
	}
	for i := range n.Externals {
		if e := &n.Externals[i]; e.VmPU <= 0 {
			return fmt.Errorf("%w: ext_grid %q vm %v", ErrBadParameter, e.Name, e.VmPU)
		}
	}
	return nil
}

// Validate checks referential integrity and parameter sanity.
func (n *Network) Validate() error {
	if err := n.ValidateSetpoints(); err != nil {
		return err
	}
	seen := make(map[string]string, len(n.Buses))
	busOK := make(map[string]bool, len(n.Buses))
	for _, b := range n.Buses {
		if busOK[b.Name] {
			return fmt.Errorf("%w: bus %q", ErrDuplicate, b.Name)
		}
		busOK[b.Name] = true
		if b.VnKV <= 0 {
			return fmt.Errorf("%w: bus %q vn %v kV", ErrBadParameter, b.Name, b.VnKV)
		}
	}
	check := func(kind, elem, bus string) error {
		key := kind + "/" + elem
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("%w: %s %q (first at %s)", ErrDuplicate, kind, elem, prev)
		}
		seen[key] = elem
		if bus != "" && !busOK[bus] {
			return fmt.Errorf("%w: %s %q references bus %q", ErrUnknownBus, kind, elem, bus)
		}
		return nil
	}
	for _, l := range n.Lines {
		if err := check("line", l.Name, l.FromBus); err != nil {
			return err
		}
		if !busOK[l.ToBus] {
			return fmt.Errorf("%w: line %q references bus %q", ErrUnknownBus, l.Name, l.ToBus)
		}
		if l.LengthKM <= 0 || l.XOhmPerKM <= 0 {
			return fmt.Errorf("%w: line %q length/X", ErrBadParameter, l.Name)
		}
	}
	for _, tr := range n.Trafos {
		if err := check("trafo", tr.Name, tr.HVBus); err != nil {
			return err
		}
		if !busOK[tr.LVBus] {
			return fmt.Errorf("%w: trafo %q references bus %q", ErrUnknownBus, tr.Name, tr.LVBus)
		}
		if tr.SnMVA <= 0 || tr.VKPercent <= 0 {
			return fmt.Errorf("%w: trafo %q sn/vk", ErrBadParameter, tr.Name)
		}
	}
	for _, g := range n.Gens {
		if err := check("gen", g.Name, g.Bus); err != nil {
			return err
		}
	}
	for _, g := range n.SGens {
		if err := check("sgen", g.Name, g.Bus); err != nil {
			return err
		}
	}
	for _, l := range n.Loads {
		if err := check("load", l.Name, l.Bus); err != nil {
			return err
		}
	}
	for _, s := range n.Shunts {
		if err := check("shunt", s.Name, s.Bus); err != nil {
			return err
		}
	}
	for _, e := range n.Externals {
		if err := check("ext_grid", e.Name, e.Bus); err != nil {
			return err
		}
	}
	for _, sw := range n.Switches {
		if err := check("switch", sw.Name, sw.Bus); err != nil {
			return err
		}
		switch sw.Kind {
		case SwitchLine:
			if n.FindLine(sw.Element) == nil {
				return fmt.Errorf("%w: switch %q references line %q", ErrUnknownBus, sw.Name, sw.Element)
			}
		case SwitchBusBus:
			if !busOK[sw.Element] {
				return fmt.Errorf("%w: switch %q references bus %q", ErrUnknownBus, sw.Name, sw.Element)
			}
		case SwitchTrafo:
			found := false
			for _, tr := range n.Trafos {
				if tr.Name == sw.Element {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("%w: switch %q references trafo %q", ErrUnknownBus, sw.Name, sw.Element)
			}
		default:
			return fmt.Errorf("%w: switch %q kind %d", ErrBadParameter, sw.Name, sw.Kind)
		}
	}
	if len(n.Externals) == 0 && len(n.Gens) == 0 {
		return ErrNoSlack
	}
	return nil
}

// LineConnected reports whether the line is energised considering its own
// in-service flag and any open switches attached to either end.
func (n *Network) LineConnected(name string) bool {
	l := n.FindLine(name)
	if l == nil || !l.InService {
		return false
	}
	for _, sw := range n.Switches {
		if sw.Kind == SwitchLine && sw.Element == name && !sw.Closed {
			return false
		}
	}
	return true
}

// TrafoConnected reports whether the transformer is energised.
func (n *Network) TrafoConnected(name string) bool {
	var tr *Transformer
	for i := range n.Trafos {
		if n.Trafos[i].Name == name {
			tr = &n.Trafos[i]
			break
		}
	}
	if tr == nil || !tr.InService {
		return false
	}
	for _, sw := range n.Switches {
		if sw.Kind == SwitchTrafo && sw.Element == name && !sw.Closed {
			return false
		}
	}
	return true
}

// Summary renders a Pandapower-style one-line description of the model; the
// Fig 5 reproduction prints this for the EPIC network.
func (n *Network) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "network %q (base %.0f MVA)\n", n.Name, n.BaseMVA)
	fmt.Fprintf(&sb, "  buses: %d, lines: %d, trafos: %d, gens: %d, sgens: %d, loads: %d, shunts: %d, ext_grids: %d, switches: %d\n",
		len(n.Buses), len(n.Lines), len(n.Trafos), len(n.Gens), len(n.SGens), len(n.Loads), len(n.Shunts), len(n.Externals), len(n.Switches))
	zones := map[string][]string{}
	for _, b := range n.Buses {
		zones[b.Zone] = append(zones[b.Zone], fmt.Sprintf("%s(%.1fkV)", b.Name, b.VnKV))
	}
	names := make([]string, 0, len(zones))
	for z := range zones {
		names = append(names, z)
	}
	sort.Strings(names)
	for _, z := range names {
		fmt.Fprintf(&sb, "  zone %-14s %s\n", z+":", strings.Join(zones[z], " "))
	}
	for _, l := range n.Lines {
		state := "in-service"
		if !n.LineConnected(l.Name) {
			state = "OPEN"
		}
		fmt.Fprintf(&sb, "  line  %-12s %s -- %s (%.2f km, %s)\n", l.Name, l.FromBus, l.ToBus, l.LengthKM, state)
	}
	for _, tr := range n.Trafos {
		fmt.Fprintf(&sb, "  trafo %-12s %s -> %s (%.1f MVA, %.1f/%.1f kV)\n", tr.Name, tr.HVBus, tr.LVBus, tr.SnMVA, tr.VnHVKV, tr.VnLVKV)
	}
	return sb.String()
}

// Clone returns a deep copy, so scenario runs can mutate freely.
func (n *Network) Clone() *Network {
	c := *n
	c.Buses = append([]Bus(nil), n.Buses...)
	c.Lines = append([]Line(nil), n.Lines...)
	c.Trafos = append([]Transformer(nil), n.Trafos...)
	c.Gens = append([]Generator(nil), n.Gens...)
	c.SGens = append([]StaticGenerator(nil), n.SGens...)
	c.Loads = append([]Load(nil), n.Loads...)
	c.Shunts = append([]Shunt(nil), n.Shunts...)
	c.Externals = append([]ExternalGrid(nil), n.Externals...)
	c.Switches = append([]Switch(nil), n.Switches...)
	return &c
}
