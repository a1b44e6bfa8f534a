package sgmlconf

import (
	"encoding/xml"
	"errors"
	"fmt"
	"time"
)

// ErrConfig is the base error for malformed supplementary configs.
var ErrConfig = errors.New("sgmlconf: invalid configuration")

// ---------------------------------------------------------------------------
// IED Config XML
// ---------------------------------------------------------------------------

// IEDConfig is the root of the IED Config XML file.
type IEDConfig struct {
	XMLName xml.Name   `xml:"IEDConfig"`
	IEDs    []IEDEntry `xml:"IED"`
}

// IEDEntry configures one virtual IED.
type IEDEntry struct {
	Name       string     `xml:"name,attr"`
	Substation string     `xml:"substation,attr"`
	Protection Protection `xml:"Protection"`
	Measures   []Measure  `xml:"Measure"`
	Controls   []Control  `xml:"Control"`
}

// Protection holds the per-function thresholds of Table II. A nil entry
// leaves the function disabled even if the ICD declares the logical node.
type Protection struct {
	PTOC *PTOCConf `xml:"PTOC"`
	PTOV *PTOVConf `xml:"PTOV"`
	PTUV *PTUVConf `xml:"PTUV"`
	PDIF *PDIFConf `xml:"PDIF"`
	CILO *CILOConf `xml:"CILO"`
}

// PTOCConf configures time over-current protection: "threshold limit for
// current, generally 3 to 4 times the nominal current" (Table II).
type PTOCConf struct {
	ThresholdKA float64 `xml:"thresholdKa,attr"`
	DelayMS     int     `xml:"delayMs,attr"`
	Line        string  `xml:"line,attr"` // monitored line element
}

// PTOVConf configures over-voltage protection (upper bus-voltage limit).
type PTOVConf struct {
	ThresholdPU float64 `xml:"thresholdPu,attr"`
	DelayMS     int     `xml:"delayMs,attr"`
	Bus         string  `xml:"bus,attr"`
}

// PTUVConf configures under-voltage protection (lower bus-voltage limit).
type PTUVConf struct {
	ThresholdPU float64 `xml:"thresholdPu,attr"`
	DelayMS     int     `xml:"delayMs,attr"`
	Bus         string  `xml:"bus,attr"`
}

// PDIFConf configures differential protection: trips when local and remote
// current measurements differ beyond the threshold (Table II row 4).
type PDIFConf struct {
	ThresholdKA float64 `xml:"thresholdKa,attr"`
	DelayMS     int     `xml:"delayMs,attr"`
	Line        string  `xml:"line,attr"`
	RemoteIED   string  `xml:"remoteIed,attr"` // peer sending R-SV measurements
}

// CILOConf configures interlocking: "prevents a circuit breaker to be closed
// when a certain circuit breaker is open" (Table II row 5). The guarding
// breaker status arrives via GOOSE from GuardIED.
type CILOConf struct {
	GuardBreaker string `xml:"guardBreaker,attr"`
	GuardIED     string `xml:"guardIed,attr"`
}

// Measure maps an IED data point onto a power-simulation output.
type Measure struct {
	Point   string `xml:"point,attr"`   // "busVoltage", "lineCurrent", "lineP", "lineQ"
	Element string `xml:"element,attr"` // bus or line name in the power model
}

// Control maps the IED's switch-control object onto a breaker element.
type Control struct {
	Breaker string `xml:"breaker,attr"`
}

// Find returns the entry for the named IED, or nil.
func (c *IEDConfig) Find(name string) *IEDEntry {
	for i := range c.IEDs {
		if c.IEDs[i].Name == name {
			return &c.IEDs[i]
		}
	}
	return nil
}

// Validate checks threshold sanity.
func (c *IEDConfig) Validate() error {
	seen := map[string]bool{}
	for _, e := range c.IEDs {
		if e.Name == "" {
			return fmt.Errorf("%w: IED entry without name", ErrConfig)
		}
		if seen[e.Name] {
			return fmt.Errorf("%w: duplicate IED entry %q", ErrConfig, e.Name)
		}
		seen[e.Name] = true
		p := e.Protection
		if p.PTOC != nil && p.PTOC.ThresholdKA <= 0 {
			return fmt.Errorf("%w: IED %q PTOC threshold %v", ErrConfig, e.Name, p.PTOC.ThresholdKA)
		}
		if p.PTOV != nil && p.PTOV.ThresholdPU <= 1.0 {
			return fmt.Errorf("%w: IED %q PTOV threshold %v must exceed 1.0 pu", ErrConfig, e.Name, p.PTOV.ThresholdPU)
		}
		if p.PTUV != nil && (p.PTUV.ThresholdPU <= 0 || p.PTUV.ThresholdPU >= 1.0) {
			return fmt.Errorf("%w: IED %q PTUV threshold %v must be in (0,1) pu", ErrConfig, e.Name, p.PTUV.ThresholdPU)
		}
		if p.PDIF != nil && (p.PDIF.ThresholdKA <= 0 || p.PDIF.RemoteIED == "") {
			return fmt.Errorf("%w: IED %q PDIF needs threshold and remote IED", ErrConfig, e.Name)
		}
		if p.CILO != nil && p.CILO.GuardBreaker == "" {
			return fmt.Errorf("%w: IED %q CILO needs a guard breaker", ErrConfig, e.Name)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// SCADA Config XML
// ---------------------------------------------------------------------------

// SCADAConfig is the root of the SCADA Config XML file.
type SCADAConfig struct {
	XMLName     xml.Name     `xml:"SCADAConfig"`
	DataSources []DataSource `xml:"DataSource"`
	DataPoints  []DataPoint  `xml:"DataPoint"`
}

// DataSource is one polled endpoint (a PLC over Modbus, or an IED over MMS).
//
// PollMS is the source's update period. The range keeps it on the step
// clock, never on wall time: the HMI reads the source on the first step, and
// then on the first step at least PollMS after its last read. A period that
// is not a whole number of steps so rounds up to the next step, and one at
// most the step interval reads every step; Compile accepts any period.
// ToImportJSON writes an unset (or non-positive) PollMS as 1000 ms.
type DataSource struct {
	Name     string `xml:"name,attr"`
	Protocol string `xml:"protocol,attr"` // "modbus" | "mms"
	Host     string `xml:"host,attr"`     // node name in the emulated network
	IP       string `xml:"ip,attr"`
	Port     int    `xml:"port,attr"`
	PollMS   int    `xml:"pollMs,attr"`
}

// DataPoint is one monitored or controlled value.
type DataPoint struct {
	Name      string  `xml:"name,attr"`
	Source    string  `xml:"source,attr"`
	Kind      string  `xml:"kind,attr"` // "analog" | "binary"
	Address   string  `xml:"address,attr"`
	Scale     float64 `xml:"scale,attr"`
	Writable  bool    `xml:"writable,attr"`
	AlarmLow  float64 `xml:"alarmLow,attr"`
	AlarmHigh float64 `xml:"alarmHigh,attr"`
	HasAlarm  bool    `xml:"hasAlarm,attr"`
}

// Validate checks source references and point kinds.
func (c *SCADAConfig) Validate() error {
	srcs := map[string]bool{}
	for _, s := range c.DataSources {
		if s.Name == "" || srcs[s.Name] {
			return fmt.Errorf("%w: bad or duplicate data source %q", ErrConfig, s.Name)
		}
		if s.Protocol != "modbus" && s.Protocol != "mms" {
			return fmt.Errorf("%w: data source %q protocol %q", ErrConfig, s.Name, s.Protocol)
		}
		srcs[s.Name] = true
	}
	names := map[string]bool{}
	for _, p := range c.DataPoints {
		if p.Name == "" || names[p.Name] {
			return fmt.Errorf("%w: bad or duplicate data point %q", ErrConfig, p.Name)
		}
		names[p.Name] = true
		if !srcs[p.Source] {
			return fmt.Errorf("%w: data point %q references unknown source %q", ErrConfig, p.Name, p.Source)
		}
		if p.Kind != "analog" && p.Kind != "binary" {
			return fmt.Errorf("%w: data point %q kind %q", ErrConfig, p.Name, p.Kind)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Power System Extra Config XML
// ---------------------------------------------------------------------------

// PowerConfig is the root of the Power System Extra Config XML file. It
// supplies the electrical parameters SCL cannot express, the simulation
// interval, and the scenario time series ("the amount of load and circuit
// breaker status in a time series for each component", §III-B).
type PowerConfig struct {
	XMLName    xml.Name       `xml:"PowerSystemConfig"`
	BaseMVA    float64        `xml:"baseMVA,attr"`
	IntervalMS int            `xml:"intervalMs,attr"`
	Elements   []ElementParam `xml:"Element"`
	Steps      []ProfileStep  `xml:"Step"`
}

// ElementParam carries per-element electrical parameters keyed by the
// equipment name used in the SSD.
type ElementParam struct {
	Kind       string  `xml:"kind,attr"` // load|line|gen|sgen|extgrid|trafo|shunt
	Name       string  `xml:"name,attr"`
	PMW        float64 `xml:"pMW,attr"`
	QMVAr      float64 `xml:"qMVAr,attr"`
	VmPU       float64 `xml:"vmPU,attr"`
	LengthKM   float64 `xml:"lengthKm,attr"`
	ROhmPerKM  float64 `xml:"rOhmPerKm,attr"`
	XOhmPerKM  float64 `xml:"xOhmPerKm,attr"`
	CNFPerKM   float64 `xml:"cNfPerKm,attr"`
	MaxIKA     float64 `xml:"maxIKa,attr"`
	SnMVA      float64 `xml:"snMVA,attr"`
	VKPercent  float64 `xml:"vkPercent,attr"`
	VKRPercent float64 `xml:"vkrPercent,attr"`
	MinQMVAr   float64 `xml:"minQMVAr,attr"`
	MaxQMVAr   float64 `xml:"maxQMVAr,attr"`
}

// ProfileStep is one timed scenario action.
type ProfileStep struct {
	AtMS    int     `xml:"atMs,attr"`
	Kind    string  `xml:"kind,attr"` // loadScale|loadP|genP|sgenP|switch|lineService
	Element string  `xml:"element,attr"`
	Value   float64 `xml:"value,attr"`
}

// Interval returns the simulation interval (default 100 ms, §III-C).
func (c *PowerConfig) Interval() time.Duration {
	if c.IntervalMS <= 0 {
		return 100 * time.Millisecond
	}
	return time.Duration(c.IntervalMS) * time.Millisecond
}

// Element returns the parameters for (kind, name), or nil.
func (c *PowerConfig) Element(kind, name string) *ElementParam {
	for i := range c.Elements {
		e := &c.Elements[i]
		if e.Kind == kind && e.Name == name {
			return e
		}
	}
	return nil
}

var validStepKinds = map[string]bool{
	"loadScale": true, "loadP": true, "genP": true,
	"sgenP": true, "switch": true, "lineService": true,
}

var validElementKinds = map[string]bool{
	"load": true, "line": true, "gen": true, "sgen": true,
	"extgrid": true, "trafo": true, "shunt": true,
}

// Validate checks element and step kinds.
func (c *PowerConfig) Validate() error {
	for _, e := range c.Elements {
		if !validElementKinds[e.Kind] {
			return fmt.Errorf("%w: element kind %q", ErrConfig, e.Kind)
		}
		if e.Name == "" {
			return fmt.Errorf("%w: element of kind %q without name", ErrConfig, e.Kind)
		}
	}
	for _, s := range c.Steps {
		if !validStepKinds[s.Kind] {
			return fmt.Errorf("%w: step kind %q", ErrConfig, s.Kind)
		}
		if s.AtMS < 0 {
			return fmt.Errorf("%w: step at %d ms", ErrConfig, s.AtMS)
		}
		if s.Element == "" {
			return fmt.Errorf("%w: step of kind %q without element", ErrConfig, s.Kind)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Shared parse/marshal helpers
// ---------------------------------------------------------------------------

// ParseIEDConfig decodes and validates an IED Config XML file.
func ParseIEDConfig(data []byte) (*IEDConfig, error) {
	var c IEDConfig
	if err := xml.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// ParseSCADAConfig decodes and validates a SCADA Config XML file.
func ParseSCADAConfig(data []byte) (*SCADAConfig, error) {
	var c SCADAConfig
	if err := xml.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// ParsePowerConfig decodes and validates a Power System Extra Config XML file.
func ParsePowerConfig(data []byte) (*PowerConfig, error) {
	var c PowerConfig
	if err := xml.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Marshal encodes any of the three configs with an XML header.
func Marshal(v any) ([]byte, error) {
	body, err := xml.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), body...), nil
}
