// Package scl implements the IEC 61850 SCL (System Configuration description
// Language) document model used as the primary input of the SG-ML framework.
//
// The paper (Table I) consumes four SCL file kinds:
//
//   - SSD (System Specification Description): substation single-line diagram —
//     voltage levels, bays, conducting equipment, connectivity nodes.
//   - SCD (System Configuration Description): the complete substation,
//     including all IEDs and the Communication section (addresses, subnets).
//   - ICD (IED Capability Description): one IED's logical devices / logical
//     nodes and data type templates.
//   - SED (System Exchange Description): electrical + communication
//     connectivity between substations, for multi-substation models.
//
// SSD/SCD/ICD share the <SCL> root element per IEC 61850-6; this package
// models the subset of the schema the SG-ML Processor needs and detects the
// file kind from content. SED is modelled as the pragmatic schema described
// in README, "Substitutions" (a dedicated <SED> root listing substation
// ties), since the paper only uses it as "connectivity between a pair of
// substations".
package scl

import (
	"encoding/xml"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Namespace is the IEC 61850-6 SCL XML namespace.
const Namespace = "http://www.iec.ch/61850/2003/SCL"

// Kind identifies which of the Table I file types a document is.
type Kind int

// SCL file kinds (Table I).
const (
	KindUnknown Kind = iota
	KindSSD
	KindSCD
	KindICD
	KindSED
)

func (k Kind) String() string {
	switch k {
	case KindSSD:
		return "SSD"
	case KindSCD:
		return "SCD"
	case KindICD:
		return "ICD"
	case KindSED:
		return "SED"
	default:
		return "unknown"
	}
}

// Document is an SCL file (SSD, SCD or ICD).
type Document struct {
	XMLName           xml.Name           `xml:"SCL"`
	XMLNS             string             `xml:"xmlns,attr,omitempty"`
	Header            Header             `xml:"Header"`
	Substations       []Substation       `xml:"Substation"`
	IEDs              []IED              `xml:"IED"`
	Communication     *Communication     `xml:"Communication"`
	DataTypeTemplates *DataTypeTemplates `xml:"DataTypeTemplates"`
}

// Header carries document identity and revision.
type Header struct {
	ID       string `xml:"id,attr"`
	Version  string `xml:"version,attr,omitempty"`
	Revision string `xml:"revision,attr,omitempty"`
	ToolID   string `xml:"toolID,attr,omitempty"`
}

// Substation is the physical single-line description (SSD core).
type Substation struct {
	Name              string             `xml:"name,attr"`
	Desc              string             `xml:"desc,attr,omitempty"`
	VoltageLevels     []VoltageLevel     `xml:"VoltageLevel"`
	PowerTransformers []PowerTransformer `xml:"PowerTransformer"`
}

// VoltageLevel groups bays at one nominal voltage.
type VoltageLevel struct {
	Name    string  `xml:"name,attr"`
	Desc    string  `xml:"desc,attr,omitempty"`
	Voltage Voltage `xml:"Voltage"`
	Bays    []Bay   `xml:"Bay"`
}

// Voltage is a value with an SI multiplier (typically k + V).
type Voltage struct {
	Unit       string  `xml:"unit,attr,omitempty"`
	Multiplier string  `xml:"multiplier,attr,omitempty"`
	Value      float64 `xml:",chardata"`
}

// KV returns the voltage in kilovolts.
func (v Voltage) KV() float64 {
	switch v.Multiplier {
	case "k", "K":
		return v.Value
	case "M":
		return v.Value * 1000
	case "":
		return v.Value / 1000
	default:
		return v.Value
	}
}

// Bay is one switchgear bay with its equipment and connectivity nodes.
type Bay struct {
	Name                 string                `xml:"name,attr"`
	Desc                 string                `xml:"desc,attr,omitempty"`
	ConductingEquipments []ConductingEquipment `xml:"ConductingEquipment"`
	ConnectivityNodes    []ConnectivityNode    `xml:"ConnectivityNode"`
	LNodes               []LNodeRef            `xml:"LNode"`
}

// Equipment type codes used by the SG-ML profile. CBR/DIS/GEN/CAP/BAT are
// standard IEC 61850-6 codes; LIN (line segment), LOD (load), PVS
// (photovoltaic source) and GRI (external grid connection) are the SG-ML
// profile extensions documented in README, "Substitutions".
const (
	TypeBreaker      = "CBR"
	TypeDisconnector = "DIS"
	TypeGenerator    = "GEN"
	TypeCapacitor    = "CAP"
	TypeBattery      = "BAT"
	TypeLine         = "LIN"
	TypeLoad         = "LOD"
	TypePV           = "PVS"
	TypeExternalGrid = "GRI"
)

// ConductingEquipment is a primary-circuit device in a bay.
type ConductingEquipment struct {
	Name      string     `xml:"name,attr"`
	Type      string     `xml:"type,attr"`
	Desc      string     `xml:"desc,attr,omitempty"`
	Terminals []Terminal `xml:"Terminal"`
}

// Terminal attaches equipment to a connectivity node.
type Terminal struct {
	Name             string `xml:"name,attr,omitempty"`
	ConnectivityNode string `xml:"connectivityNode,attr"`
	CNodeName        string `xml:"cNodeName,attr,omitempty"`
}

// ConnectivityNode is an electrical node; its pathName doubles as the bus
// name during power-model generation.
type ConnectivityNode struct {
	Name     string `xml:"name,attr"`
	PathName string `xml:"pathName,attr"`
}

// LNodeRef binds a logical node (protection/measurement function on an IED)
// to a primary element.
type LNodeRef struct {
	IEDName string `xml:"iedName,attr"`
	LDInst  string `xml:"ldInst,attr,omitempty"`
	LNClass string `xml:"lnClass,attr"`
	LNInst  string `xml:"lnInst,attr,omitempty"`
}

// PowerTransformer is a two-winding transformer in the single-line diagram.
type PowerTransformer struct {
	Name     string               `xml:"name,attr"`
	Desc     string               `xml:"desc,attr,omitempty"`
	Type     string               `xml:"type,attr,omitempty"`
	Windings []TransformerWinding `xml:"TransformerWinding"`
}

// TransformerWinding is one winding with its terminal.
type TransformerWinding struct {
	Name      string     `xml:"name,attr"`
	Type      string     `xml:"type,attr,omitempty"`
	Terminals []Terminal `xml:"Terminal"`
}

// IED describes one intelligent electronic device.
type IED struct {
	Name         string        `xml:"name,attr"`
	Type         string        `xml:"type,attr,omitempty"`
	Manufacturer string        `xml:"manufacturer,attr,omitempty"`
	Desc         string        `xml:"desc,attr,omitempty"`
	AccessPoints []AccessPoint `xml:"AccessPoint"`
}

// AccessPoint is a communication attachment of an IED.
type AccessPoint struct {
	Name   string  `xml:"name,attr"`
	Server *Server `xml:"Server"`
}

// Server hosts logical devices.
type Server struct {
	LDevices []LDevice `xml:"LDevice"`
}

// LDevice is a logical device with its logical nodes.
type LDevice struct {
	Inst string `xml:"inst,attr"`
	LN0  *LN    `xml:"LN0"`
	LNs  []LN   `xml:"LN"`
}

// LN is a logical node instance (e.g. PTOC 1). Table II lists the protection
// classes the virtual IED implements: PTOC, PTOV, PTUV, PDIF, CILO.
type LN struct {
	Prefix  string `xml:"prefix,attr,omitempty"`
	LnClass string `xml:"lnClass,attr"`
	Inst    string `xml:"inst,attr,omitempty"`
	LnType  string `xml:"lnType,attr,omitempty"`
	Desc    string `xml:"desc,attr,omitempty"`
}

// Ref renders the conventional object reference piece "prefixCLASSinst".
func (l LN) Ref() string { return l.Prefix + l.LnClass + l.Inst }

// Communication carries subnetworks and per-IED addressing (SCD core).
type Communication struct {
	SubNetworks []SubNetwork `xml:"SubNetwork"`
}

// SubNetwork is one LAN segment.
type SubNetwork struct {
	Name         string        `xml:"name,attr"`
	Type         string        `xml:"type,attr,omitempty"`
	Desc         string        `xml:"desc,attr,omitempty"`
	ConnectedAPs []ConnectedAP `xml:"ConnectedAP"`
}

// ConnectedAP attaches an IED access point to a subnetwork with addresses.
type ConnectedAP struct {
	IEDName string  `xml:"iedName,attr"`
	APName  string  `xml:"apName,attr"`
	Address Address `xml:"Address"`
	GSEs    []GSE   `xml:"GSE"`
	SMVs    []SMV   `xml:"SMV"`
}

// Address is a list of typed parameters.
type Address struct {
	Ps []P `xml:"P"`
}

// Get returns the value of the first parameter with the given type.
func (a Address) Get(ptype string) string {
	for _, p := range a.Ps {
		if p.Type == ptype {
			return strings.TrimSpace(p.Value)
		}
	}
	return ""
}

// P is one typed address parameter (IP, IP-SUBNET, MAC-Address, APPID, ...).
type P struct {
	Type  string `xml:"type,attr"`
	Value string `xml:",chardata"`
}

// GSE is a GOOSE control block's network binding.
type GSE struct {
	LDInst  string  `xml:"ldInst,attr"`
	CBName  string  `xml:"cbName,attr"`
	Address Address `xml:"Address"`
}

// SMV is a sampled-values control block's network binding.
type SMV struct {
	LDInst  string  `xml:"ldInst,attr"`
	CBName  string  `xml:"cbName,attr"`
	Address Address `xml:"Address"`
}

// DataTypeTemplates carries logical node type definitions (ICD core).
type DataTypeTemplates struct {
	LNodeTypes []LNodeType `xml:"LNodeType"`
	DOTypes    []DOType    `xml:"DOType"`
}

// LNodeType defines the data objects of a logical node class.
type LNodeType struct {
	ID      string `xml:"id,attr"`
	LnClass string `xml:"lnClass,attr"`
	DOs     []DO   `xml:"DO"`
}

// DO is a data object reference within an LNodeType.
type DO struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr"`
}

// DOType defines the attributes of a data object class.
type DOType struct {
	ID  string `xml:"id,attr"`
	CDC string `xml:"cdc,attr"`
	DAs []DA   `xml:"DA"`
}

// DA is a data attribute.
type DA struct {
	Name  string `xml:"name,attr"`
	BType string `xml:"bType,attr"`
	FC    string `xml:"fc,attr,omitempty"`
}

// SED is the System Exchange Description: inter-substation electrical ties
// and the WAN communication description (Table I, last row).
type SED struct {
	XMLName     xml.Name  `xml:"SED"`
	Header      Header    `xml:"Header"`
	Ties        []Tie     `xml:"Tie"`
	WAN         WANConfig `xml:"WAN"`
	GatewayIEDs []Gateway `xml:"GatewayIED"`
}

// Tie is one electrical connection between two substations.
type Tie struct {
	Name      string  `xml:"name,attr"`
	FromSub   string  `xml:"fromSubstation,attr"`
	FromNode  string  `xml:"fromNode,attr"` // connectivity node pathName
	ToSub     string  `xml:"toSubstation,attr"`
	ToNode    string  `xml:"toNode,attr"`
	LengthKM  float64 `xml:"lengthKm,attr"`
	ROhmPerKM float64 `xml:"rOhmPerKm,attr"`
	XOhmPerKM float64 `xml:"xOhmPerKm,attr"`
	CNFPerKM  float64 `xml:"cNfPerKm,attr"`
	MaxIKA    float64 `xml:"maxIKa,attr"`
	// Breaker optionally names a circuit breaker guarding the tie at the
	// receiving end (operable by gateway IEDs, e.g. on a PDIF trip).
	Breaker string `xml:"breaker,attr,omitempty"`
}

// WANConfig describes the inter-substation network. The paper's toolchain
// "simplifies the emulation of WAN, and it is abstracted as a single switch
// connected to all substations" (§III-B); LatencyMS parameterises its links.
type WANConfig struct {
	LatencyMS float64 `xml:"latencyMs,attr"`
}

// Gateway names the IEDs participating in inter-substation communication
// (R-GOOSE / R-SV semantics of the SED per Table I).
type Gateway struct {
	Substation string `xml:"substation,attr"`
	IEDName    string `xml:"iedName,attr"`
}

// Errors returned by parsing and validation.
var (
	ErrNotSCL     = errors.New("scl: not an SCL document")
	ErrNotSED     = errors.New("scl: not an SED document")
	ErrValidation = errors.New("scl: validation failed")
)

// Parse decodes an SSD/SCD/ICD document.
func Parse(data []byte) (*Document, error) {
	var doc Document
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotSCL, err)
	}
	if doc.XMLName.Local != "SCL" {
		return nil, fmt.Errorf("%w: root element %q", ErrNotSCL, doc.XMLName.Local)
	}
	return &doc, nil
}

// ParseSED decodes a System Exchange Description.
func ParseSED(data []byte) (*SED, error) {
	var sed SED
	if err := xml.Unmarshal(data, &sed); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotSED, err)
	}
	if sed.XMLName.Local != "SED" {
		return nil, fmt.Errorf("%w: root element %q", ErrNotSED, sed.XMLName.Local)
	}
	return &sed, nil
}

// Marshal encodes the document with the SCL namespace and an XML header.
func (d *Document) Marshal() ([]byte, error) {
	d.XMLNS = Namespace
	body, err := xml.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), body...), nil
}

// Marshal encodes the SED with an XML header.
func (s *SED) Marshal() ([]byte, error) {
	body, err := xml.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), body...), nil
}

// DetectKind classifies a document per Table I.
func (d *Document) DetectKind() Kind {
	hasSub := len(d.Substations) > 0
	hasIEDs := len(d.IEDs) > 0
	hasComm := d.Communication != nil && len(d.Communication.SubNetworks) > 0
	switch {
	case hasSub && hasIEDs && hasComm:
		return KindSCD
	case hasSub && !hasIEDs:
		return KindSSD
	case !hasSub && len(d.IEDs) == 1:
		return KindICD
	case hasSub && hasIEDs:
		return KindSCD // partial SCD without comm section
	default:
		return KindUnknown
	}
}

// FindIED returns the named IED, or nil.
func (d *Document) FindIED(name string) *IED {
	for i := range d.IEDs {
		if d.IEDs[i].Name == name {
			return &d.IEDs[i]
		}
	}
	return nil
}

// FindSubstation returns the named substation, or nil.
func (d *Document) FindSubstation(name string) *Substation {
	for i := range d.Substations {
		if d.Substations[i].Name == name {
			return &d.Substations[i]
		}
	}
	return nil
}

// LogicalNodes flattens all LN instances of an IED (across LDevices),
// excluding LN0.
func (i *IED) LogicalNodes() []LN {
	var out []LN
	for _, ap := range i.AccessPoints {
		if ap.Server == nil {
			continue
		}
		for _, ld := range ap.Server.LDevices {
			out = append(out, ld.LNs...)
		}
	}
	return out
}

// HasLNClass reports whether the IED declares a logical node of the class
// (e.g. "PTOV" enables over-voltage protection per §III-B).
func (i *IED) HasLNClass(class string) bool {
	for _, ln := range i.LogicalNodes() {
		if ln.LnClass == class {
			return true
		}
	}
	return false
}

// APAddress returns the Address of the IED's connected access point within
// the communication section, or nil.
func (c *Communication) APAddress(iedName, apName string) *Address {
	for i := range c.SubNetworks {
		for j := range c.SubNetworks[i].ConnectedAPs {
			cap := &c.SubNetworks[i].ConnectedAPs[j]
			if cap.IEDName == iedName && (apName == "" || cap.APName == apName) {
				return &cap.Address
			}
		}
	}
	return nil
}

// Validate checks structural invariants needed by the SG-ML Processor.
func (d *Document) Validate() error {
	kind := d.DetectKind()
	if kind == KindUnknown {
		return fmt.Errorf("%w: cannot classify document (no substation, no IED)", ErrValidation)
	}
	seenSub := map[string]bool{}
	for _, sub := range d.Substations {
		if sub.Name == "" {
			return fmt.Errorf("%w: substation without name", ErrValidation)
		}
		if seenSub[sub.Name] {
			return fmt.Errorf("%w: duplicate substation %q", ErrValidation, sub.Name)
		}
		seenSub[sub.Name] = true
		cns := map[string]bool{}
		for _, vl := range sub.VoltageLevels {
			if vl.Voltage.KV() <= 0 {
				return fmt.Errorf("%w: voltage level %s/%s has no voltage", ErrValidation, sub.Name, vl.Name)
			}
			for _, bay := range vl.Bays {
				for _, cn := range bay.ConnectivityNodes {
					if cns[cn.PathName] {
						return fmt.Errorf("%w: duplicate connectivity node %q", ErrValidation, cn.PathName)
					}
					cns[cn.PathName] = true
				}
			}
		}
		// Terminals must reference declared connectivity nodes.
		for _, vl := range sub.VoltageLevels {
			for _, bay := range vl.Bays {
				for _, eq := range bay.ConductingEquipments {
					if len(eq.Terminals) == 0 {
						return fmt.Errorf("%w: equipment %s/%s has no terminals", ErrValidation, bay.Name, eq.Name)
					}
					for _, term := range eq.Terminals {
						if !cns[term.ConnectivityNode] {
							return fmt.Errorf("%w: equipment %q terminal references unknown node %q",
								ErrValidation, eq.Name, term.ConnectivityNode)
						}
					}
				}
			}
		}
		for _, tr := range sub.PowerTransformers {
			if len(tr.Windings) != 2 {
				return fmt.Errorf("%w: transformer %q has %d windings, want 2", ErrValidation, tr.Name, len(tr.Windings))
			}
			for _, w := range tr.Windings {
				for _, term := range w.Terminals {
					if !cns[term.ConnectivityNode] {
						return fmt.Errorf("%w: transformer %q winding references unknown node %q",
							ErrValidation, tr.Name, term.ConnectivityNode)
					}
				}
			}
		}
	}
	seenIED := map[string]bool{}
	for _, ied := range d.IEDs {
		if ied.Name == "" {
			return fmt.Errorf("%w: IED without name", ErrValidation)
		}
		if seenIED[ied.Name] {
			return fmt.Errorf("%w: duplicate IED %q", ErrValidation, ied.Name)
		}
		seenIED[ied.Name] = true
	}
	if d.Communication != nil {
		for _, sn := range d.Communication.SubNetworks {
			for _, cap := range sn.ConnectedAPs {
				if kind == KindSCD && !seenIED[cap.IEDName] {
					return fmt.Errorf("%w: subnetwork %q references unknown IED %q", ErrValidation, sn.Name, cap.IEDName)
				}
				if ip := cap.Address.Get("IP"); ip != "" {
					if err := checkIPv4(ip); err != nil {
						return fmt.Errorf("%w: IED %q: %v", ErrValidation, cap.IEDName, err)
					}
				}
			}
		}
	}
	return nil
}

// Validate checks tie and gateway integrity of an SED against the named
// substation documents it joins.
func (s *SED) Validate(subs map[string]*Document) error {
	for _, tie := range s.Ties {
		for _, end := range []struct{ sub, node string }{{tie.FromSub, tie.FromNode}, {tie.ToSub, tie.ToNode}} {
			doc, ok := subs[end.sub]
			if !ok {
				return fmt.Errorf("%w: tie %q references unknown substation %q", ErrValidation, tie.Name, end.sub)
			}
			if !docHasNode(doc, end.node) {
				return fmt.Errorf("%w: tie %q references unknown node %q in %q", ErrValidation, tie.Name, end.node, end.sub)
			}
		}
		if tie.XOhmPerKM <= 0 || tie.LengthKM <= 0 {
			return fmt.Errorf("%w: tie %q missing impedance/length", ErrValidation, tie.Name)
		}
	}
	for _, gw := range s.GatewayIEDs {
		if _, ok := subs[gw.Substation]; !ok {
			return fmt.Errorf("%w: gateway references unknown substation %q", ErrValidation, gw.Substation)
		}
	}
	return nil
}

func docHasNode(doc *Document, path string) bool {
	for _, sub := range doc.Substations {
		for _, vl := range sub.VoltageLevels {
			for _, bay := range vl.Bays {
				for _, cn := range bay.ConnectivityNodes {
					if cn.PathName == path {
						return true
					}
				}
			}
		}
	}
	return false
}

func checkIPv4(s string) error {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return fmt.Errorf("bad IPv4 %q", s)
	}
	for _, p := range parts {
		if _, err := strconv.ParseUint(p, 10, 8); err != nil {
			return fmt.Errorf("bad IPv4 %q", s)
		}
	}
	return nil
}
