package sgmlconf

import (
	"encoding/xml"
	"fmt"
)

// PLCConfig is the PLC I/O mapping file — the equivalent of OpenPLC61850's
// mapping configuration that binds Structured Text variables to IEC 61850
// object references southbound and Modbus table entries northbound. The
// paper's OpenPLC61850 derives this from the ICD files it is given plus its
// own mapping file; SG-ML carries it as one more supplementary XML schema.
type PLCConfig struct {
	XMLName    xml.Name     `xml:"PLCConfig"`
	Name       string       `xml:"name,attr"`
	Host       string       `xml:"host,attr"`   // node name in the SCD
	ScanMS     int          `xml:"scanMs,attr"` // model input only: the range scans each PLC once per step
	ModbusPort int          `xml:"modbusPort,attr"`
	Inputs     []PLCBinding `xml:"Input"`
	Outputs    []PLCBinding `xml:"Output"`
	Exposes    []PLCExpose  `xml:"Expose"`
	Commands   []PLCCommand `xml:"Command"`
}

// PLCBinding couples an ST variable with an IED object reference.
type PLCBinding struct {
	Var   string  `xml:"var,attr"`
	IED   string  `xml:"ied,attr"`
	Ref   string  `xml:"ref,attr"`
	Scale float64 `xml:"scale,attr"`
}

// PLCExpose publishes an ST variable into a Modbus table.
type PLCExpose struct {
	Var   string  `xml:"var,attr"`
	Kind  string  `xml:"kind,attr"` // inputReg | discrete | holding
	Addr  uint16  `xml:"addr,attr"`
	Scale float64 `xml:"scale,attr"`
}

// PLCCommand maps a Modbus coil write onto an ST variable.
type PLCCommand struct {
	Coil uint16 `xml:"coil,attr"`
	Var  string `xml:"var,attr"`
}

var validExposeKinds = map[string]bool{"inputReg": true, "discrete": true, "holding": true}

// Validate checks structural sanity.
func (c *PLCConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("%w: PLC config without name", ErrConfig)
	}
	for _, b := range c.Inputs {
		if b.Var == "" || b.IED == "" || b.Ref == "" {
			return fmt.Errorf("%w: PLC input binding %+v incomplete", ErrConfig, b)
		}
	}
	for _, b := range c.Outputs {
		if b.Var == "" || b.IED == "" || b.Ref == "" {
			return fmt.Errorf("%w: PLC output binding %+v incomplete", ErrConfig, b)
		}
	}
	for _, e := range c.Exposes {
		if e.Var == "" || !validExposeKinds[e.Kind] {
			return fmt.Errorf("%w: PLC expose %+v invalid", ErrConfig, e)
		}
	}
	for _, cmd := range c.Commands {
		if cmd.Var == "" {
			return fmt.Errorf("%w: PLC command for coil %d without variable", ErrConfig, cmd.Coil)
		}
	}
	return nil
}

// ParsePLCConfig decodes and validates a PLC mapping file.
func ParsePLCConfig(data []byte) (*PLCConfig, error) {
	var c PLCConfig
	if err := xml.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
