package sgmlconf

import (
	"encoding/json"
	"fmt"
)

// SCADABR-style import JSON. The paper's toolchain includes "a script to
// translate the SCADA Config XML into a JSON format that SCADABR can import"
// (§III-B); this is that translation, consumed by internal/scada.

// ScadaImport is the top-level import document.
type ScadaImport struct {
	DataSources []ScadaImportSource `json:"dataSources"`
	DataPoints  []ScadaImportPoint  `json:"dataPoints"`
}

// ScadaImportSource mirrors a SCADABR data source definition.
type ScadaImportSource struct {
	XID            string `json:"xid"`
	Name           string `json:"name"`
	Type           string `json:"type"` // MODBUS_IP | MMS
	Host           string `json:"host"`
	IP             string `json:"ip"`
	Port           int    `json:"port"`
	UpdatePeriodMS int    `json:"updatePeriodMs"` // the HMI's read period on the step clock, rounded up to whole steps
	Enabled        bool   `json:"enabled"`
}

// ScadaImportPoint mirrors a SCADABR data point definition.
type ScadaImportPoint struct {
	XID             string  `json:"xid"`
	Name            string  `json:"name"`
	DataSourceXID   string  `json:"dataSourceXid"`
	PointLocator    string  `json:"pointLocator"` // register / MMS object reference
	DataType        string  `json:"dataType"`     // NUMERIC | BINARY
	Multiplier      float64 `json:"multiplier"`
	SettableEnabled bool    `json:"settable"`
	AlarmEnabled    bool    `json:"alarmEnabled"`
	AlarmLowLimit   float64 `json:"alarmLowLimit,omitempty"`
	AlarmHighLimit  float64 `json:"alarmHighLimit,omitempty"`
}

// ToImportJSON converts the SCADA Config XML model to the importable JSON.
func (c *SCADAConfig) ToImportJSON() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	imp := ScadaImport{}
	for _, s := range c.DataSources {
		typ := "MODBUS_IP"
		if s.Protocol == "mms" {
			typ = "MMS"
		}
		poll := s.PollMS
		if poll <= 0 {
			poll = 1000
		}
		imp.DataSources = append(imp.DataSources, ScadaImportSource{
			XID:            "DS_" + s.Name,
			Name:           s.Name,
			Type:           typ,
			Host:           s.Host,
			IP:             s.IP,
			Port:           s.Port,
			UpdatePeriodMS: poll,
			Enabled:        true,
		})
	}
	for _, p := range c.DataPoints {
		dt := "NUMERIC"
		if p.Kind == "binary" {
			dt = "BINARY"
		}
		mult := p.Scale
		if mult == 0 {
			mult = 1
		}
		imp.DataPoints = append(imp.DataPoints, ScadaImportPoint{
			XID:             "DP_" + p.Name,
			Name:            p.Name,
			DataSourceXID:   "DS_" + p.Source,
			PointLocator:    p.Address,
			DataType:        dt,
			Multiplier:      mult,
			SettableEnabled: p.Writable,
			AlarmEnabled:    p.HasAlarm,
			AlarmLowLimit:   p.AlarmLow,
			AlarmHighLimit:  p.AlarmHigh,
		})
	}
	return json.MarshalIndent(imp, "", "  ")
}

// ParseImportJSON decodes the importable JSON back into its model form
// (the SCADA HMI loads this at startup, mirroring the paper's manual upload
// of "the SCADABR Config JSON data").
func ParseImportJSON(data []byte) (*ScadaImport, error) {
	var imp ScadaImport
	if err := json.Unmarshal(data, &imp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	srcs := map[string]bool{}
	for _, s := range imp.DataSources {
		srcs[s.XID] = true
	}
	for _, p := range imp.DataPoints {
		if !srcs[p.DataSourceXID] {
			return nil, fmt.Errorf("%w: point %q references unknown source %q", ErrConfig, p.XID, p.DataSourceXID)
		}
	}
	return &imp, nil
}
