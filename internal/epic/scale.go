package epic

import (
	"fmt"

	"repro/internal/scl"
	"repro/internal/sgmlconf"
)

// ScaleModel is a parametric multi-substation model for the scalability
// experiment (§IV-A: "a commodity desktop PC ... can host a 5-substation
// model including 104 virtual IEDs with 100ms power flow simulation
// interval").
type ScaleModel struct {
	SCDs        map[string]*scl.Document // substation name -> SCD
	SED         *scl.SED
	IEDConfigs  *sgmlconf.IEDConfig
	PowerConfig *sgmlconf.PowerConfig
	Substations []string
	TotalIEDs   int
}

// NewScaleModel builds nSubs substations, each with feeders feeder bays (one
// IED per feeder plus one gateway IED), chained by SED tie lines. The first
// substation carries the external grid connection.
func NewScaleModel(nSubs, feeders int) (*ScaleModel, error) {
	if nSubs < 1 || feeders < 1 {
		return nil, fmt.Errorf("epic: scale model needs at least 1 substation and 1 feeder")
	}
	out := &ScaleModel{
		SCDs:        make(map[string]*scl.Document, nSubs),
		SED:         &scl.SED{Header: scl.Header{ID: "scale-sed"}, WAN: scl.WANConfig{LatencyMS: 2}},
		IEDConfigs:  &sgmlconf.IEDConfig{},
		PowerConfig: &sgmlconf.PowerConfig{BaseMVA: 100, IntervalMS: 100},
	}
	for s := 1; s <= nSubs; s++ {
		sub := fmt.Sprintf("S%d", s)
		out.Substations = append(out.Substations, sub)
		doc := buildScaleSub(sub, s, feeders, s == 1)
		out.SCDs[sub] = doc
		out.TotalIEDs += feeders + 1

		// Element parameters + IED entries.
		if s == 1 {
			out.PowerConfig.Elements = append(out.PowerConfig.Elements,
				sgmlconf.ElementParam{Kind: "extgrid", Name: "Grid", VmPU: 1.01})
		}
		gwName := sub + "_GW"
		gwEntry := sgmlconf.IEDEntry{
			Name: gwName, Substation: sub,
			Measures: []sgmlconf.Measure{{Point: "busVoltage", Element: cn(sub, "VL22", "Main", "MainBus")}},
		}
		if s > 1 {
			// Differential protection on the upstream tie, exchanged with the
			// previous substation's gateway over R-SV (Table II row 4).
			prev := fmt.Sprintf("S%d", s-1)
			tie := fmt.Sprintf("Tie_%s_%s", prev, sub)
			gwEntry.Protection.PDIF = &sgmlconf.PDIFConf{
				ThresholdKA: 0.08, DelayMS: 100, Line: tie, RemoteIED: prev + "_GW",
			}
			gwEntry.Controls = []sgmlconf.Control{{Breaker: sub + "_TieCB"}}
		}
		out.IEDConfigs.IEDs = append(out.IEDConfigs.IEDs, gwEntry)
		for f := 1; f <= feeders; f++ {
			line := fmt.Sprintf("%s_F%d", sub, f)
			cb := fmt.Sprintf("%s_CB%d", sub, f)
			load := fmt.Sprintf("%s_LD%d", sub, f)
			out.PowerConfig.Elements = append(out.PowerConfig.Elements,
				sgmlconf.ElementParam{Kind: "line", Name: line, LengthKM: 0.5, ROhmPerKM: 0.1, XOhmPerKM: 0.35, CNFPerKM: 9, MaxIKA: 0.3},
				sgmlconf.ElementParam{Kind: "load", Name: load, PMW: 0.2, QMVAr: 0.05},
			)
			out.IEDConfigs.IEDs = append(out.IEDConfigs.IEDs, sgmlconf.IEDEntry{
				Name: fmt.Sprintf("%s_IED%d", sub, f), Substation: sub,
				Protection: sgmlconf.Protection{
					PTOC: &sgmlconf.PTOCConf{ThresholdKA: 0.25, DelayMS: 100, Line: line},
					PTUV: &sgmlconf.PTUVConf{ThresholdPU: 0.85, DelayMS: 300, Bus: cn(sub, "VL22", fmt.Sprintf("F%d", f), "FeederBus")},
				},
				Measures: []sgmlconf.Measure{
					{Point: "lineCurrent", Element: line},
					{Point: "busVoltage", Element: cn(sub, "VL22", fmt.Sprintf("F%d", f), "FeederBus")},
				},
				Controls: []sgmlconf.Control{{Breaker: cb}},
			})
		}
		if s > 1 {
			prev := fmt.Sprintf("S%d", s-1)
			tie := fmt.Sprintf("Tie_%s_%s", prev, sub)
			out.SED.Ties = append(out.SED.Ties, scl.Tie{
				Name:    tie,
				FromSub: prev, FromNode: cn(prev, "VL22", "Main", "MainBus"),
				ToSub: sub, ToNode: cn(sub, "VL22", "Main", "MainBus"),
				// Short, stiff ties: the radial chain must carry the whole
				// downstream load without voltage collapse.
				LengthKM: 5, ROhmPerKM: 0.04, XOhmPerKM: 0.25, CNFPerKM: 9, MaxIKA: 1.2,
				Breaker: sub + "_TieCB",
			})
			out.SED.GatewayIEDs = append(out.SED.GatewayIEDs,
				scl.Gateway{Substation: prev, IEDName: prev + "_GW"},
				scl.Gateway{Substation: sub, IEDName: gwName},
			)
		}
	}
	return out, nil
}

// The XL scale-model size: 10 substations × 50 feeders (510 buses), the
// size the sparse-solver ablation runs at. Past the 5×20 of the paper's
// §IV-A experiment, the radial chain needs lighter feeders and stiffer ties
// than the default parameters or the head of the chain collapses, so
// NewScaleModelXL rewrites the electrical parameters accordingly.
const (
	ScaleXLSubs    = 10
	ScaleXLFeeders = 50
)

// NewScaleModelXL builds the 10×50 model used by the sparse-solver ablation:
// NewScaleModel's topology with XL electrical parameters (0.05 MW feeders,
// low-impedance ties) so the ten-substation radial chain stays solvable.
func NewScaleModelXL() (*ScaleModel, error) {
	out, err := NewScaleModel(ScaleXLSubs, ScaleXLFeeders)
	if err != nil {
		return nil, err
	}
	for i := range out.PowerConfig.Elements {
		e := &out.PowerConfig.Elements[i]
		if e.Kind == "load" {
			e.PMW = 0.05
			e.QMVAr = 0.0125
		}
	}
	for i := range out.SED.Ties {
		t := &out.SED.Ties[i]
		t.LengthKM = 2
		t.ROhmPerKM = 0.02
		t.XOhmPerKM = 0.12
		t.MaxIKA = 2.0
	}
	return out, nil
}

func buildScaleSub(sub string, index, feeders int, withGrid bool) *scl.Document {
	mainBay := scl.Bay{
		Name: "Main",
		ConnectivityNodes: []scl.ConnectivityNode{
			{Name: "MainBus", PathName: cn(sub, "VL22", "Main", "MainBus")},
		},
	}
	if withGrid {
		mainBay.ConductingEquipments = append(mainBay.ConductingEquipments, scl.ConductingEquipment{
			Name: "Grid", Type: scl.TypeExternalGrid,
			Terminals: []scl.Terminal{{ConnectivityNode: cn(sub, "VL22", "Main", "MainBus")}},
		})
	}
	bays := []scl.Bay{mainBay}
	for f := 1; f <= feeders; f++ {
		bay := fmt.Sprintf("F%d", f)
		bays = append(bays, scl.Bay{
			Name: bay,
			ConductingEquipments: []scl.ConductingEquipment{
				{Name: fmt.Sprintf("%s_F%d", sub, f), Type: scl.TypeLine, Terminals: []scl.Terminal{
					{ConnectivityNode: cn(sub, "VL22", "Main", "MainBus")},
					{ConnectivityNode: cn(sub, "VL22", bay, "FeederBus")},
				}},
				{Name: fmt.Sprintf("%s_CB%d", sub, f), Type: scl.TypeBreaker, Terminals: []scl.Terminal{
					{ConnectivityNode: cn(sub, "VL22", bay, "FeederBus")},
				}},
				{Name: fmt.Sprintf("%s_LD%d", sub, f), Type: scl.TypeLoad, Terminals: []scl.Terminal{
					{ConnectivityNode: cn(sub, "VL22", bay, "FeederBus")},
				}},
			},
			ConnectivityNodes: []scl.ConnectivityNode{
				{Name: "FeederBus", PathName: cn(sub, "VL22", bay, "FeederBus")},
			},
		})
	}
	var ieds []scl.IED
	var caps []scl.ConnectedAP
	addIED := func(name string, last byte, classes []string) {
		lns := make([]scl.LN, 0, len(classes))
		for _, c := range classes {
			lns = append(lns, scl.LN{LnClass: c, Inst: "1", LnType: c + "_T"})
		}
		ieds = append(ieds, scl.IED{
			Name: name, Type: "protection", Manufacturer: "SG-ML",
			AccessPoints: []scl.AccessPoint{{
				Name:   "AP1",
				Server: &scl.Server{LDevices: []scl.LDevice{{Inst: "LD0", LNs: lns}}},
			}},
		})
		caps = append(caps, scl.ConnectedAP{
			IEDName: name, APName: "AP1",
			Address: scl.Address{Ps: []scl.P{
				{Type: "IP", Value: fmt.Sprintf("10.%d.0.%d", index, last)},
				{Type: "IP-SUBNET", Value: "255.255.0.0"},
				{Type: "MAC-Address", Value: fmt.Sprintf("00-0C-CD-%02X-00-%02X", index, last)},
			}},
		})
	}
	addIED(sub+"_GW", 9, []string{"MMXU", "XCBR", "PDIF", "CILO"})
	for f := 1; f <= feeders; f++ {
		addIED(fmt.Sprintf("%s_IED%d", sub, f), byte(10+f), []string{"MMXU", "XCBR", "PTOC", "PTUV", "CSWI"})
	}
	return &scl.Document{
		Header: scl.Header{ID: sub + "-scd", ToolID: "sgml-scale"},
		Substations: []scl.Substation{{
			Name: sub,
			VoltageLevels: []scl.VoltageLevel{{
				Name:    "VL22",
				Voltage: scl.Voltage{Unit: "V", Multiplier: "k", Value: 22},
				Bays:    bays,
			}},
		}},
		IEDs: ieds,
		Communication: &scl.Communication{SubNetworks: []scl.SubNetwork{{
			Name: "LAN", Type: "8-MMS", ConnectedAPs: caps,
		}}},
		DataTypeTemplates: &scl.DataTypeTemplates{LNodeTypes: lnTypes([]string{"MMXU", "XCBR", "PTOC", "PTUV", "CILO", "CSWI"})},
	}
}
