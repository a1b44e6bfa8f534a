// Package sgmlconf implements the supplementary XML schemas of SG-ML.
//
// IEC 61850 SCL files carry static structure but not everything a cyber
// range needs (§III-A). The paper defines three supplementary config files;
// this reproduction adds two more in the same deliberately simple, flat
// attribute style ("user-friendliness", §III-A):
//
//   - IED Config XML (sgmlconf.go) — protection-function thresholds
//     (Table II) and the mapping between ICD data names and power-simulation
//     elements ("which IED is measuring or controlling which transmission
//     lines");
//   - SCADA Config XML (sgmlconf.go, scadajson.go) — data sources and data
//     points for the SCADA HMI, convertible to the SCADABR import JSON;
//   - Power System Extra Config XML (sgmlconf.go) — electrical parameters
//     absent from SCL, plus load-profile / disturbance time series driving
//     the simulation;
//   - Scenario XML (scenario.go) — the declarative experiment form: attacker
//     placements plus trigger + action events (power faults, link
//     impairments, attack steps, IDS deployment), executed headlessly by
//     "rangectl scenario run";
//   - Campaign XML (campaign.go) — the sweep form: scenario variants × seed
//     ranges, executed concurrently by "rangectl campaign run"; the retired
//     engine/data-plane toggle attributes are parsed and ignored.
//
// There is also the PLC mapping config (plcconfig.go) binding PLC variables
// to IED data references and Modbus registers.
//
// Every Parse*Config function validates structural invariants and returns
// errors wrapping ErrConfig; resolution against a compiled range happens
// later, in internal/core.
package sgmlconf
