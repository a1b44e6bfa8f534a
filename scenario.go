package sgml

import (
	"context"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/sgmlconf"
)

// Scenario layer re-exports: the typed event DSL, the deterministic
// scheduler's options and the structured run report. See the package doc's
// "Scenarios" section for the model; internal/core/scenario.go holds the
// engine.
type (
	// Scenario is a declarative, reproducible experiment: attacker
	// placements plus typed events (trigger + action) that the deterministic
	// scheduler fires inside the step loop.
	Scenario = core.Scenario
	// Event pairs a Trigger with an Action.
	Event = core.ScenarioEvent
	// AttackerSpec places an attacker host on a named switch of the fabric.
	AttackerSpec = core.AttackerSpec
	// Trigger decides when an event fires: a step index (At), a
	// simulated-time offset (After), or an observed condition
	// (OnBreakerOpen/OnBreakerClose/OnAlert/OnDeadBuses), optionally
	// delayed with Plus.
	Trigger = core.Trigger
	// Action is one typed scenario action; see the concrete types below.
	Action = core.Action

	// PowerStep is the generic power-model action (kinds "loadScale",
	// "loadP", "genP", "sgenP", "switch", "lineService" — the supplementary
	// XML vocabulary). OpenBreaker, CloseBreaker, ScaleLoad, SetLoadMW,
	// SetGenMW, SetSGenMW, FailLine and RestoreLine construct the common
	// cases.
	PowerStep = core.PowerStep
	// LinkDown pulls the cable between two named devices.
	LinkDown = core.LinkDown
	// LinkUp restores the cable between two named devices.
	LinkUp = core.LinkUp
	// LinkFlap pulls a cable for DownSteps steps, then restores it.
	LinkFlap = core.LinkFlap
	// LinkLoss sets a link's per-frame loss rate (seeded, replayable).
	LinkLoss = core.LinkLoss
	// LinkLatency sets a link's one-way propagation delay.
	LinkLatency = core.LinkLatency
	// PortScan runs a TCP connect scan from an attacker (recon).
	PortScan = core.PortScan
	// FalseCommand injects a standard-compliant MMS write from an attacker
	// (the §IV-B false-command-injection case study).
	FalseCommand = core.FalseCommand
	// StartMITM mounts an ARP-spoofing man-in-the-middle (Fig 6).
	StartMITM = core.StartMITM
	// StopMITM withdraws an attacker's active MITM.
	StopMITM = core.StopMITM
	// ModbusTamper injects a Modbus/TCP write from an attacker into a PLC's
	// northbound server — the logic-manipulation counterpart of FalseCommand,
	// reaching the ST/PLC runtime through the SCADA protocol. TamperCoil and
	// TamperRegister construct the two forms.
	ModbusTamper = core.ModbusTamper
	// DeployIDS attaches a passive IDS sensor to every link of the fabric.
	DeployIDS = core.DeployIDS

	// RunReport is the structured result of a scenario run; everything
	// outside its Diag section is deterministic for a fixed (model,
	// scenario, seed) and canonicalised by Fingerprint.
	RunReport = core.RunReport
	// EventOutcome records one scenario event's execution.
	EventOutcome = core.EventOutcome
	// TruthEntry is one injected-attack ground-truth record.
	TruthEntry = core.TruthEntry
	// AlertSummary is one distinct (sensor, kind, source) IDS timeline line.
	AlertSummary = core.AlertSummary
	// GridReport is the closing state of the power model.
	GridReport = core.GridReport
	// RunDiagnostics are the wall-clock-coupled counters of a run.
	RunDiagnostics = core.RunDiagnostics

	// RunOption tunes a scenario run (WithSeed, WithMaxSteps).
	RunOption = core.RunOption

	// AlertKind classifies IDS alerts (see the repro/ids facade for the
	// sensor itself and the kind constants).
	AlertKind = ids.AlertKind
)

// ErrScenario is returned when a scenario cannot be validated against the
// compiled range, or cannot be run.
var ErrScenario = core.ErrScenario

// IDS alert kinds, re-exported for OnAlert triggers and report matching.
const (
	AlertARPSpoof          = ids.AlertARPSpoof
	AlertUnauthorizedWrite = ids.AlertUnauthorizedWrite
	AlertGooseAnomaly      = ids.AlertGooseAnomaly
	AlertPortScan          = ids.AlertPortScan
)

// At triggers at the given zero-based step index.
func At(step int) Trigger { return core.At(step) }

// After triggers at the first step at or past the simulated-time offset.
func After(offset time.Duration) Trigger { return core.After(offset) }

// OnBreakerOpen triggers once the named breaker/switch is observed open.
func OnBreakerOpen(breaker string) Trigger { return core.OnBreakerOpen(breaker) }

// OnBreakerClose triggers once the named breaker/switch is observed closed.
func OnBreakerClose(breaker string) Trigger { return core.OnBreakerClose(breaker) }

// OnAlert triggers once any deployed IDS sensor raises an alert of the kind.
func OnAlert(kind AlertKind) Trigger { return core.OnAlert(kind) }

// OnDeadBuses triggers once the grid reports at least n de-energised buses.
func OnDeadBuses(n int) Trigger { return core.OnDeadBuses(n) }

// OpenBreaker opens the named breaker/switch in the power model.
func OpenBreaker(breaker string) PowerStep { return core.OpenBreaker(breaker) }

// CloseBreaker closes the named breaker/switch in the power model.
func CloseBreaker(breaker string) PowerStep { return core.CloseBreaker(breaker) }

// ScaleLoad multiplies the named load's nominal power by factor (0 sheds it).
func ScaleLoad(load string, factor float64) PowerStep { return core.ScaleLoad(load, factor) }

// SetLoadMW overrides the named load's absolute active power.
func SetLoadMW(load string, mw float64) PowerStep { return core.SetLoadMW(load, mw) }

// SetGenMW overrides the named generator's active power.
func SetGenMW(gen string, mw float64) PowerStep { return core.SetGenMW(gen, mw) }

// SetSGenMW overrides the named static generator's active power.
func SetSGenMW(sgen string, mw float64) PowerStep { return core.SetSGenMW(sgen, mw) }

// FailLine forces the named line out of service.
func FailLine(line string) PowerStep { return core.FailLine(line) }

// RestoreLine returns the named line to service.
func RestoreLine(line string) PowerStep { return core.RestoreLine(line) }

// TamperCoil builds a ModbusTamper that forces a PLC coil (a forged SCADA
// command: the PLC's next scan applies it to the bound ST variable).
func TamperCoil(attacker, plcName string, addr uint16, on bool) ModbusTamper {
	return core.TamperCoil(attacker, plcName, addr, on)
}

// TamperRegister builds a ModbusTamper that overwrites a PLC holding register.
func TamperRegister(attacker, plcName string, addr, value uint16) ModbusTamper {
	return core.TamperRegister(attacker, plcName, addr, value)
}

// WithSeed overrides the scenario's replay seed: every randomised choice of
// the run (attacker MAC derivation, port-scan order, the fabric's loss
// generator) derives from it, so a fixed seed replays byte-identically.
func WithSeed(seed int64) RunOption { return core.WithSeed(seed) }

// WithMaxSteps caps the run at n steps; a scenario asking for more aborts
// deterministically with a "step budget" report error. Scenario search bounds
// every candidate run with it, and corpus sidecars record the cap so replays
// reproduce the verdict.
func WithMaxSteps(n int) RunOption { return core.WithMaxSteps(n) }

// Run compiles a model set, executes the scenario against it and tears the
// range down, returning the structured report — the paper's "automated
// generation of experiments" as one call. Use RunRange to keep the range
// alive for inspection afterwards, or Compile + RunCompiled to execute many
// runs against one compiled range.
func Run(ctx context.Context, ms *ModelSet, sc *Scenario, opts ...RunOption) (*RunReport, error) {
	r, err := Compile(ms)
	if err != nil {
		return nil, err
	}
	defer r.Stop()
	return core.RunScenario(ctx, r, sc, opts...)
}

// RunRange executes a scenario against an already compiled (not yet started)
// range. The range is left started so callers can inspect the HMI, grid and
// counters; they still own Stop.
func RunRange(ctx context.Context, r *CyberRange, sc *Scenario, opts ...RunOption) (*RunReport, error) {
	return core.RunScenario(ctx, r, sc, opts...)
}

// RunCompiled executes a scenario against a fork of a compiled range: cr
// itself is never started or mutated, so the caller can issue any number of
// RunCompiled calls — sequentially or concurrently — against the same
// compiled range, paying the SG-ML pipeline once. Each call's fork is stopped
// before returning; the caller keeps ownership of cr (and its Stop).
//
// A forked run is byte-identical to a fresh Compile + Run of the same
// (model, scenario, seed) — pinned by TestForkDeterminism.
func RunCompiled(ctx context.Context, cr *CyberRange, sc *Scenario, opts ...RunOption) (*RunReport, error) {
	fork, err := cr.Fork()
	if err != nil {
		return nil, err
	}
	defer fork.Stop()
	return core.RunScenario(ctx, fork, sc, opts...)
}

// ParseScenario decodes and validates a Scenario XML document (the fourth
// supplementary schema, parsed by internal/sgmlconf) into a typed Scenario.
func ParseScenario(data []byte) (*Scenario, error) {
	cfg, err := sgmlconf.ParseScenarioConfig(data)
	if err != nil {
		return nil, err
	}
	return core.ScenarioFromConfig(cfg)
}

// LoadScenarioFile reads a Scenario XML file from disk.
func LoadScenarioFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseScenario(data)
}

// MarshalScenario renders a typed Scenario into its declarative XML form —
// the reverse of ParseScenario. The round-trip contract: the emitted document
// re-parses to a scenario whose RunReport.Fingerprint matches the original
// for a fixed (model, seed). Scenarios using values without an XML form
// (sub-millisecond durations, exotic MMS payloads, user-defined Action
// implementations) return ErrScenario.
func MarshalScenario(sc *Scenario) ([]byte, error) {
	cfg, err := core.ScenarioToConfig(sc)
	if err != nil {
		return nil, err
	}
	return sgmlconf.MarshalScenarioConfig(cfg)
}

// ValidateScenario resolves a scenario against a compiled range without
// running it — the pre-run check RunRange performs, exposed for cheap
// candidate rejection. Errors wrap ErrScenario; actions that resolve model
// elements (power steps, ModbusTamper) additionally wrap ErrModel.
func ValidateScenario(r *CyberRange, sc *Scenario) error {
	return core.ValidateScenario(r, sc)
}
