package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/netem"
)

// RunReport is the structured result of a scenario run: what fired and when,
// how the IDS timeline compares against the injected ground truth, and the
// closing state of the grid, plus the range's solver and data-plane counters.
//
// Everything outside Diag is deterministic for a fixed (model, scenario,
// seed): two runs — with frame pooling on or off — produce identical values,
// which Fingerprint canonicalises for replay tests. Diag collects wall-clock-coupled counters (solve times,
// frame/retransmission counts) that vary run to run and is excluded from the
// fingerprint.
type RunReport struct {
	Scenario string
	Seed     int64
	Steps    int
	Interval time.Duration
	// Err is set when the run aborted (solver divergence, cancelled context);
	// the report still carries everything observed up to the abort.
	Err string

	Events    []EventOutcome
	Truth     []TruthEntry
	Alerts    []AlertSummary
	Precision float64 // matched distinct (sensor,kind,source) alerts / all such alerts; 1 when no alerts
	Recall    float64 // detected ground-truth injections / all injections; 1 when no injections

	Grid GridReport
	Diag RunDiagnostics
}

// EventOutcome records one scenario event's execution.
type EventOutcome struct {
	Event  string
	Action string // deterministic one-line action description
	Fired  bool
	Step   int    // step whose pre-hook fired the event; -1 if never fired
	Detail string // action-specific deterministic result, e.g. "8 ports scanned, 2 open"
	Err    string // runtime failure of the action ("" on success)
}

// TruthEntry is one injected-attack ground-truth record: the alert the IDS
// layer should have raised, and whether (and when) it did.
type TruthEntry struct {
	Event        string
	Expect       string // expected alert kind
	Source       string // expected alert source (attacker IP or MAC)
	Detected     bool
	DetectedStep int // step at whose post-hook the match was first observed; -1 if undetected
}

// AlertSummary is one distinct (sensor, kind, source) alert line of the IDS
// timeline. Repeat raises of the same line (ARP re-poisoning rounds, a write
// observed on several tapped links) collapse into it, so the summary is
// independent of wall-clock repetition counts.
type AlertSummary struct {
	Sensor    string
	Kind      string
	Source    string
	FirstStep int  // Alert.Step of the earliest raise; -1 when unstamped
	Matched   bool // corresponds to an injected ground-truth entry
}

// GridReport is the closing state of the power model.
type GridReport struct {
	Converged    bool
	Islands      int
	DeadBuses    int
	OpenBreakers []string // sorted
}

// RunDiagnostics are the wall-clock-coupled counters of the run — excluded
// from Fingerprint (see RunReport).
type RunDiagnostics struct {
	PowerSteps        uint64
	MeanSolve         time.Duration
	SolverCacheHits   uint64
	SolverCacheMisses uint64
	SolveFailures     uint64
	DataPlane         netem.DataPlaneStats
	FramesInspected   uint64 // summed over deployed sensors
	AlertsRaised      int    // raw alert count incl. repeats
}

// FailedEvents returns "event: error" lines for every scenario event whose
// action failed at runtime. Operators (rangectl, campaigns) use it to turn a
// buried event failure into a non-zero exit instead of a silent report line.
func (rep *RunReport) FailedEvents() []string {
	var out []string
	for _, e := range rep.Events {
		if e.Err != "" {
			out = append(out, fmt.Sprintf("%s: %s", e.Event, e.Err))
		}
	}
	return out
}

// Fingerprint renders the deterministic projection of the report in a
// canonical line-oriented form. Two runs of the same scenario with the same
// seed yield byte-identical fingerprints regardless of frame pooling, host
// speed or wall-clock timing; the determinism tests pin this.
func (rep *RunReport) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %q seed=%d steps=%d interval=%s err=%q\n",
		rep.Scenario, rep.Seed, rep.Steps, rep.Interval, rep.Err)
	for _, e := range rep.Events {
		fmt.Fprintf(&sb, "event %q action=%q fired=%t step=%d detail=%q err=%q\n",
			e.Event, e.Action, e.Fired, e.Step, e.Detail, e.Err)
	}
	for _, tr := range rep.Truth {
		fmt.Fprintf(&sb, "truth %q expect=%s source=%s detected=%t step=%d\n",
			tr.Event, tr.Expect, tr.Source, tr.Detected, tr.DetectedStep)
	}
	for _, a := range rep.Alerts {
		fmt.Fprintf(&sb, "alert sensor=%q kind=%s source=%s first=%d matched=%t\n",
			a.Sensor, a.Kind, a.Source, a.FirstStep, a.Matched)
	}
	fmt.Fprintf(&sb, "score precision=%.4f recall=%.4f\n", rep.Precision, rep.Recall)
	fmt.Fprintf(&sb, "grid converged=%t islands=%d dead=%d open=%s\n",
		rep.Grid.Converged, rep.Grid.Islands, rep.Grid.DeadBuses,
		strings.Join(rep.Grid.OpenBreakers, ","))
	return sb.String()
}

// String renders the full report for operators (rangectl, examples): the
// deterministic sections plus the diagnostics footer.
func (rep *RunReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== scenario %q ===\n", rep.Scenario)
	fmt.Fprintf(&sb, "seed %d · %d steps @ %v\n", rep.Seed, rep.Steps, rep.Interval)
	if rep.Err != "" {
		fmt.Fprintf(&sb, "RUN ABORTED: %s\n", rep.Err)
	}
	sb.WriteString("\n--- events ---\n")
	for _, e := range rep.Events {
		status := "  idle "
		if e.Fired {
			status = fmt.Sprintf("step %2d", e.Step)
		}
		fmt.Fprintf(&sb, "%s  %-20s %s", status, e.Event, e.Action)
		if e.Detail != "" {
			fmt.Fprintf(&sb, "  -> %s", e.Detail)
		}
		if e.Err != "" {
			fmt.Fprintf(&sb, "  ERROR: %s", e.Err)
		}
		sb.WriteString("\n")
	}
	if len(rep.Alerts) > 0 {
		sb.WriteString("\n--- IDS alert timeline (distinct) ---\n")
		for _, a := range rep.Alerts {
			mark := " "
			if a.Matched {
				mark = "*"
			}
			fmt.Fprintf(&sb, "%s step %2d  %-24s src=%-18s (%s)\n", mark, a.FirstStep, a.Kind, a.Source, a.Sensor)
		}
	}
	if len(rep.Truth) > 0 {
		sb.WriteString("\n--- ground truth vs detections ---\n")
		for _, tr := range rep.Truth {
			if tr.Detected {
				fmt.Fprintf(&sb, "detected  %-24s (%s, step %d)\n", tr.Expect, tr.Event, tr.DetectedStep)
			} else {
				fmt.Fprintf(&sb, "MISSED    %-24s (%s)\n", tr.Expect, tr.Event)
			}
		}
		fmt.Fprintf(&sb, "precision %.2f · recall %.2f\n", rep.Precision, rep.Recall)
	}
	fmt.Fprintf(&sb, "\n--- grid ---\nconverged=%t islands=%d dead buses=%d",
		rep.Grid.Converged, rep.Grid.Islands, rep.Grid.DeadBuses)
	if len(rep.Grid.OpenBreakers) > 0 {
		fmt.Fprintf(&sb, " open=[%s]", strings.Join(rep.Grid.OpenBreakers, " "))
	}
	d := rep.Diag
	fmt.Fprintf(&sb, "\n\n--- diagnostics (non-deterministic) ---\n")
	fmt.Fprintf(&sb, "power: %d solves, mean %v, cache %d/%d hit/miss, %d failures\n",
		d.PowerSteps, d.MeanSolve, d.SolverCacheHits, d.SolverCacheMisses, d.SolveFailures)
	fmt.Fprintf(&sb, "data plane: %d frames transmitted, %d dropped, pool hit rate %.0f%%\n",
		d.DataPlane.Transmitted, d.DataPlane.Dropped, 100*d.DataPlane.PoolHitRate())
	if d.FramesInspected > 0 || d.AlertsRaised > 0 {
		fmt.Fprintf(&sb, "ids: %d frames inspected, %d alerts raised\n", d.FramesInspected, d.AlertsRaised)
	}
	return sb.String()
}
