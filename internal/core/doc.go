// Package core implements the SG-ML Processor and the runtime it produces:
// the toolchain that parses SG-ML model files and "compiles" them into an
// operational cyber range (Fig 2 / Fig 3 of the paper), plus the engines
// that drive the compiled range — the deterministic step loop, the scenario
// scheduler and the campaign sweep executor.
//
// # Compiler (Fig 3 stages)
//
// Compile runs the stages in Fig 3 order: SSD/SCD merging
// (internal/sclmerge), power-system model generation from the SSD content
// (power.go), cyber network emulation model generation from the SCD
// communication section (network.go), virtual IED building from ICDs + IED
// Config XML, PLC instantiation from PLCopen XML, SCADA configuration from
// the SCADA Config JSON, and final assembly into a runnable CyberRange
// (range.go). Supplementary-XML power steps are validated against the
// generated grid at compile time, so a broken model fails with ErrModel
// before anything runs.
//
// # Step loop
//
// CyberRange.StepAll advances one simulation interval on the calling
// goroutine: pre-hook, power solve, every IED in name order writing straight
// to the kv bus, every due PLC in Shards() order (the per-substation
// partition of shard.go), the HMI's due sources, post-hook. Both orders are
// fixed once when the range is instantiated. A PLC or HMI source is due when
// its configured period has elapsed on the step clock, rounded up to whole
// steps (plcScan in range.go, scada.HMI.PollDue).
//
// Real-time mode (Start with realTime true) is paced StepAll: one driver
// goroutine calls StepAll every Interval() of wall time, with the same clock
// a batch run uses, so an interactive session runs the batch code path and
// ends in the state a batch run of the same length reaches.
// CyberRange.RealTimeStats reports its steps and overruns against the
// Interval() budget.
//
// # Scenario scheduler
//
// Scenario (scenario.go) is the typed event DSL: attacker placements plus
// trigger + action pairs executed by a deterministic scheduler woven into
// the step loop as pre/post hooks (SetStepHooks). RunScenario returns the
// structured RunReport (runreport.go) whose deterministic projection
// (Fingerprint) is identical across data planes and repeated runs for a
// fixed (model, scenario, seed).
//
// # Campaign engine
//
// Campaign (campaign.go) is the population form: a declarative sweep of
// scenario variants × seed lists × repeats, executed by
// RunCampaign on a bounded worker pool with one isolated CyberRange per run
// and the parsed ModelSet shared read-only. The aggregated CampaignReport
// (campaignreport.go) carries per-variant distributions (precision/recall,
// alert latency, solver cache hit rate, data-plane throughput, step-time
// quantiles) and the cross-seed determinism verdict: repeated (variant,
// seed) runs must reproduce identical fingerprints regardless of worker
// count or run ordering.
package core
