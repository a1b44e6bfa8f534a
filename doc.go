// Package sgml is the public API of the SG-ML cyber range framework — a Go
// reproduction of "Towards Automated Generation of Smart Grid Cyber Range
// for Cybersecurity Experiments and Training" (DSN 2023).
//
// The workflow mirrors Fig 2 of the paper:
//
//	model files (SCL + supplementary XML)  --Compile-->  operational CyberRange
//
// A ModelSet holds the parsed SG-ML input (IEC 61850 SCD/ICD/SED documents
// plus the IED/SCADA/Power supplementary configs); Compile runs the SG-ML
// Processor pipeline and returns a CyberRange whose emulated network,
// virtual IEDs, PLCs, SCADA HMI and power-flow simulation are ready to start.
// On top of that sits the scenario layer — the paper's actual point:
// automated generation of experiments (attack drills, IDS evaluation,
// training exercises) as declarative, reproducible Scenario values.
//
// Quick start — declare an experiment and run it:
//
//	ms, _ := sgml.EPICModelSet()           // generate the EPIC demo model
//	sc := &sgml.Scenario{
//	    Name: "drill",
//	    Attackers: []sgml.AttackerSpec{
//	        {Name: "redbox", Switch: "sw-TransLAN", IP: netem.MustIPv4("10.0.1.13")},
//	    },
//	    Events: []sgml.Event{
//	        {Trigger: sgml.At(0), Action: sgml.DeployIDS{
//	            AuthorizedWriters: []string{"SCADA", "CPLC"}, PortScanThreshold: 5}},
//	        {Trigger: sgml.At(2), Action: sgml.PortScan{Attacker: "redbox", Target: "TIED1"}},
//	        {Trigger: sgml.OnAlert(sgml.AlertPortScan).Plus(1), Action: sgml.FalseCommand{
//	            Attacker: "redbox", Target: "TIED1",
//	            Ref: "LD0/XCBR1.Pos.Oper", Value: mms.NewBool(false)}},
//	    },
//	}
//	rep, _ := sgml.Run(ctx, ms, sc, sgml.WithSeed(7))  // compile, execute, tear down
//	fmt.Println(rep)                       // events, IDS scorecard, grid state
//
// The report is structured (RunReport): per-event outcomes, the IDS alert
// timeline matched against the injected ground truth with precision/recall,
// the grid's closing state, and the solver/data-plane counters. For manual
// driving — the pre-scenario workflow — compile and step yourself:
//
//	r, _ := sgml.Compile(ms)              // "compile" it into a cyber range
//	r.Start(ctx, false)                   // bring devices up (step-driven)
//	r.StepAll(time.Now())                 // advance one 100 ms interval
//	fmt.Println(r.HMI.StatusPanel())      // operator view
//	r.Stop()
//
// Start(ctx, true) instead paces StepAll in wall-clock time, one step per
// Interval(), for interactive use; RealTimeStats reports its overruns.
//
// # Scenarios
//
// A Scenario is a list of typed events, each pairing a Trigger with an
// Action. Triggers are a step index (At), a simulated-time offset (After),
// or a condition observed at step boundaries (OnBreakerOpen/OnBreakerClose,
// OnAlert, OnDeadBuses), optionally delayed (Plus). Actions cover the power
// model (OpenBreaker, ScaleLoad, FailLine, ... — the same vocabulary as the
// supplementary XML's <Step> time series, which Compile validates and
// schedules as the compile-time scenario source), network impairments
// (LinkDown/LinkUp/LinkFlap/LinkLoss/LinkLatency), attack steps (PortScan,
// FalseCommand, StartMITM/StopMITM, ModbusTamper — a forged write straight
// to a PLC's southbound Modbus server) and blue-team instrumentation
// (DeployIDS).
//
// The scheduler is deterministic: it is woven into the step loop as pre/post
// step hooks, so events fire at fixed points of the step order, and every
// randomised choice (attacker MAC derivation,
// scan order, the fabric's frame-loss draw sequence) derives from one seed
// (WithSeed). A fixed (model, scenario, seed) triple replays byte-identically
// — RunReport.Fingerprint canonicalises the deterministic projection of the
// report, and the determinism tests pin it across repeated runs and both
// data planes. (The one caveat is LinkLoss: the draw sequence is seeded, but which
// concurrent frame consumes which draw is scheduling-dependent, so keep
// asserted outcomes off lossy links — see LinkLoss.) Scenarios also have a declarative XML form (ParseScenario,
// LoadScenarioFile; schema in internal/sgmlconf) consumed by
// "rangectl scenario run".
//
// Red/blue tooling is public: repro/attack (FCI, MITM, scans), repro/ids
// (the passive sensor), repro/netem (fabric addressing and link knobs) and
// repro/mms (client + values) — examples never import repro/internal.
//
// # Campaigns
//
// A Campaign is the population form of a scenario experiment: a declarative
// sweep of scenario variants × seed lists × repeats, executed by
// RunCampaign on a bounded worker pool (WithWorkers) with one
// isolated CyberRange per run. Each distinct model is compiled once and every
// run forks the compiled root (see Forking below), so every run owns its
// range and worker count and run ordering never change any run's
// fingerprint. The aggregated CampaignReport carries per-variant distributions
// (precision/recall, alert latency, solver cache hit rate, data-plane
// throughput, step-time quantiles) and a cross-seed determinism verdict:
// repeated (variant, seed) runs must reproduce identical fingerprints.
// Campaigns also have a declarative XML form (ParseCampaign, LoadCampaignFile;
// the fifth supplementary schema in internal/sgmlconf) consumed by
// "rangectl campaign run":
//
//	rangectl campaign run models/epic sweep.campaign.xml -workers 4 -json out.json
//
// # Result store
//
// Campaign results stream: RunCampaign delivers each completed run to its
// sinks (WithRunSink) the moment it finishes, and the aggregated
// CampaignReport is itself built by the default in-memory sink. WithStore
// attaches a durable sink — an append-only, fsync-per-record JSONL store
// keyed by campaign name plus a content hash of the campaign spec, so
// distinct sweeps (or edited specs) never collide in one directory. Each
// record is length- and CRC-framed; a sweep killed mid-write loses at most
// the torn tail, never a completed run. WithResume restores every persisted
// cell from the store (marked CampaignRun.Resumed, counted in
// CampaignReport.Resumed) and executes only the missing ones; an
// interrupted-then-resumed sweep yields run fingerprints byte-identical to
// the same sweep run uninterrupted, across both provisioning paths.
//
// When a sweep completes cleanly, the store seals it: a Merkle root over the
// run fingerprints, sorted by (variant, seed, attempt), is written alongside
// the records and stamped into CampaignReport.MerkleRoot. VerifyStore
// re-derives the root from the raw bytes on disk and VerifyStoreRun checks a
// single cell's inclusion proof, so any flipped byte, dropped record or
// forged report is detected after the fact:
//
//	rangectl campaign run models/epic sweep.campaign.xml -store results/
//	rangectl campaign run models/epic sweep.campaign.xml -store results/ -resume
//	rangectl campaign verify results/                    # whole-store audit
//	rangectl campaign verify results/ -run sweep:1:1     # one inclusion proof
//
// Migration note: CampaignReport.Runs keeps its spec-expansion order —
// completion order, worker count and resume never reorder it.
//
// # Fault tolerance
//
// Campaign execution is hardened against the run that misbehaves, not just
// the run that fails politely. A panic anywhere in a run's compile, fork or
// step path is recovered at the worker boundary and converted into a failed
// CampaignRun carrying the panic value and stack (CampaignRun.PanicStack) —
// one broken device model can never crash the sweep or the process.
// WithRunTimeout puts a wall-clock deadline on every individual run: a
// wedged run is cancelled through its own derived context and recorded as a
// timeout, leaving its worker free. A per-variant step budget (maxSteps in
// the XML form, CampaignVariant.MaxSteps) bounds runaway variants
// deterministically.
//
// Every failed run is classified (CampaignRun.Failure): FailPanic,
// FailTimeout and FailStore are infrastructure-shaped — the kind of failure
// a retry can plausibly cure — while FailCompile, FailScenario and
// FailCancelled are deterministic facts about the cell or the sweep.
// WithRetries(n) re-executes only the former, on a fresh fork with capped
// exponential backoff, and keeps the abandoned attempts on the final run
// (CampaignRun.Retries; retry history never contributes to fingerprints or
// the Merkle root). The guarantee is differential: a sweep executed under an
// aggressive fault plan — injected panics, wedged runs, failing store
// appends — with retries enabled yields a fingerprint map and Merkle root
// byte-identical to the same sweep run with no faults at all.
//
// The result store degrades rather than contaminates: if a store append
// keeps failing after retries, no run is failed on its account — the sweep
// completes, CampaignReport.StoreDegraded flags the loss (StoreErr carries
// the cause), and the store is left unsealed so WithResume can re-execute
// the unpersisted cells once the store is healthy. Fault plans themselves
// live in internal/faultinject: seeded, deterministic schedules (panic in
// run X's step M, delay run J past its deadline, fail the Nth append)
// threaded through test-only hooks in the engine and the store.
//
// # Scenario search
//
// Search turns the replay contract into an offensive tool: a seeded,
// deterministic mutation engine hunts the scenario space around a seed
// scenario for interesting outcomes. Candidates are derived in the
// declarative XML form — event insertion and deletion, trigger jitter,
// target permutation drawn from the compiled model's inventory (breakers,
// loads, generators, lines, IEDs, PLC register tables) — executed on forks
// of one compiled root, and scored by pluggable interestingness Oracles:
// missed detection (ground truth injected but never alerted — the IDS
// blind-spot finder), dead-bus cascades past a threshold, solver divergence,
// and step-budget blowups. Novel behaviour signatures (a projection of the
// fingerprint) join the mutation pool, the scenario-space analogue of a
// fuzzer's edge map.
//
// Each first find per oracle is delta-debugged to a minimal reproducing
// scenario, serialized with MarshalScenario, and pinned: the find's XML
// re-parses and replays to its recorded Fingerprint under the recorded
// WithMaxSteps cap. A fixed (model, seed scenario, search seed, budget)
// reproduces the same finds, minimized repros and fingerprints across both
// provisioning paths and any worker count:
//
//	res, _ := sgml.Search(ctx, ms, seed, sgml.SearchOptions{SearchSeed: 3, Budget: 16})
//	for _, f := range res.Finds {
//	    fmt.Printf("%s: %s\n%s", f.Oracle, f.Detail, f.XML)
//	}
//
// Finds persist as a regression corpus (WriteSearchCorpus/ReadSearchCorpus;
// testdata/corpus is the checked-in one, replayed by CI),
// and the whole loop runs from the command line:
//
//	rangectl search models/epic seed.scenario.xml -search-seed 3 -budget 16 -out corpus/
//
// The canonical find on the EPIC model is the sensor's Modbus blind spot:
// the IDS inspects MMS control writes, ARP, GOOSE and port scans, but a
// ModbusTamper (TamperCoil/TamperRegister) reaches a PLC over port 502
// unseen — forcing the coil bound to the PLC's manualTrip variable makes the
// PLC's own authorized MMS write open the tie breaker, and the injected
// ground truth stays undetected forever. The searcher discovers that from a
// benign seed scenario and minimizes it to two events.
//
// # Forking
//
// Compile separates the expensive, immutable half of range construction —
// SCL merge, power-model generation, scenario-event validation, per-device
// config precomputation, solver symbolic prewarm — from the cheap mutable
// half: the network fabric, kv bus, device instances and per-topology solver
// cache. CyberRange.Fork clones a compiled, unstarted range into a fully
// isolated sibling in about a millisecond: forks share only read-only
// artifacts, and a forked range is indistinguishable from a freshly compiled
// one — identical run fingerprints under both data planes, pinned by
// TestForkDeterminism. RunCompiled is the one-shot form:
//
//	cr, _ := sgml.Compile(ms)
//	defer cr.Stop()
//	rep, _ := sgml.RunCompiled(ctx, cr, sc, sgml.WithSeed(7))   // runs on a private fork
//
// WithWorkers is a sgml.Option: RunCampaign reads it as its pool size, and
// Compile and Run/RunCompiled accept and ignore it.
//
// # Step order
//
// StepAll advances the whole range one interval on the calling goroutine, in
// a fixed order: the scenario pre-hook, the power solve, every IED in name
// order (trip commands written straight to the kv bus), every PLC scan in
// CyberRange.Shards order (per substation, then by name; all are scanned
// before the first error is returned), one HMI poll, the post-hook. Campaigns
// and searches get their parallelism from running whole runs concurrently.
// GOOSE/R-SV arrival timing is asynchronous and not part of the replay
// contract.
//
// # Sparse warm-path power flow
//
// The coupled physical simulation (internal/powersim driving
// internal/powerflow every interval) runs on a sparse Newton-Raphson engine,
// on every model size, with a per-topology cache: as long as no breaker, switch or in-service
// state changed since the previous step, the solver reuses the island
// assignment, CSR Ybus and the symbolic LU factorization and only refreshes
// injections and numeric values. Topology changes (trips, outages, tap
// moves) invalidate the cache for exactly one rebuild step.
// CyberRange.PowerSolverStats reports the cache hit/miss counts and solve
// failures; see the internal/powerflow package doc for the engine details.
//
// # Zero-allocation data plane
//
// The packet plane — every GOOSE/R-SV/MMS message marshalled, carried
// across the emulated fabric and decoded again — runs (near-)allocation-free
// on its warm path. The BER codec encodes in place with back-patched lengths
// (ber.Encoder) and decodes into a reusable TLV arena (ber.Decoder); the
// L2 GOOSE publisher marshals into fabric-pooled payload buffers, the R-SV
// publisher into a reused scratch buffer that the UDP stack copies, and the
// subscribers decode with per-subscriber arenas; netem recycles frame
// payloads through a sync.Pool.
//
// The buffer-ownership rules (see netem.PayloadBuf):
//
//   - A publisher obtains a buffer with Host.AllocPayload, marshals into it
//     and transfers ownership to the fabric with Host.SendPooled; it must
//     not touch the buffer afterwards.
//   - The fabric borrows the payload per hop: switches forward unicast
//     frames without copying and clone once per extra egress port when
//     flooding; the terminal deliverer (the consuming host, or any drop
//     point) releases the buffer back to the pool.
//   - Anything observing a frame in flight — taps, the promiscuous sniffer,
//     EtherType hooks — borrows it only for the duration of the call and
//     must Clone (or copy out) whatever it retains. Tamper hooks always
//     receive a detached Clone. Decoded goose.Message / sv.Sample values own
//     all their data, so protocol consumers are retention-safe by default.
//
// The legacy copy-per-publish semantics remain selectable as the reference
// path via netem's Network.SetFramePooling(false), a test oracle like the
// dense solver, and differential tests pin
// delivered payloads, capture output and IDS verdicts byte-identical across
// the two paths. CyberRange.DataPlaneStats (and the HMI status panel's
// diagnostics footer) reports frames transmitted/dropped and the payload
// pool hit rate; BenchmarkAblation_ZeroAllocDataPlane measures the old path
// against the new one.
package sgml
