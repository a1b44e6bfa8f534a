// Command rangectl operates cyber ranges from SG-ML model directories — the
// operational half of the paper's workflow (Fig 2 right), built entirely on
// the public API.
//
// Run a range in real time, printing the SCADA status panel:
//
//	rangectl run -model models/epic -duration 3s [-panel 1s]
//
// Execute a declarative scenario headlessly and print the structured report:
//
//	rangectl scenario run <model-dir> <scenario-file> [-seed N]
//
// Execute a campaign — a concurrent sweep of scenario runs — and print the
// aggregated report (optionally also as JSON):
//
//	rangectl campaign run <model-dir> <campaign-file> [-workers N] [-json out.json]
//	                      [-store DIR] [-resume] [-run-timeout D] [-retries N]
//
// Campaigns fork a compile-once root range per run; -per-run-compile restores
// the reference behaviour of compiling a fresh range for every run. With
// -store every completed run is checkpointed into the durable result store
// under DIR as it finishes, and a fully-clean sweep is sealed under a Merkle
// root; -resume restores the store's records and executes only the missing
// cells, so an interrupted sweep pays only for what it never finished.
//
// Campaign execution is fault tolerant: a run that panics or exceeds
// -run-timeout fails alone (classified, with its panic stack on the record)
// instead of taking the sweep down, and -retries re-executes runs with
// infrastructure-shaped failures on a fresh fork. A failing store demotes the
// sweep to a degraded report (warning on stderr, store unsealed) rather than
// failing runs; finish it later with -resume.
//
// Audit a result store — recompute the Merkle root from the records and
// check it against the seal (or check one run's inclusion proof):
//
//	rangectl campaign verify DIR [-run variant:seed:attempt]
//
// Any damaged frame, missing record or root mismatch exits non-zero.
//
// Hunt the scenario space for interesting outcomes — IDS blind spots,
// dead-bus cascades, solver divergence, step-budget blowups — by seeded
// mutation from a seed scenario, minimizing each find to a minimal
// reproducing <Scenario> document (optionally pinned into a regression
// corpus directory):
//
//	rangectl search <model-dir> <seed-scenario> [-search-seed N] [-budget R] [-out corpus/]
//
// Both scenario and campaign runs exit non-zero when any scenario event fails
// validation or execution, with the per-event outcome table on stdout.
//
// The legacy flag form (rangectl -model ... -duration ...) is kept as an
// alias of "run".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	sgml "repro"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "scenario":
		err = scenarioMain(args[1:])
	case len(args) > 0 && args[0] == "campaign":
		err = campaignMain(args[1:])
	case len(args) > 0 && args[0] == "search":
		err = searchMain(args[1:])
	case len(args) > 0 && args[0] == "run":
		err = runMain(args[1:])
	default:
		err = runMain(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rangectl:", err)
		os.Exit(1)
	}
}

// parsePositionals interleaves flag parsing with positional extraction so
// flags work before, between or after the positional arguments (flag.Parse
// stops at the first non-flag token).
func parsePositionals(fs *flag.FlagSet, args []string, want int) ([]string, error) {
	var positionals []string
	rest := args
	for {
		if err := fs.Parse(rest); err != nil {
			return nil, err
		}
		rest = fs.Args()
		if len(rest) == 0 {
			break
		}
		positionals = append(positionals, rest[0])
		rest = rest[1:]
	}
	if len(positionals) != want {
		if len(positionals) > want {
			fmt.Fprintf(os.Stderr, "rangectl: unexpected argument %q\n", positionals[want])
		}
		fs.Usage()
		os.Exit(2)
	}
	return positionals, nil
}

// scenarioMain implements "rangectl scenario run <model-dir> <scenario-file>".
func scenarioMain(args []string) error {
	if len(args) < 1 || args[0] != "run" {
		return fmt.Errorf("usage: rangectl scenario run <model-dir> <scenario-file> [-seed N]")
	}
	fs := flag.NewFlagSet("scenario run", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "replay seed (0 uses the scenario file's seed)")
	name := fs.String("name", "range", "range name")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rangectl scenario run <model-dir> <scenario-file> [flags]")
		fs.PrintDefaults()
	}
	positionals, err := parsePositionals(fs, args[1:], 2)
	if err != nil {
		return err
	}
	modelDir, scenarioFile := positionals[0], positionals[1]
	ms, err := sgml.LoadModelDir(*name, modelDir)
	if err != nil {
		return err
	}
	sc, err := sgml.LoadScenarioFile(scenarioFile)
	if err != nil {
		return err
	}
	var opts []sgml.RunOption
	if *seed != 0 {
		opts = append(opts, sgml.WithSeed(*seed))
	}
	cr, err := sgml.Compile(ms)
	if err != nil {
		return err
	}
	defer cr.Stop()
	rep, err := sgml.RunCompiled(context.Background(), cr, sc, opts...)
	if err != nil {
		return err
	}
	// The per-event outcome table always prints, so an event failure is
	// visible in context rather than buried — and then fails the command.
	fmt.Println(rep)
	if rep.Err != "" {
		return fmt.Errorf("scenario aborted: %s", rep.Err)
	}
	if failed := rep.FailedEvents(); len(failed) > 0 {
		return fmt.Errorf("%d scenario event(s) failed: %s", len(failed), strings.Join(failed, "; "))
	}
	return nil
}

// searchMain implements "rangectl search <model-dir> <seed-scenario>".
func searchMain(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	searchSeed := fs.Int64("search-seed", 1, "mutation engine seed; fixed (model, seed scenario, search seed, budget) reproduces the same finds")
	budget := fs.Int("budget", 0, "candidate evaluations (0 uses the library default)")
	workers := fs.Int("workers", 0, "concurrent candidate evaluations (never changes the finds)")
	maxSteps := fs.Int("max-steps", 0, "per-candidate step cap (0 uses the library default)")
	out := fs.String("out", "", "write each find's minimized repro into this corpus directory")
	name := fs.String("name", "range", "range name")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rangectl search <model-dir> <seed-scenario> [flags]")
		fs.PrintDefaults()
	}
	positionals, err := parsePositionals(fs, args, 2)
	if err != nil {
		return err
	}
	modelDir, scenarioFile := positionals[0], positionals[1]
	ms, err := sgml.LoadModelDir(*name, modelDir)
	if err != nil {
		return err
	}
	sc, err := sgml.LoadScenarioFile(scenarioFile)
	if err != nil {
		return err
	}
	res, err := sgml.Search(context.Background(), ms, sc, sgml.SearchOptions{
		SearchSeed: *searchSeed,
		Budget:     *budget,
		Workers:    *workers,
		MaxSteps:   *maxSteps,
	})
	if err != nil {
		return err
	}
	fmt.Printf("search: %d candidates (%d invalid), %d novel behaviours, %d runs, %d find(s)\n",
		res.Candidates, res.Invalid, res.Novel, res.Runs, len(res.Finds))
	for _, f := range res.Finds {
		fmt.Printf("\nfind %s (candidate %d, minimized to %d event(s) in %d runs, step cap %d)\n  %s\n%s",
			f.Oracle, f.FoundAt, f.Events, f.MinimizeRuns, f.MaxSteps, f.Detail, f.XML)
	}
	if *out != "" {
		if err := sgml.WriteSearchCorpus(*out, res.Finds); err != nil {
			return err
		}
		fmt.Printf("\ncorpus: %d entr%s written to %s\n",
			len(res.Finds), map[bool]string{true: "y", false: "ies"}[len(res.Finds) == 1], *out)
	}
	return nil
}

// campaignMain dispatches "rangectl campaign run|verify".
func campaignMain(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: rangectl campaign run|verify ...")
	}
	switch args[0] {
	case "run":
		return campaignRunMain(args[1:])
	case "verify":
		return campaignVerifyMain(args[1:])
	default:
		return fmt.Errorf("usage: rangectl campaign run|verify ... (unknown subcommand %q)", args[0])
	}
}

// campaignRunMain implements "rangectl campaign run <model-dir> <campaign-file>".
func campaignRunMain(args []string) error {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	workers := fs.Int("workers", 0, "concurrent runs (0 uses the campaign file's value, then GOMAXPROCS)")
	perRunCompile := fs.Bool("per-run-compile", false, "compile a fresh range per run instead of forking a compile-once root")
	jsonOut := fs.String("json", "", "also write the machine-readable report to this file")
	storeDir := fs.String("store", "", "checkpoint every completed run into the durable result store under this directory")
	resume := fs.Bool("resume", false, "restore the store's records and execute only the missing cells (requires -store)")
	runTimeout := fs.Duration("run-timeout", 0, "wall-clock deadline per individual run (0 = none); a run over budget fails as a timeout")
	retries := fs.Int("retries", 0, "re-execute runs with infrastructure-shaped failures (panic, timeout, store) up to N extra attempts")
	name := fs.String("name", "range", "default model name")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rangectl campaign run <model-dir> <campaign-file> [flags]")
		fs.PrintDefaults()
	}
	positionals, err := parsePositionals(fs, args, 2)
	if err != nil {
		return err
	}
	modelDir, campaignFile := positionals[0], positionals[1]
	if *resume && *storeDir == "" {
		return fmt.Errorf("-resume requires -store")
	}
	if *runTimeout < 0 {
		return fmt.Errorf("-run-timeout must be non-negative, got %v", *runTimeout)
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must be non-negative, got %d", *retries)
	}
	ms, err := sgml.LoadModelDir(*name, modelDir)
	if err != nil {
		return err
	}
	c, err := sgml.LoadCampaignFile(campaignFile, ms)
	if err != nil {
		return err
	}
	var opts []sgml.CampaignOption
	if *workers > 0 {
		opts = append(opts, sgml.WithWorkers(*workers))
	}
	if *perRunCompile {
		opts = append(opts, sgml.WithPerRunCompile())
	}
	if *storeDir != "" {
		opts = append(opts, sgml.WithStore(*storeDir))
	}
	if *resume {
		opts = append(opts, sgml.WithResume())
	}
	if *runTimeout > 0 {
		opts = append(opts, sgml.WithRunTimeout(*runTimeout))
	}
	if *retries > 0 {
		opts = append(opts, sgml.WithRetries(*retries))
	}
	rep, err := sgml.RunCampaign(context.Background(), c, opts...)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if rep.StoreDegraded {
		fmt.Fprintf(os.Stderr, "rangectl: warning: result store degraded (%s); store left unsealed — re-run with -store %s -resume once the store is healthy\n",
			rep.StoreErr, *storeDir)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("JSON report written to %s\n", *jsonOut)
	}
	// Propagate failures the same way scenario runs do: a failed run, a
	// failed event or a determinism mismatch fails the campaign.
	if failed := rep.EventFailures(); len(failed) > 0 {
		return fmt.Errorf("%d scenario event(s) failed across the sweep: %s",
			len(failed), strings.Join(failed, "; "))
	}
	if rep.Failures > 0 {
		return fmt.Errorf("%d of %d runs failed", rep.Failures, rep.TotalRuns)
	}
	if len(rep.Determinism) > 0 {
		return fmt.Errorf("%d determinism mismatch(es)", len(rep.Determinism))
	}
	return nil
}

// campaignVerifyMain implements "rangectl campaign verify DIR [-run v:s:a]".
func campaignVerifyMain(args []string) error {
	fs := flag.NewFlagSet("campaign verify", flag.ExitOnError)
	runCell := fs.String("run", "", "verify one run's Merkle inclusion proof (variant:seed:attempt)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rangectl campaign verify <store-dir> [-run variant:seed:attempt]")
		fs.PrintDefaults()
	}
	positionals, err := parsePositionals(fs, args, 1)
	if err != nil {
		return err
	}
	dir := positionals[0]
	if *runCell != "" {
		variant, seed, attempt, err := parseRunCell(*runCell)
		if err != nil {
			return err
		}
		v, err := sgml.VerifyStoreRun(dir, variant, seed, attempt)
		if err != nil {
			return err
		}
		fmt.Printf("run %s verified: campaign %q (%d runs) root %s\n", *runCell, v.Campaign, v.Runs, v.Root)
		return nil
	}
	vs, err := sgml.VerifyStore(dir)
	if err != nil {
		return err
	}
	for _, v := range vs {
		fmt.Printf("campaign %q verified: %d runs, root %s\n", v.Campaign, v.Runs, v.Root)
	}
	return nil
}

// parseRunCell splits "variant:seed:attempt", tolerating colons inside the
// variant name by taking the two numeric fields from the right.
func parseRunCell(s string) (variant string, seed int64, attempt int, err error) {
	bad := func() (string, int64, int, error) {
		return "", 0, 0, fmt.Errorf("-run wants variant:seed:attempt, got %q", s)
	}
	i := strings.LastIndex(s, ":")
	if i < 0 {
		return bad()
	}
	attempt64, aerr := strconv.ParseInt(s[i+1:], 10, 32)
	rest := s[:i]
	j := strings.LastIndex(rest, ":")
	if aerr != nil || j < 0 {
		return bad()
	}
	seed, serr := strconv.ParseInt(rest[j+1:], 10, 64)
	if serr != nil || rest[:j] == "" {
		return bad()
	}
	return rest[:j], seed, int(attempt64), nil
}

// runMain implements the real-time mode (and the legacy flag form).
func runMain(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	model := fs.String("model", "", "SG-ML model directory (required)")
	name := fs.String("name", "range", "range name")
	duration := fs.Duration("duration", 3*time.Second, "how long to run")
	panel := fs.Duration("panel", time.Second, "status panel print interval (0 = only final)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model == "" {
		fs.Usage()
		os.Exit(2)
	}
	return run(*model, *name, *duration, *panel)
}

func run(dir, name string, duration, panel time.Duration) error {
	ms, err := sgml.LoadModelDir(name, dir)
	if err != nil {
		return err
	}
	r, err := sgml.Compile(ms)
	if err != nil {
		return err
	}
	defer r.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	if err := r.Start(ctx, true); err != nil {
		return err
	}
	fmt.Printf("range %q running: %d IEDs, %d PLCs, interval %v\n",
		name, len(r.IEDs), len(r.PLCs), r.Interval())

	if panel > 0 && r.HMI != nil {
		ticker := time.NewTicker(panel)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				goto done
			case <-ticker.C:
				fmt.Println(r.HMI.StatusPanel())
			}
		}
	}
	<-ctx.Done()
done:
	r.Stop() // no step in flight while the report reads device state
	st := r.RealTimeStats()
	fmt.Printf("\nreal time: %d steps, %d overruns, %d failed, max step %v (budget %v)\n",
		st.Steps, st.Overruns, st.Failures, st.MaxStep, r.Interval())
	if r.HMI != nil {
		fmt.Println(r.HMI.StatusPanel())
		for _, e := range r.HMI.Events() {
			fmt.Printf("event %-16s %-20s %s\n", e.Kind, e.Point, e.Detail)
		}
	}
	for iedName, dev := range r.IEDs {
		for _, e := range dev.Events() {
			fmt.Printf("ied %-8s %-14s %-6s %s\n", iedName, e.Kind, e.Func, e.Detail)
		}
	}
	return nil
}
