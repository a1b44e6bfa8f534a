// Command rangebench is the cyber range's benchmark. It runs one of five
// workloads against the repository's API for a fixed wall-clock budget,
// checks the range's outputs, and prints every metric by name and unit,
// followed by the counts of attempted and failed operations and, as the last
// line, one JSON object with the same result.
//
// A plain run (-trace 0) measures the end-to-end metrics. A traced run
// (-trace 1, or -trace FILE to also write the spans as JSON) drives the same
// model through the individual layer calls that StepAll makes, records a
// span around each, and prints the per-layer metrics instead. The spans are
// recorded only in this command's files; the range itself is not
// instrumented.
//
// Run it from the repository root:
//
//	bash cmd/rangebench/run.sh -workload steady-5x20 -seed 3 -seconds 15 -trace 0
//
// The seed is the only input: it drives the load-profile values, the campaign
// seeds and the replay seed of the searched scenario. README.md describes the
// workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose outputs are pinned in this command: the
// campaign Merkle roots and the search corpus under testdata/corpus.
const defaultSeed = 3

// sizing sets the sample counts and batch sizes of a run; only the
// measurement length comes from -seconds.
type sizing struct {
	compiles    int           // least sgml.Compile samples behind setup_s
	window      time.Duration // least time the setup_s samples span
	probes      int           // per-layer setup and provisioning samples in a traced run
	attackSeeds int           // seeds per attack-campaign batch
	sweepSeeds  int           // seeds per fault-sweep batch
	storeSeeds  int           // seeds in the traced store comparison
	budget      int           // search candidates per search
	cells       int           // traced attack cells
}

var sizes = map[string]sizing{
	"full":  {compiles: 30, window: time.Second, probes: 5, attackSeeds: 24, sweepSeeds: 250, storeSeeds: 200, budget: 16, cells: 4},
	"smoke": {compiles: 3, probes: 2, attackSeeds: 1, sweepSeeds: 10, storeSeeds: 10, budget: 4, cells: 1},
}

// metric is one printed measurement.
type metric struct {
	name, unit string
	value      float64
}

// bench is the state of one workload run: its inputs, the operation and
// check counters, and the metrics it produced.
type bench struct {
	seed    int64
	budget  time.Duration
	size    sizing
	sizeKey string
	workers int

	attempted, failed int
	problems          []string
	metrics           []metric
}

// op counts one attempted operation, failed when err is non-nil.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.problem("%v", err)
	}
}

// check counts one output check, failed when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.problem(format, args...)
	}
}

// problem records a failure description; only the first few are kept so a
// systematic failure does not flood the output.
func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 10 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.metrics = append(b.metrics, metric{name: name, unit: unit, value: v})
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the process exit code. Setup errors
// return 2 (usage) or 1 without printing a result line; a run whose output
// checks fail prints its result and returns 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rangebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "steady-5x20", "workload to run, or all for every workload in order")
	seed := fs.Int64("seed", defaultSeed, "seed of every generated input")
	seconds := fs.Float64("seconds", 15, "measurement length of one run, in seconds")
	traceArg := fs.String("trace", "0", "0: end-to-end metrics; 1: traced run with per-layer metrics; FILE: traced run that also writes its spans to FILE")
	sizeKey := fs.String("size", "full", "batch and sample sizes: full, or smoke for a short check")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	size, ok := sizes[*sizeKey]
	if !ok || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "rangebench: want -size full|smoke, -seconds > 0 and no positional arguments")
		return 2
	}
	traced, spansFile := false, ""
	switch *traceArg {
	case "0", "false":
	case "1", "true":
		traced = true
	default:
		traced, spansFile = true, *traceArg
	}
	var selected []*workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "rangebench: unknown workload %q (want all or one of %s)\n", *name, workloadNames())
		return 2
	}
	if spansFile != "" && len(selected) > 1 {
		fmt.Fprintln(stderr, "rangebench: -trace FILE takes a single workload")
		return 2
	}
	if _, err := os.Stat("testdata/corpus"); err != nil {
		fmt.Fprintln(stderr, "rangebench: run from the repository root:", err)
		return 1
	}

	code := 0
	for _, w := range selected {
		b := &bench{
			seed:    *seed,
			budget:  time.Duration(*seconds * float64(time.Second)),
			size:    size,
			sizeKey: *sizeKey,
			workers: runtime.NumCPU(),
		}
		label, spans, err := runWorkload(b, w, traced)
		if err != nil {
			fmt.Fprintf(stderr, "rangebench: %s: %v\n", w.name, err)
			return 1
		}
		if spansFile != "" {
			if err := writeSpans(spansFile, spans); err != nil {
				fmt.Fprintf(stderr, "rangebench: %v\n", err)
				return 1
			}
		}
		if err := printResult(stdout, b, w, label, traced); err != nil {
			fmt.Fprintf(stderr, "rangebench: %v\n", err)
			return 1
		}
		if b.failed > 0 {
			code = 1
		}
	}
	return code
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printResult writes the human-readable report and the JSON result line.
func printResult(w io.Writer, b *bench, wl *workload, label string, traced bool) error {
	mode := "end-to-end"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "rangebench %s (%s run), seed %d, %s size, %v measured\n", wl.name, mode, b.seed, b.sizeKey, b.budget)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(w, "workload size: %s\n", label)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
	for _, m := range b.metrics {
		fmt.Fprintf(w, "  %-28s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	fmt.Fprintf(w, "operations: attempted=%d failed=%d\n", b.attempted, b.failed)
	for _, p := range b.problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
