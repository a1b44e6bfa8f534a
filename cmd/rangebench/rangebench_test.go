package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain moves to the repository root, where the benchmark reads its
// inputs (examples/search, testdata/corpus) and BENCHMARK.json lives.
func TestMain(m *testing.M) {
	if err := os.Chdir("../.."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

// TestSmoke runs every workload of the command at the smoke size and the
// default seed, whose smoke-size campaign Merkle roots are pinned, plain and
// traced. Each run must pass its output checks and print
// every metric BENCHMARK.json declares with its unit, in the text report and
// in the JSON result line. Every workload BENCHMARK.json names must exist.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.ContainsFunc(workloads, func(x *workload) bool { return x.name == w.Name }) {
			t.Errorf("BENCHMARK.json names workload %q, which the command lacks", w.Name)
		}
	}
	for _, w := range workloads {
		for trace, metrics := range map[string][]specMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"-workload", w.name, "-size", "smoke", "-seconds", "0.3", "-trace", trace}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				checkOutput(t, out.String(), metrics)
			})
		}
	}
}

func checkOutput(t *testing.T, out string, metrics []specMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
	}
	if len(res.Metrics) != len(metrics) {
		t.Errorf("JSON result has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(metrics))
	}
	for _, m := range metrics {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("JSON result lacks %s in %s (got %+v)", m.Name, m.Unit, got)
		}
		line := regexp.MustCompile(`(?m)^ +` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
		if !line.MatchString(out) {
			t.Errorf("report does not print %s with unit %s", m.Name, m.Unit)
		}
	}
}
