package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sgml "repro"
)

// writeEPICModelDir materialises the EPIC SG-ML file set into a temp model
// directory, as sclgen would.
func writeEPICModelDir(t *testing.T) string {
	t.Helper()
	files, err := sgml.EPICFiles()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScenarioRunFailedEventExitsNonZero pins the bugfix: a scenario event
// that fails at execution (here a stopMitm with nothing mounted — valid
// structurally, fails at runtime) must fail the command instead of being
// buried in the printed report.
func TestScenarioRunFailedEventExitsNonZero(t *testing.T) {
	model := writeEPICModelDir(t)
	scenario := writeFile(t, t.TempDir(), "broken.scenario.xml",
		`<Scenario name="broken" steps="3" seed="1">
  <Attacker name="red" switch="sw-TransLAN" ip="10.0.1.77"/>
  <Event name="orphan-stop" atStep="1" kind="stopMitm" attacker="red"/>
</Scenario>`)
	err := scenarioMain([]string{"run", model, scenario})
	if err == nil {
		t.Fatal("scenario with failing event reported success")
	}
	if !strings.Contains(err.Error(), "orphan-stop") {
		t.Errorf("error %q does not name the failed event", err)
	}
}

func TestScenarioRunHappyPath(t *testing.T) {
	model := writeEPICModelDir(t)
	scenario := writeFile(t, t.TempDir(), "ok.scenario.xml",
		`<Scenario name="ok" steps="4" seed="1">
  <Event name="trip" atStep="1" kind="openBreaker" element="CBMicro"/>
</Scenario>`)
	if err := scenarioMain([]string{"run", model, scenario, "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignRunSmoke drives "rangectl campaign run" end to end on a small
// sweep: human summary, JSON artifact, zero exit. Variant b carries the
// retired sequential attribute, which still loads and is ignored.
func TestCampaignRunSmoke(t *testing.T) {
	model := writeEPICModelDir(t)
	dir := t.TempDir()
	writeFile(t, dir, "mini.scenario.xml",
		`<Scenario name="mini" steps="4" seed="1">
  <Event name="trip" atStep="1" kind="openBreaker" element="CBMicro"/>
</Scenario>`)
	campaign := writeFile(t, dir, "mini.campaign.xml",
		`<Campaign name="mini-sweep" workers="2">
  <Variant name="a" scenario="mini.scenario.xml" seeds="1-2"/>
  <Variant name="b" scenario="mini.scenario.xml" seeds="1" repeat="2" sequential="true"/>
</Campaign>`)
	jsonOut := filepath.Join(dir, "report.json")
	if err := campaignMain([]string{"run", model, campaign, "-json", jsonOut}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Campaign  string `json:"campaign"`
		TotalRuns int    `json:"totalRuns"`
		Failures  int    `json:"failures"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Campaign != "mini-sweep" || rep.TotalRuns != 4 || rep.Failures != 0 {
		t.Errorf("JSON report = %+v", rep)
	}
}

// writeMiniCampaign lays down the small sweep used by the store tests: two
// variants, four runs total.
func writeMiniCampaign(t *testing.T, dir string) string {
	t.Helper()
	writeFile(t, dir, "mini.scenario.xml",
		`<Scenario name="mini" steps="4" seed="1">
  <Event name="trip" atStep="1" kind="openBreaker" element="CBMicro"/>
</Scenario>`)
	return writeFile(t, dir, "mini.campaign.xml",
		`<Campaign name="mini-sweep" workers="2">
  <Variant name="a" scenario="mini.scenario.xml" seeds="1-2"/>
  <Variant name="b" scenario="mini.scenario.xml" seeds="1" repeat="2"/>
</Campaign>`)
}

// findStoreRecords locates the runs.jsonl of the single campaign inside a
// store directory.
func findStoreRecords(t *testing.T, storeDir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(storeDir, "*", "runs.jsonl"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("store layout: matches=%v err=%v", matches, err)
	}
	return matches[0]
}

// TestCampaignStoreResumeVerifyCLI drives the full durable pipeline through
// the CLI: run with -store, re-run with -resume (trivially restoring every
// cell and resealing the same root), then "campaign verify" for the whole
// store and for single-run inclusion proofs. The sweep provisions every run
// by forking one compiled range, hence the subtest name.
func TestCampaignStoreResumeVerifyCLI(t *testing.T) {
	model := writeEPICModelDir(t)
	t.Run("forked", func(t *testing.T) {
		dir := t.TempDir()
		campaign := writeMiniCampaign(t, dir)
		storeDir := filepath.Join(dir, "results")
		if err := campaignMain([]string{"run", model, campaign, "-store", storeDir}); err != nil {
			t.Fatalf("campaign run -store: %v", err)
		}
		sealed, err := sgml.VerifyStore(storeDir)
		if err != nil || len(sealed) != 1 {
			t.Fatalf("store not sealed after clean sweep: %v", err)
		}
		// Resume over a complete store re-executes nothing and reseals the
		// identical root.
		if err := campaignMain([]string{"run", model, campaign, "-store", storeDir, "-resume"}); err != nil {
			t.Fatalf("campaign run -resume: %v", err)
		}
		resealed, err := sgml.VerifyStore(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		if resealed[0].Root != sealed[0].Root {
			t.Fatalf("resume changed the sealed root: %s -> %s", sealed[0].Root, resealed[0].Root)
		}
		// Whole-store audit and per-run inclusion proofs via the CLI.
		if err := campaignMain([]string{"verify", storeDir}); err != nil {
			t.Fatalf("campaign verify: %v", err)
		}
		for _, cell := range []string{"a:1:1", "a:2:1", "b:1:1", "b:1:2"} {
			if err := campaignMain([]string{"verify", storeDir, "-run", cell}); err != nil {
				t.Fatalf("campaign verify -run %s: %v", cell, err)
			}
		}
		if err := campaignMain([]string{"verify", storeDir, "-run", "a:9:1"}); err == nil {
			t.Fatal("verify accepted a cell the store never held")
		}
	})
}

// TestCampaignStoreTamperCLI pins the acceptance contract: one
// flipped byte in the store makes "campaign verify" exit non-zero.
func TestCampaignStoreTamperCLI(t *testing.T) {
	model := writeEPICModelDir(t)
	dir := t.TempDir()
	campaign := writeMiniCampaign(t, dir)
	storeDir := filepath.Join(dir, "results")
	if err := campaignMain([]string{"run", model, campaign, "-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	if err := campaignMain([]string{"verify", storeDir}); err != nil {
		t.Fatalf("pristine store failed verification: %v", err)
	}
	records := findStoreRecords(t, storeDir)
	buf, err := os.ReadFile(records)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x01
	if err := os.WriteFile(records, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := campaignMain([]string{"verify", storeDir}); err == nil {
		t.Fatal("campaign verify accepted a store with a flipped byte")
	}
	if err := campaignMain([]string{"verify", storeDir, "-run", "a:1:1"}); err == nil {
		t.Fatal("campaign verify -run accepted a store with a flipped byte")
	}
}

// TestCampaignCLIFlagValidation covers the flag plumbing edges: -resume
// without -store, negative fault-tolerance knobs, and unknown campaign
// subcommands.
func TestCampaignCLIFlagValidation(t *testing.T) {
	model := writeEPICModelDir(t)
	dir := t.TempDir()
	campaign := writeMiniCampaign(t, dir)
	err := campaignMain([]string{"run", model, campaign, "-resume"})
	if err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("-resume without -store: err = %v, want a -store complaint", err)
	}
	err = campaignMain([]string{"run", model, campaign, "-run-timeout", "-1s"})
	if err == nil || !strings.Contains(err.Error(), "-run-timeout") {
		t.Fatalf("negative -run-timeout: err = %v, want rejection", err)
	}
	err = campaignMain([]string{"run", model, campaign, "-retries", "-2"})
	if err == nil || !strings.Contains(err.Error(), "-retries") {
		t.Fatalf("negative -retries: err = %v, want rejection", err)
	}
	if err := campaignMain([]string{"audit", dir}); err == nil {
		t.Fatal("unknown campaign subcommand accepted")
	}
	if err := campaignMain(nil); err == nil {
		t.Fatal("campaign with no subcommand accepted")
	}
}

// TestCampaignParseErrorsCLI: malformed campaign files fail the command
// before anything compiles or runs, naming the defect.
func TestCampaignParseErrorsCLI(t *testing.T) {
	model := writeEPICModelDir(t)
	dir := t.TempDir()
	writeFile(t, dir, "mini.scenario.xml",
		`<Scenario name="mini" steps="2" seed="1"/>`)
	cases := []struct {
		name, xml, want string
	}{
		{"inverted seed range",
			`<Campaign name="x"><Variant name="v" scenario="mini.scenario.xml" seeds="5-1"/></Campaign>`,
			"seed"},
		{"malformed seeds",
			`<Campaign name="x"><Variant name="v" scenario="mini.scenario.xml" seeds="1,two"/></Campaign>`,
			"seed"},
		{"duplicate variant names",
			`<Campaign name="x"><Variant name="v" scenario="mini.scenario.xml" seeds="1"/>` +
				`<Variant name="v" scenario="mini.scenario.xml" seeds="2"/></Campaign>`,
			"duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			campaign := writeFile(t, dir, "bad.campaign.xml", tc.xml)
			err := campaignMain([]string{"run", model, campaign})
			if err == nil {
				t.Fatal("malformed campaign accepted")
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCampaignRunPropagatesEventFailures: the campaign form of the exit-code
// bugfix — one failing event in one run fails the whole command.
func TestCampaignRunPropagatesEventFailures(t *testing.T) {
	model := writeEPICModelDir(t)
	dir := t.TempDir()
	writeFile(t, dir, "broken.scenario.xml",
		`<Scenario name="broken" steps="3" seed="1">
  <Attacker name="red" switch="sw-TransLAN" ip="10.0.1.77"/>
  <Event name="orphan-stop" atStep="1" kind="stopMitm" attacker="red"/>
</Scenario>`)
	campaign := writeFile(t, dir, "broken.campaign.xml",
		`<Campaign name="broken-sweep">
  <Variant name="v" scenario="broken.scenario.xml" seeds="1"/>
</Campaign>`)
	err := campaignMain([]string{"run", model, campaign, "-workers", "1"})
	if err == nil {
		t.Fatal("campaign with failing event reported success")
	}
	if !strings.Contains(err.Error(), "orphan-stop") {
		t.Errorf("error %q does not name the failed event", err)
	}
}
