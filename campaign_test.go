package sgml_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sgml "repro"

	"repro/mms"
	"repro/netem"
)

// sweepCampaign is the determinism workload: the same drill over two seeds,
// each run twice to probe replay stability.
func sweepCampaign(ms *sgml.ModelSet) *sgml.Campaign {
	drill := &sgml.Scenario{
		Name:  "sweep-drill",
		Steps: 8,
		Attackers: []sgml.AttackerSpec{
			{Name: "redbox", Switch: "sw-TransLAN", IP: netem.MustIPv4("10.0.1.13")},
		},
		Events: []sgml.Event{
			{Name: "blue", Trigger: sgml.At(0), Action: sgml.DeployIDS{
				AuthorizedWriters: []string{"SCADA", "CPLC"}, PortScanThreshold: 5}},
			{Name: "recon", Trigger: sgml.At(2), Action: sgml.PortScan{
				Attacker: "redbox", Target: "TIED1"}},
			{Name: "fci", Trigger: sgml.OnAlert(sgml.AlertPortScan).Plus(1), Action: sgml.FalseCommand{
				Attacker: "redbox", Target: "TIED1",
				Ref: "LD0/XCBR1.Pos.Oper", Value: mms.NewBool(false)}},
		},
	}
	return &sgml.Campaign{
		Name:  "determinism-sweep",
		Model: ms,
		Variants: []sgml.CampaignVariant{
			{Name: "sweep", Scenario: drill, Seeds: []int64{1, 2}, Repeat: 2},
		},
	}
}

// TestCampaignDeterminism pins the campaign layer's contract: the sweep's
// run fingerprints are a pure function of each run's (model, scenario, seed)
// — identical regardless of worker count or run ordering, with repeated seeds
// collapsing to one fingerprint (and the runs all sharing one parsed
// ModelSet, -race clean).
func TestCampaignDeterminism(t *testing.T) {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		t.Fatal(err)
	}

	key := func(r *sgml.CampaignRun) [3]interface{} { return [3]interface{}{r.Variant, r.Seed, r.Attempt} }
	var want map[[3]interface{}]string
	for _, workers := range []int{1, 4} {
		rep, err := sgml.RunCampaign(context.Background(), sweepCampaign(ms), sgml.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("workers=%d: failures=%d determinism mismatches=%d\n%s",
				workers, rep.Failures, len(rep.Determinism), rep)
		}
		if rep.TotalRuns != 4 {
			t.Fatalf("workers=%d: runs = %d, want 4", workers, rep.TotalRuns)
		}
		got := make(map[[3]interface{}]string, len(rep.Runs))
		for i := range rep.Runs {
			run := &rep.Runs[i]
			got[key(run)] = run.Fingerprint
			if run.Report == nil {
				t.Fatalf("workers=%d: run %v has no report", workers, key(run))
			}
			if run.Recall != 1 {
				t.Errorf("workers=%d: run %v recall = %v, want 1", workers, key(run), run.Recall)
			}
		}
		// The repeated seed-1 attempts share one fingerprint; seed 2 differs.
		p1 := got[[3]interface{}{"sweep", int64(1), 1}]
		if got[[3]interface{}{"sweep", int64(1), 2}] != p1 {
			t.Errorf("workers=%d: repeated seed fingerprint diverged", workers)
		}
		if got[[3]interface{}{"sweep", int64(2), 1}] == p1 {
			t.Errorf("workers=%d: different seed produced identical fingerprint", workers)
		}
		if want == nil {
			want = got
			continue
		}
		for k, fp := range want {
			if got[k] != fp {
				t.Errorf("run %v: fingerprint %s under workers=4, want %s (workers=1)", k, got[k], fp)
			}
		}
	}
}

// TestCampaignXMLForm drives the fifth supplementary schema end to end:
// parse, seed-range expansion, retired attributes ignored, and the JSON
// report shape.
func TestCampaignXMLForm(t *testing.T) {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	scenarioXML := []byte(`<Scenario name="mini" steps="4" seed="1">
  <Event name="trip" atStep="1" kind="openBreaker" element="CBMicro"/>
</Scenario>`)
	if err := os.WriteFile(filepath.Join(dir, "mini.scenario.xml"), scenarioXML, 0o644); err != nil {
		t.Fatal(err)
	}
	campaignXML := []byte(`<Campaign name="xml-sweep" workers="2">
  <Variant name="a" scenario="mini.scenario.xml" seeds="1-3,9"/>
  <Variant name="b" scenario="mini.scenario.xml" seeds="2" repeat="2"
           sequential="true" framePooling="off"/>
</Campaign>`)
	c, err := sgml.ParseCampaign(campaignXML, dir, ms)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "xml-sweep" || c.Workers != 2 || len(c.Variants) != 2 {
		t.Fatalf("campaign = %+v", c)
	}
	a, b := c.Variants[0], c.Variants[1]
	if len(a.Seeds) != 4 || a.Seeds[0] != 1 || a.Seeds[2] != 3 || a.Seeds[3] != 9 {
		t.Errorf("seed range expansion = %v", a.Seeds)
	}
	// Variant b still carries the retired sequential/framePooling
	// attributes; they parse and are ignored.
	if b.Repeat != 2 {
		t.Errorf("variant b repeat = %d, want 2", b.Repeat)
	}
	if a.Scenario != b.Scenario {
		t.Error("shared scenario file loaded twice")
	}

	rep, err := sgml.RunCampaign(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.TotalRuns != 6 {
		t.Fatalf("runs = %d, OK = %t\n%s", rep.TotalRuns, rep.OK(), rep)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Campaign string `json:"campaign"`
		Runs     []struct {
			Variant     string `json:"variant"`
			Seed        int64  `json:"seed"`
			Fingerprint string `json:"fingerprint"`
		} `json:"runs"`
		Variants []struct {
			Variant           string `json:"variant"`
			DeterminismGroups int    `json:"determinismGroups"`
		} `json:"variants"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Campaign != "xml-sweep" || len(decoded.Runs) != 6 || len(decoded.Variants) != 2 {
		t.Errorf("JSON report: campaign=%q runs=%d variants=%d",
			decoded.Campaign, len(decoded.Runs), len(decoded.Variants))
	}
	if decoded.Runs[0].Fingerprint == "" {
		t.Error("JSON run record missing fingerprint hash")
	}

	// Malformed campaigns fail structurally, before anything runs.
	for _, bad := range []string{
		`<Campaign name="x"/>`,
		`<Campaign name="x"><Variant name="v"/></Campaign>`,
		`<Campaign name="x"><Variant name="v" scenario="s.xml" seeds="5-1"/></Campaign>`,
		`<Campaign name="x"><Variant name="v" scenario="s.xml" framePooling="maybe"/></Campaign>`,
		`<Campaign name="x"><Variant name="v" scenario="s.xml"/><Variant name="v" scenario="s.xml"/></Campaign>`,
	} {
		if _, err := sgml.ParseCampaign([]byte(bad), dir, ms); err == nil {
			t.Errorf("malformed campaign accepted: %s", bad)
		}
	}
}

// TestCampaignXMLFaultAttributes covers the fault-tolerance additions to the
// fifth schema: the maxSteps step budget threads from XML to the engine (a
// budget-aborted run is a deterministic FailScenario, never retried), a
// negative budget is rejected structurally, and load errors name the variant
// that referenced the missing file.
func TestCampaignXMLFaultAttributes(t *testing.T) {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	scenarioXML := []byte(`<Scenario name="mini" steps="6" seed="1">
  <Event name="trip" atStep="1" kind="openBreaker" element="CBMicro"/>
</Scenario>`)
	if err := os.WriteFile(filepath.Join(dir, "mini.scenario.xml"), scenarioXML, 0o644); err != nil {
		t.Fatal(err)
	}

	campaignXML := []byte(`<Campaign name="budget-sweep">
  <Variant name="full"   scenario="mini.scenario.xml" seeds="1"/>
  <Variant name="capped" scenario="mini.scenario.xml" seeds="1" maxSteps="2"/>
</Campaign>`)
	c, err := sgml.ParseCampaign(campaignXML, dir, ms)
	if err != nil {
		t.Fatal(err)
	}
	if c.Variants[0].MaxSteps != 0 || c.Variants[1].MaxSteps != 2 {
		t.Fatalf("maxSteps threading = %d, %d", c.Variants[0].MaxSteps, c.Variants[1].MaxSteps)
	}
	rep, err := sgml.RunCampaign(context.Background(), c, sgml.WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 1 {
		t.Fatalf("Failures = %d, want exactly the capped variant\n%s", rep.Failures, rep)
	}
	for i := range rep.Runs {
		run := &rep.Runs[i]
		switch run.Variant {
		case "capped":
			if run.Failure != sgml.FailScenario || len(run.Retries) != 0 {
				t.Errorf("capped run = failure %q, %d retries; want deterministic unretried FailScenario",
					run.Failure, len(run.Retries))
			}
		case "full":
			if run.Err != "" {
				t.Errorf("uncapped run failed: %s", run.Err)
			}
		}
	}

	// Negative budgets are structural errors.
	bad := []byte(`<Campaign name="x"><Variant name="v" scenario="mini.scenario.xml" maxSteps="-1"/></Campaign>`)
	if _, err := sgml.ParseCampaign(bad, dir, ms); err == nil {
		t.Error("negative maxSteps accepted")
	}

	// A dangling scenario reference is attributed to its variant.
	dangling := []byte(`<Campaign name="x">
  <Variant name="ok"     scenario="mini.scenario.xml" seeds="1"/>
  <Variant name="broken" scenario="nope.scenario.xml" seeds="1"/>
</Campaign>`)
	_, err = sgml.ParseCampaign(dangling, dir, ms)
	if err == nil || !strings.Contains(err.Error(), `variant broken`) || !strings.Contains(err.Error(), "nope.scenario.xml") {
		t.Errorf("dangling scenario error = %v, want the variant named", err)
	}

	// Same for a dangling model directory reference.
	danglingModel := []byte(`<Campaign name="x">
  <Variant name="m" scenario="mini.scenario.xml" seeds="1" model="no-such-dir"/>
</Campaign>`)
	_, err = sgml.ParseCampaign(danglingModel, dir, ms)
	if err == nil || !strings.Contains(err.Error(), `variant m`) {
		t.Errorf("dangling model error = %v, want the variant named", err)
	}
}
