package sgml_test

// Scenario search end-to-end tests: the planted IDS blind spot (the sensor
// inspects MMS, ARP, GOOSE and port scans but never Modbus/502) must be
// discovered by a fixed (model, seed scenario, search seed, budget),
// minimized to <= 3 events, and the minimized XML must replay to the pinned
// fingerprint on both provisioning paths. The
// checked-in regression corpus under testdata/corpus pins exactly that.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	sgml "repro"

	"repro/mms"
	"repro/netem"
)

// Fixed search coordinates: TestSearchFindsModbusBlindSpot and the checked-in
// testdata/corpus entries (regenerated via `rangectl search ... -out`) both
// depend on them. Changing any of these means regenerating the corpus.
const (
	searchTestSeed   = 3
	searchTestBudget = 16
)

// searchSeedScenario is the seed the searcher mutates from: an attacker
// foothold, a deployed IDS (threshold 5 so port scans stay detectable — the
// default 10 exceeds the default scan's 8 ports) and one benign power nudge.
// No event in it is an attack; every find is the mutation engine's own work.
func searchSeedScenario() *sgml.Scenario {
	return &sgml.Scenario{
		Name: "search-seed",
		Seed: 11,
		Attackers: []sgml.AttackerSpec{
			{Name: "redbox", Switch: "sw-TransLAN", IP: netem.MustIPv4("10.0.1.13")},
		},
		Events: []sgml.Event{
			{Name: "blue", Trigger: sgml.At(0), Action: sgml.DeployIDS{
				AuthorizedWriters: []string{"SCADA", "CPLC"},
				PortScanThreshold: 5,
			}},
			{Name: "nudge", Trigger: sgml.At(2), Action: sgml.ScaleLoad("Home1", 0.8)},
		},
		Steps: 12,
	}
}

// replayFind parses a find's minimized XML and runs it under the recorded
// step cap with the given extra options, returning the report.
func replayFind(t *testing.T, ms *sgml.ModelSet, f sgml.SearchFind) *sgml.RunReport {
	t.Helper()
	sc, err := sgml.ParseScenario(f.XML)
	if err != nil {
		t.Fatalf("find %s: minimized XML does not parse: %v", f.Oracle, err)
	}
	rep, err := sgml.Run(context.Background(), ms, sc, sgml.WithMaxSteps(f.MaxSteps))
	if err != nil {
		t.Fatalf("find %s: replay failed: %v", f.Oracle, err)
	}
	return rep
}

func TestSearchFindsModbusBlindSpot(t *testing.T) {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sgml.Search(context.Background(), ms, searchSeedScenario(), sgml.SearchOptions{
		SearchSeed: searchTestSeed,
		Budget:     searchTestBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != searchTestBudget {
		t.Errorf("candidates = %d, want the full budget %d", res.Candidates, searchTestBudget)
	}

	byOracle := map[string]sgml.SearchFind{}
	for _, f := range res.Finds {
		byOracle[f.Oracle] = f
	}
	md, ok := byOracle["missed-detection"]
	if !ok {
		t.Fatalf("search did not find the Modbus blind spot; finds: %v", oracleKeys(res.Finds))
	}
	if md.Events > 3 {
		t.Errorf("blind-spot repro has %d events, want <= 3", md.Events)
	}
	if !strings.Contains(string(md.XML), `kind="modbusTamper"`) {
		t.Errorf("blind-spot repro does not contain a modbusTamper event:\n%s", md.XML)
	}
	if !strings.Contains(md.Detail, "undetected") {
		t.Errorf("blind-spot detail = %q, want an undetected-attack verdict", md.Detail)
	}

	// The whole search must be a pure function of (model, seed scenario,
	// search seed, budget): re-running with a single worker must reproduce
	// the identical finds.
	one, err := sgml.Search(context.Background(), ms, searchSeedScenario(), sgml.SearchOptions{
		SearchSeed: searchTestSeed,
		Budget:     searchTestBudget,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Finds) != len(res.Finds) {
		t.Fatalf("one-worker search found %d finds, default %d", len(one.Finds), len(res.Finds))
	}
	for i := range res.Finds {
		p, q := res.Finds[i], one.Finds[i]
		if p.Oracle != q.Oracle || p.FoundAt != q.FoundAt || p.Events != q.Events {
			t.Errorf("find %d diverged across worker counts: default %s@%d/%d events, one worker %s@%d/%d events",
				i, p.Oracle, p.FoundAt, p.Events, q.Oracle, q.FoundAt, q.Events)
		}
		if string(p.XML) != string(q.XML) {
			t.Errorf("find %s: minimized XML diverged across worker counts:\n%s\n---\n%s", p.Oracle, p.XML, q.XML)
		}
		if p.Fingerprint != q.Fingerprint {
			t.Errorf("find %s: fingerprint diverged across worker counts", p.Oracle)
		}
	}

	// The minimized XML replays to the pinned fingerprint and keeps the
	// oracle's verdict on both provisioning paths.
	oracle, err := sgml.OracleByKey(md.Oracle)
	if err != nil {
		t.Fatal(err)
	}
	root, err := sgml.Compile(ms)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Stop()
	variants := []struct {
		name   string
		replay func() *sgml.RunReport
	}{
		{"fresh", func() *sgml.RunReport { return replayFind(t, ms, md) }},
		{"fork", func() *sgml.RunReport {
			sc, err := sgml.ParseScenario(md.XML)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sgml.RunCompiled(context.Background(), root, sc, sgml.WithMaxSteps(md.MaxSteps))
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}},
	}
	for _, v := range variants {
		rep := v.replay()
		if got := rep.Fingerprint(); got != md.Fingerprint {
			t.Errorf("%s: replay fingerprint diverged from the pinned one:\n got %s\nwant %s", v.name, got, md.Fingerprint)
		}
		if _, ok := oracle.Assess(nil, rep); !ok {
			t.Errorf("%s: replay lost the %s verdict", v.name, md.Oracle)
		}
	}
}

func oracleKeys(finds []sgml.SearchFind) []string {
	keys := make([]string, len(finds))
	for i, f := range finds {
		keys[i] = f.Oracle
	}
	return keys
}

// TestScenarioRoundTrip pins the serializer's contract: MarshalScenario's
// output re-parses to a scenario whose run fingerprint matches the original's
// for a fixed (model, seed).
func TestScenarioRoundTrip(t *testing.T) {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := map[string]*sgml.Scenario{
		"drill": {
			Name: "drill",
			Seed: 7,
			Attackers: []sgml.AttackerSpec{
				{Name: "redbox", Switch: "sw-TransLAN", IP: netem.MustIPv4("10.0.1.13")},
			},
			Events: []sgml.Event{
				{Name: "blue", Trigger: sgml.At(0), Action: sgml.DeployIDS{
					AuthorizedWriters: []string{"SCADA", "CPLC"}, PortScanThreshold: 5}},
				{Name: "recon", Trigger: sgml.At(2), Action: sgml.PortScan{Attacker: "redbox", Target: "TIED1"}},
				{Name: "strike", Trigger: sgml.OnAlert(sgml.AlertPortScan).Plus(1), Action: sgml.FalseCommand{
					Attacker: "redbox", Target: "TIED1",
					Ref: "LD0/XCBR1.Pos.Oper", Value: mms.NewBool(false)}},
				{Name: "shed", Trigger: sgml.After(500 * time.Millisecond), Action: sgml.ScaleLoad("Home1", 0.5)},
			},
			Steps: 14,
		},
		"tamper": {
			Name: "tamper",
			Seed: 5,
			Attackers: []sgml.AttackerSpec{
				{Name: "redbox", Switch: "sw-TransLAN", IP: netem.MustIPv4("10.0.1.13")},
			},
			Events: []sgml.Event{
				{Name: "blue", Trigger: sgml.At(0), Action: sgml.DeployIDS{
					AuthorizedWriters: []string{"SCADA", "CPLC"}, PortScanThreshold: 5}},
				{Name: "trip", Trigger: sgml.At(2), Action: sgml.TamperCoil("redbox", "CPLC", 0, true)},
				{Name: "poke", Trigger: sgml.At(3), Action: sgml.TamperRegister("redbox", "CPLC", 1, 777)},
			},
			Steps: 12,
		},
	}
	for name, sc := range scenarios {
		t.Run(name, func(t *testing.T) {
			orig, err := sgml.Run(context.Background(), ms, sc)
			if err != nil {
				t.Fatal(err)
			}
			data, err := sgml.MarshalScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := sgml.ParseScenario(data)
			if err != nil {
				t.Fatalf("serialized scenario does not re-parse: %v\n%s", err, data)
			}
			rep, err := sgml.Run(context.Background(), ms, parsed)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rep.Fingerprint(), orig.Fingerprint(); got != want {
				t.Errorf("round-tripped run diverged:\n got %s\nwant %s\nXML:\n%s", got, want, data)
			}
		})
	}
}

// TestModbusTamperValidation pins the satellite contract: a ModbusTamper
// naming an unknown PLC host or an out-of-range register fails scenario
// validation with an error wrapping ErrModel and naming the event.
func TestModbusTamperValidation(t *testing.T) {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sgml.Compile(ms)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	base := func(a sgml.Action) *sgml.Scenario {
		return &sgml.Scenario{
			Name: "tamper-validate",
			Attackers: []sgml.AttackerSpec{
				{Name: "redbox", Switch: "sw-TransLAN", IP: netem.MustIPv4("10.0.1.13")},
			},
			Events: []sgml.Event{{Name: "evil", Trigger: sgml.At(1), Action: a}},
			Steps:  5,
		}
	}

	cases := []struct {
		name    string
		action  sgml.Action
		wantErr error // nil = valid
	}{
		{"valid coil", sgml.TamperCoil("redbox", "CPLC", 0, true), nil},
		{"valid register", sgml.TamperRegister("redbox", "CPLC", 3, 9), nil},
		{"unknown PLC", sgml.TamperCoil("redbox", "GhostPLC", 0, true), sgml.ErrModel},
		{"coil out of range", sgml.TamperCoil("redbox", "CPLC", 60000, true), sgml.ErrModel},
		{"register out of range", sgml.TamperRegister("redbox", "CPLC", 60000, 1), sgml.ErrModel},
		{"bad table", sgml.ModbusTamper{Attacker: "redbox", PLC: "CPLC", Table: "input"}, sgml.ErrModel},
		{"undeclared attacker", sgml.TamperCoil("ghost", "CPLC", 0, true), sgml.ErrScenario},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := sgml.ValidateScenario(r, base(tc.action))
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v does not wrap %v", err, tc.wantErr)
			}
			if tc.wantErr == sgml.ErrModel && !strings.Contains(err.Error(), `"evil"`) {
				t.Errorf("error %v does not name the offending event", err)
			}
		})
	}
}

// TestCorpusReplay replays every checked-in minimized repro and asserts the
// pinned fingerprint and the recorded oracle verdict —
// the regression net the search tentpole exists to weave.
func TestCorpusReplay(t *testing.T) {
	entries, err := sgml.ReadSearchCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("testdata/corpus is empty; regenerate with rangectl search")
	}
	ms, err := sgml.EPICModelSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			oracle, err := sgml.OracleByKey(e.Oracle)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := sgml.ParseScenario(e.XML)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sgml.Run(context.Background(), ms, sc, sgml.WithMaxSteps(e.MaxSteps))
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Fingerprint(); got != e.Fingerprint {
				t.Errorf("fingerprint diverged from pinned corpus entry:\n got %s\nwant %s", got, e.Fingerprint)
			}
			if _, ok := oracle.Assess(nil, rep); !ok {
				t.Errorf("replay lost the %s verdict", e.Oracle)
			}
		})
	}
}
