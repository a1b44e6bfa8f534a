package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/epic"
	"repro/internal/scada"
	"repro/internal/sgmlconf"
)

// scaleModelSet builds the parametric multi-substation model with an
// overload scenario that deterministically drives feeder PTOC trips (and the
// follow-on PTUV pickups) mid-run, so the replay diff covers IED bus
// writes, not just a quiet range.
func scaleModelSet(t *testing.T, nSubs, feeders int) *ModelSet {
	t.Helper()
	sm, err := epic.NewScaleModel(nSubs, feeders)
	if err != nil {
		t.Fatal(err)
	}
	// Overload the first substation's first feeder and the last substation's
	// last feeder: 0.2 MW * 60 ≈ 0.31 kA at 22 kV, above the 0.25 kA PTOC
	// threshold.
	sm.PowerConfig.Steps = []sgmlconf.ProfileStep{
		{AtMS: 500, Kind: "loadScale", Element: "S1_LD1", Value: 60},
		{AtMS: 900, Kind: "loadScale", Element: fmt.Sprintf("S%d_LD%d", nSubs, feeders), Value: 60},
	}
	return &ModelSet{
		Name:        fmt.Sprintf("scale-%dx%d", nSubs, feeders),
		SCDs:        sm.SCDs,
		SED:         sm.SED,
		IEDConfig:   sm.IEDConfigs,
		PowerConfig: sm.PowerConfig,
	}
}

// runSteps compiles ms, starts the range step-driven, and advances it N
// intervals from a fixed base instant.
func runSteps(t *testing.T, ms *ModelSet, steps int) *CyberRange {
	t.Helper()
	r, err := Compile(ms)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	if err := r.Start(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	for i := 0; i < steps; i++ {
		now = now.Add(r.Interval())
		if err := r.StepAll(now); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return r
}

// diffRanges asserts the two ranges ended in identical observable state:
// every kv bus key (the coupling cache the paper's MySQL plays), per-IED
// trip counts, and — when present — every HMI point's value and quality.
func diffRanges(t *testing.T, a, b *CyberRange) {
	t.Helper()
	sa, sb := a.Bus.Snapshot(), b.Bus.Snapshot()
	if len(sa) != len(sb) {
		t.Errorf("kvbus key count: first %d, second %d", len(sa), len(sb))
	}
	for k, va := range sa {
		if vb, ok := sb[k]; !ok {
			t.Errorf("kvbus key %q missing from second run", k)
		} else if va != vb {
			t.Errorf("kvbus %q: first %q, second %q", k, va, vb)
		}
		av, _ := a.Bus.Get(k)
		bv, _ := b.Bus.Get(k)
		if av.Version != bv.Version {
			t.Errorf("kvbus %q version: first %d, second %d", k, av.Version, bv.Version)
		}
	}
	for k := range sb {
		if _, ok := sa[k]; !ok {
			t.Errorf("kvbus key %q only in second run", k)
		}
	}
	for name, dev := range a.IEDs {
		if got, want := b.IEDs[name].TripCount(), dev.TripCount(); got != want {
			t.Errorf("IED %s trips: first %d, second %d", name, want, got)
		}
	}
	if a.HMI != nil {
		pa, pb := a.HMI.Points(), b.HMI.Points()
		if len(pa) != len(pb) {
			t.Fatalf("HMI points: first %d, second %d", len(pa), len(pb))
		}
		for i := range pa {
			if pa[i].XID != pb[i].XID || pa[i].Value != pb[i].Value ||
				pa[i].Binary != pb[i].Binary || pa[i].Quality != pb[i].Quality {
				t.Errorf("HMI point %s: first {v=%v b=%v q=%v}, second %s {v=%v b=%v q=%v}",
					pa[i].XID, pa[i].Value, pa[i].Binary, pa[i].Quality,
					pb[i].XID, pb[i].Value, pb[i].Binary, pb[i].Quality)
			}
		}
	}
}

// testReplay runs two independently compiled copies of a model for the same
// number of steps; StepAll must leave them in identical state.
func testReplay(t *testing.T, ms1, ms2 *ModelSet, steps int) {
	first := runSteps(t, ms1, steps)
	second := runSteps(t, ms2, steps)
	diffRanges(t, first, second)
	// The scenario must actually have fired protection, or the diff proved
	// nothing about IED write ordering.
	trips := 0
	for _, dev := range second.IEDs {
		trips += dev.TripCount()
	}
	if trips == 0 {
		t.Error("scenario produced no trips; replay diff is vacuous")
	}
}

func TestStepReplay3x4(t *testing.T) {
	testReplay(t, scaleModelSet(t, 3, 4), scaleModelSet(t, 3, 4), 100)
}

func TestStepReplay5x20(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: 105-IED replay soak")
	}
	testReplay(t, scaleModelSet(t, 5, 20), scaleModelSet(t, 5, 20), 100)
}

func TestStepReplayEPIC(t *testing.T) {
	// The EPIC model exercises the PLC scan and HMI poll phases on top of
	// the IED pass; the HMI point table must match too. A PV over-export
	// event trips MIED1 and TIED1 mid-run so the diff also covers breaker
	// commands written by the IED pass.
	overExport := func() *ModelSet {
		ms := epicModelSet(t)
		ms.PowerConfig.Steps = append(ms.PowerConfig.Steps,
			sgmlconf.ProfileStep{AtMS: 2000, Kind: "sgenP", Element: "PV1", Value: 30})
		return ms
	}
	testReplay(t, overExport(), overExport(), 50)
}

func TestShardPartition(t *testing.T) {
	t.Run("scale model shards by substation", func(t *testing.T) {
		r, err := Compile(scaleModelSet(t, 3, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		shards := r.Shards()
		if len(shards) != 3 {
			t.Fatalf("shards = %d, want 3", len(shards))
		}
		for i, want := range []string{"S1", "S2", "S3"} {
			if shards[i].Name != want {
				t.Errorf("shard %d = %q, want %q", i, shards[i].Name, want)
			}
			if len(shards[i].IEDs) != 5 { // 4 feeders + 1 gateway
				t.Errorf("shard %s IEDs = %d, want 5", shards[i].Name, len(shards[i].IEDs))
			}
		}
	})
	t.Run("EPIC is a single shard with its PLC", func(t *testing.T) {
		r := compiledEPIC(t)
		shards := r.Shards()
		if len(shards) != 1 {
			t.Fatalf("shards = %v", shards)
		}
		if len(shards[0].IEDs) != 8 || len(shards[0].PLCs) != 1 {
			t.Errorf("shard = %+v, want 8 IEDs + 1 PLC", shards[0])
		}
	})
}

// TestStepUnderFault ensures a dead IED does not wedge or panic StepAll, and
// that the HMI marks the source comm-fail.
func TestStepUnderFault(t *testing.T) {
	r := compiledEPIC(t)
	if err := r.Start(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	step := func(n int) {
		for i := 0; i < n; i++ {
			now = now.Add(r.Interval())
			_ = r.StepAll(now)
		}
	}
	step(2)
	r.IEDs["TIED1"].Stop()
	step(3)
	r.HMI.PollOnce()
	r.HMI.PollOnce()
	dead, err := r.HMI.Point("DP_TieCurrent")
	if err != nil {
		t.Fatal(err)
	}
	if dead.Quality != scada.QualityCommFail {
		t.Errorf("dead IED point quality = %v, want COMM_FAIL", dead.Quality)
	}
	if res := r.Sim.LastResult(); res == nil || !res.Converged {
		t.Error("simulation broke after device death")
	}
}

// TestStepClockCadence pins StepAll's step-clock schedule on EPIC at its
// 100 ms interval: the HMI reads CPLC's four points (pollMs 1000) on steps 1,
// 11 and 21 of a forked range, and a PLC Config scanMs of 250 ms rounds up to
// a scan on steps 1, 4, 7 and 10.
func TestStepClockCadence(t *testing.T) {
	t.Run("HMI", func(t *testing.T) {
		root := compiledEPIC(t)
		r, err := root.Fork()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		if err := r.Start(context.Background(), false); err != nil {
			t.Fatal(err)
		}
		const steps = 21
		now := time.Unix(1700000000, 0)
		for i := 0; i < steps; i++ {
			now = now.Add(r.Interval())
			if err := r.StepAll(now); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if got := r.PLCs["CPLC"].Modbus().Requests(); got != 3*4 {
			t.Errorf("CPLC Modbus reads in %d steps = %d, want 3 rounds x 4 points", steps, got)
		}
		if got := r.HMI.Polls(); got != steps {
			t.Errorf("HMI poll rounds = %d, want %d", got, steps)
		}
	})
	t.Run("PLC", func(t *testing.T) {
		ms := epicModelSet(t)
		ms.PLCs[0].Config.ScanMS = 250
		r := runSteps(t, ms, 11)
		if scans, _, _, _ := r.PLCs["CPLC"].Stats(); scans != 4 {
			t.Errorf("CPLC scans in 11 steps at scanMs 250 = %d, want 4", scans)
		}
	})
}
