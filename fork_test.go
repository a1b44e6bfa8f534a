package sgml_test

import (
	"context"
	"sync"
	"testing"

	sgml "repro"
)

// TestForkDeterminism pins the fork contract: a run on a forked range is
// byte-identical to a run on a freshly compiled range for the same (model,
// scenario, seed), under both data planes, and when many
// forks of one compiled root run concurrently (the campaign pool's shape;
// the -race build of this test is CI's fork soundness check).
func TestForkDeterminism(t *testing.T) {
	want := runDrill(t).Fingerprint() // fresh Compile + Run reference

	ms, err := sgml.EPICModelSet()
	if err != nil {
		t.Fatal(err)
	}
	root, err := sgml.Compile(ms)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Stop()

	runForked := func(t *testing.T, pooling bool) *sgml.RunReport {
		t.Helper()
		fork, err := root.Fork()
		if err != nil {
			t.Fatal(err)
		}
		defer fork.Stop()
		fork.Net.SetFramePooling(pooling)
		rep, err := sgml.RunRange(context.Background(), fork, drillScenario())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err != "" {
			t.Fatalf("forked run aborted: %s", rep.Err)
		}
		return rep
	}

	variants := []struct {
		name    string
		pooling bool
	}{
		{"forked", true},
		{"forked again", true}, // second fork off the same root (recycled fabric)
		{"forked frame pooling off", false},
	}
	for _, v := range variants {
		if got := runForked(t, v.pooling).Fingerprint(); got != want {
			t.Errorf("%s: fingerprint diverged from fresh compile\n--- want ---\n%s\n--- got ---\n%s", v.name, want, got)
		}
	}

	// Concurrent forks: the campaign pool's usage pattern. Every concurrent
	// run must still match the fresh-compile fingerprint exactly.
	const concurrent = 4
	got := make([]string, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := sgml.RunCompiled(context.Background(), root, drillScenario())
			if err != nil {
				t.Errorf("concurrent fork %d: %v", i, err)
				return
			}
			got[i] = rep.Fingerprint()
		}(i)
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Errorf("concurrent fork %d: fingerprint diverged from fresh compile", i)
		}
	}

	// The root itself was never started and still forks.
	if _, err := root.Fork(); err != nil {
		t.Errorf("root no longer forkable after runs: %v", err)
	}
}

// TestForkIsolation pins that sibling forks share nothing mutable: a run that
// trips breakers, floods the coupling cache and injects frames on one fork
// leaves its siblings and the root in their pristine compiled state.
func TestForkIsolation(t *testing.T) {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		t.Fatal(err)
	}
	root, err := sgml.Compile(ms)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Stop()

	sibling, err := root.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer sibling.Stop()

	// Run the full drill (breaker trips, load shed, MITM) on a third fork.
	rep, err := sgml.RunCompiled(context.Background(), root, drillScenario())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != "" {
		t.Fatalf("run aborted: %s", rep.Err)
	}
	if len(rep.Grid.OpenBreakers) == 0 {
		t.Fatal("drill opened no breakers; isolation probe is vacuous")
	}

	for name, r := range map[string]*sgml.CyberRange{"root": root, "sibling fork": sibling} {
		for _, sw := range r.Sim.Network().Switches {
			if !sw.Closed {
				t.Errorf("%s: breaker %s open after a sibling's run", name, sw.Name)
			}
		}
		if n := r.Bus.Len(); n != 0 {
			t.Errorf("%s: coupling cache has %d keys after a sibling's run, want 0", name, n)
		}
		if s := r.Net.Stats(); s.Transmitted != 0 {
			t.Errorf("%s: fabric transmitted %d frames after a sibling's run, want 0", name, s.Transmitted)
		}
	}

	// The untouched sibling still runs and matches a fresh compile.
	want := runDrill(t).Fingerprint()
	sibRep, err := sgml.RunRange(context.Background(), sibling, drillScenario())
	if err != nil {
		t.Fatal(err)
	}
	if sibRep.Err != "" {
		t.Fatalf("sibling run aborted: %s", sibRep.Err)
	}
	if got := sibRep.Fingerprint(); got != want {
		t.Errorf("sibling fork diverged from fresh compile\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	// A started range refuses to fork (its mutable layers are live).
	if _, err := sibling.Fork(); err == nil {
		t.Error("started range forked; want error")
	}
}
