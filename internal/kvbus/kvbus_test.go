package kvbus

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetRoundTrip(t *testing.T) {
	b := New()
	b.Set("a", "1.5")
	v, ok := b.Get("a")
	if !ok {
		t.Fatal("key missing after Set")
	}
	if v.Raw != "1.5" || v.Version != 1 {
		t.Errorf("got %+v, want {1.5 1}", v)
	}
	b.Set("a", "2.5")
	v, _ = b.Get("a")
	if v.Version != 2 {
		t.Errorf("version = %d, want 2", v.Version)
	}
}

func TestGetMissing(t *testing.T) {
	b := New()
	if _, ok := b.Get("nope"); ok {
		t.Error("Get on empty bus returned ok")
	}
	if got := b.GetFloat("nope", 42); got != 42 {
		t.Errorf("GetFloat default = %v, want 42", got)
	}
	if got := b.GetBool("nope", true); !got {
		t.Error("GetBool default = false, want true")
	}
}

func TestTypedAccessors(t *testing.T) {
	tests := []struct {
		raw   string
		wantF float64
		fOK   bool
		wantB bool
		bOK   bool
		wantI int64
		iOK   bool
	}{
		{"3.25", 3.25, true, false, false, 0, false},
		{"1", 1, true, true, true, 1, true},
		{"0", 0, true, false, true, 0, true},
		{"true", 0, false, true, true, 0, false},
		{"closed", 0, false, true, true, 0, false},
		{"open", 0, false, false, true, 0, false},
		{"garbage", 0, false, false, false, 0, false},
		{" 7 ", 7, true, false, false, 7, true},
	}
	for _, tt := range tests {
		t.Run(tt.raw, func(t *testing.T) {
			v := Value{Raw: tt.raw}
			f, err := v.Float()
			if (err == nil) != tt.fOK || (tt.fOK && f != tt.wantF) {
				t.Errorf("Float() = %v, %v", f, err)
			}
			bb, err := v.Bool()
			if (err == nil) != tt.bOK || (tt.bOK && bb != tt.wantB) {
				t.Errorf("Bool() = %v, %v", bb, err)
			}
			i, err := v.Int()
			if (err == nil) != tt.iOK || (tt.iOK && i != tt.wantI) {
				t.Errorf("Int() = %v, %v", i, err)
			}
		})
	}
}

func TestFloatRoundTripProperty(t *testing.T) {
	b := New()
	f := func(x float64) bool {
		b.SetFloat("k", x)
		got := b.GetFloat("k", 0)
		return got == x || (x != x && got != got) // NaN-safe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVersionMonotonicProperty(t *testing.T) {
	b := New()
	var last uint64
	f := func(s string) bool {
		b.Set("k", s)
		v, _ := b.Get("k")
		ok := v.Version == last+1
		last = v.Version
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWatchDeliversUpdates(t *testing.T) {
	b := New()
	ch, cancel := b.Watch("x")
	defer cancel()
	b.Set("x", "10")
	b.Set("y", "ignored")
	select {
	case u := <-ch:
		if u.Key != "x" || u.Value.Raw != "10" {
			t.Errorf("update = %+v", u)
		}
	default:
		t.Fatal("no update delivered")
	}
	select {
	case u := <-ch:
		t.Fatalf("unexpected extra update %+v", u)
	default:
	}
}

func TestWatchAllKeys(t *testing.T) {
	b := New()
	ch, cancel := b.Watch("")
	defer cancel()
	b.Set("a", "1")
	b.Set("b", "2")
	got := map[string]string{}
	for i := 0; i < 2; i++ {
		u := <-ch
		got[u.Key] = u.Value.Raw
	}
	if got["a"] != "1" || got["b"] != "2" {
		t.Errorf("got %v", got)
	}
}

func TestWatchCancelStopsDelivery(t *testing.T) {
	b := New()
	ch, cancel := b.Watch("x")
	cancel()
	b.Set("x", "1")
	select {
	case u := <-ch:
		t.Fatalf("update after cancel: %+v", u)
	default:
	}
}

func TestSlowWatcherDoesNotBlockWriter(t *testing.T) {
	b := New()
	_, cancel := b.Watch("x")
	defer cancel()
	// Overflow the 64-slot buffer; Set must never block.
	for i := 0; i < 1000; i++ {
		b.SetInt("x", int64(i))
	}
	v, _ := b.Get("x")
	if v.Raw != "999" {
		t.Errorf("final value = %q, want 999", v.Raw)
	}
}

func TestKeysPrefixSorted(t *testing.T) {
	b := New()
	for _, k := range []string{"pw/s1/bus/b2/vm_pu", "pw/s1/bus/b1/vm_pu", "cmd/s1/cb/c1/close"} {
		b.Set(k, "0")
	}
	got := b.Keys("pw/")
	if len(got) != 2 || got[0] != "pw/s1/bus/b1/vm_pu" || got[1] != "pw/s1/bus/b2/vm_pu" {
		t.Errorf("Keys(pw/) = %v", got)
	}
	if n := len(b.Keys("")); n != 3 {
		t.Errorf("Keys(\"\") len = %d, want 3", n)
	}
}

func TestDelete(t *testing.T) {
	b := New()
	b.Set("k", "v")
	b.Delete("k")
	if _, ok := b.Get("k"); ok {
		t.Error("key survives Delete")
	}
	if b.Len() != 0 {
		t.Errorf("Len = %d, want 0", b.Len())
	}
}

func TestSnapshotRestore(t *testing.T) {
	b := New()
	b.Set("a", "1")
	b.Set("b", "2")
	snap := b.Snapshot()
	b.Set("a", "99")
	b.Delete("b")
	b.Restore(snap)
	if got := b.GetFloat("a", -1); got != 1 {
		t.Errorf("a = %v, want 1", got)
	}
	if got := b.GetFloat("b", -1); got != 2 {
		t.Errorf("b = %v, want 2", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	b := New()
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := "k" + strconv.Itoa(w%4)
			for i := 0; i < iters; i++ {
				b.SetInt(key, int64(i))
				b.Get(key)
				b.Keys("k")
			}
		}(w)
	}
	wg.Wait()
	reads, writes := b.Stats()
	if writes != workers*iters {
		t.Errorf("writes = %d, want %d", writes, workers*iters)
	}
	if reads != workers*iters {
		t.Errorf("reads = %d, want %d", reads, workers*iters)
	}
}

func TestKeyBuilders(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{BusVoltageKey("s1", "b1"), "pw/s1/bus/b1/vm_pu"},
		{BusAngleKey("s1", "b1"), "pw/s1/bus/b1/va_deg"},
		{LineCurrentKey("s1", "l1"), "pw/s1/line/l1/i_ka"},
		{LinePKey("s1", "l1"), "pw/s1/line/l1/p_mw"},
		{LineQKey("s1", "l1"), "pw/s1/line/l1/q_mvar"},
		{BreakerStatusKey("s1", "cb1"), "pw/s1/cb/cb1/closed"},
		{BreakerCmdKey("s1", "cb1"), "cmd/s1/cb/cb1/close"},
		{LoadPKey("s1", "ld1"), "pw/s1/load/ld1/p_mw"},
		{GenPKey("s1", "g1"), "pw/s1/gen/g1/p_mw"},
	}
	for i, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("builder %d = %q, want %q", i, tt.got, tt.want)
		}
	}
}

func ExampleBus() {
	b := New()
	b.SetFloat(BusVoltageKey("epic", "MainBus"), 1.02)
	fmt.Println(b.GetFloat(BusVoltageKey("epic", "MainBus"), 0))
	// Output: 1.02
}
