package main

import (
	"math"
	"runtime"
	"slices"
	"time"

	sgml "repro"
)

// opStats are the samples of one measured closed loop.
type opStats struct {
	lat   []time.Duration // latency of every completed operation
	wall  time.Duration   // wall time the operations took
	alloc uint64          // bytes allocated while they ran
}

// runWorkload generates the workload's model and runs it, traced or not,
// adding the run's metrics to b. It returns the model's size label and, for
// a traced run, the recorded spans.
func runWorkload(b *bench, w *workload, traced bool) (string, []span, error) {
	ms, label, err := w.model()
	if err != nil {
		return "", nil, err
	}
	if traced {
		spans, err := traceWorkload(b, w, ms)
		return label, spans, err
	}
	if err := measureSetup(b, ms); err != nil {
		return "", nil, err
	}
	runtime.GC()
	st, err := w.measure(b, ms)
	if err != nil {
		return "", nil, err
	}
	n := float64(len(st.lat))
	b.put("op_ms_p50", "ms", msOf(percentile(st.lat, 0.50)))
	b.put("op_ms_p90", "ms", msOf(percentile(st.lat, 0.90)))
	b.put("ops_per_s", "1/s", n/st.wall.Seconds())
	b.put("alloc_kb_per_op", "KB", float64(st.alloc)/1024/n)
	return label, nil, nil
}

// measureSetup reports setup_s, the median sgml.Compile time of the model.
//
// Every sample starts on a freshly collected heap: a concurrent collection
// left over from the previous sample slows the next one by up to 2.5x, which
// would make the median depend on where the collector's cycles happen to
// fall. The samples also span at least the size's window, so that a stall of
// a few milliseconds on a shared host cannot move the median of a model that
// compiles in under one.
func measureSetup(b *bench, ms *sgml.ModelSet) error {
	var compiles []time.Duration
	for begin := time.Now(); len(compiles) < b.size.compiles || time.Since(begin) < b.size.window; {
		runtime.GC()
		start := time.Now()
		r, err := sgml.Compile(ms)
		compiles = append(compiles, time.Since(start))
		if err != nil {
			return err
		}
		r.Stop()
	}
	b.put("setup_s", "s", percentile(compiles, 0.5).Seconds())
	return nil
}

// percentile is the nearest-rank q-quantile of ds (0 when empty).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
