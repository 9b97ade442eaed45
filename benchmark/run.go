package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// options sizes one workload run.
type options struct {
	window time.Duration // measured (or traced) window
	warmup time.Duration // closed-loop warm-up after every arming
	setups int           // how many times the workload is armed; setup_s takes the median
	nproc  int
	outDir string // where trace-<workload>.json goes; "" = nowhere
	quick  bool   // -smoke: cut probe repetitions to a tenth
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run produced.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Detail is context for a reader, never gated: sample counts, the
	// highest percentile the sample supports, arming times.
	Detail map[string]any `json:"detail"`
	// Problem is the first oracle or books mismatch ("" when Correct).
	Problem string `json:"problem,omitempty"`
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (r *result) fail(err error) {
	if r.Correct {
		r.Correct = false
		r.Problem = err.Error()
	}
}

// armAndWarm arms w and drives its warm-up, returning the arming wall time
// (listen, dial, hello, calibration-dependent state, warm-up).
func armAndWarm(w workload, sys *system, tr *tracer, opt options, seq *atomic.Int64) (*armed, float64, error) {
	start := time.Now()
	a, err := w.arm(sys, tr, opt.nproc)
	if err != nil {
		return nil, 0, fmt.Errorf("arm %s: %w", w.name, err)
	}
	warm := runWindow(a.callers, opt.warmup, seq, a.call)
	if warm.oracle != nil {
		a.close()
		return nil, 0, warm.oracle
	}
	if warm.firstErr != nil {
		a.close()
		return nil, 0, fmt.Errorf("warm-up %s: %w", w.name, warm.firstErr)
	}
	return a, time.Since(start).Seconds(), nil
}

// measured is one window plus the counter delta across it.
type measured struct {
	*window
	delta counters
}

// measure runs one closed-loop window on a and checks its books.
func measure(a *armed, dur time.Duration, seq *atomic.Int64, res *result) measured {
	before := a.counters()
	// Start from a collected heap so a window does not inherit the previous
	// phase's garbage.
	runtime.GC()
	w := runWindow(a.callers, dur, seq, a.call)
	d := a.counters().sub(before)
	if w.oracle != nil {
		res.fail(w.oracle)
	} else if err := a.books(d, w); err != nil {
		res.fail(err)
	}
	res.Attempted += w.attempted()
	res.Failed += min(w.attempted(), w.errored+d.degraded())
	if w.firstErr != nil && res.Detail["first_error"] == nil {
		res.Detail["first_error"] = w.firstErr.Error()
	}
	return measured{w, d}
}

// runEndToEnd measures w with tracing off: opt.setups armings (setup_s is the
// system build plus their median), then one measured window on the last.
func runEndToEnd(w workload, sys *system, opt options) (*result, error) {
	res := &result{Workload: w.name, Correct: true, Metrics: map[string]metric{}, Detail: map[string]any{}}
	var seq atomic.Int64
	var arms []float64
	var a *armed
	for i := 0; i < opt.setups; i++ {
		if a != nil {
			a.close()
		}
		var secs float64
		var err error
		if a, secs, err = armAndWarm(w, sys, nil, opt, &seq); err != nil {
			return nil, err
		}
		arms = append(arms, secs)
	}
	defer a.close()
	m := measure(a, opt.window, &seq, res)

	sorted := sortedCopy(m.latencies)
	items := float64(max(m.items, 1))
	res.set("throughput_per_s", m.throughput())
	res.set("latency_p50_ms", percentile(sorted, 50))
	res.set("latency_p95_ms", percentile(sorted, 95))
	res.set("cpu_ms_per_item", float64(m.cpu)/1e6/items)
	res.set("alloc_kb_per_item", float64(m.alloc)/1e3/items)
	res.set("accuracy_pct", 100*m.hits/items)
	res.set("setup_s", sys.buildSeconds+median(arms))
	// Measured and printed, but not in BENCHMARK.json's end_to_end list: both
	// are zero by design on some or all workloads, which the contract's
	// relative bounds cannot gate (see README, "Nine metrics, seven gated").
	res.Detail["uplink_bytes_per_item"] = float64(m.delta.uplinkBytes) / items
	res.Detail["failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))

	res.Detail["latency_samples"] = len(sorted)
	if p, ok := highestPercentile(len(sorted)); ok {
		res.Detail["latency_tail_percentile"] = p
		res.Detail["latency_tail_ms"] = percentile(sorted, p)
	}
	res.Detail["window_s"] = m.wall.Seconds()
	res.Detail["items"] = m.items
	res.Detail["build_s"] = sys.buildSeconds
	res.Detail["arm_s"] = arms
	return res, nil
}
