package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// callFunc performs request number seq of a workload (seq picks the batch)
// and checks the reply against the oracle. It returns the items the call
// completed and how many of them matched their label (a fraction where the
// call's accuracy is measured on other data than its items: train-edge). A
// transport error is err; a wrong answer is an *oracleError and ends the run.
type callFunc func(seq int64) (items int, hits float64, err error)

// oracleError reports the first reply that disagreed with the oracle.
type oracleError struct{ msg string }

func (e *oracleError) Error() string { return e.msg }

func oracleErrorf(format string, args ...any) error {
	return &oracleError{msg: fmt.Sprintf(format, args...)}
}

// window is one closed-loop measurement: callers goroutines each issue their
// next call only after the previous one returned, for dur.
type window struct {
	wall      time.Duration
	seqFrom   int64 // requests [seqFrom, seqTo) were attempted, each once
	seqTo     int64
	items     int64
	hits      float64
	errored   int64     // calls that returned a transport error (no latency sample)
	latencies []float64 // ms, one per successful call, unsorted
	cpu       time.Duration
	alloc     uint64 // MemStats.TotalAlloc delta
	gcCycles  uint32
	gcPause   time.Duration
	firstErr  error // first transport error, for the report
	oracle    error // first oracle mismatch; the window stops on it
}

func (w *window) attempted() int64 { return w.seqTo - w.seqFrom }

func (w *window) throughput() float64 { return float64(w.items) / w.wall.Seconds() }

// runWindow drives call from callers goroutines for dur. seq is the shared
// request counter, continued across windows so the stream position carries
// over from warm-up to measurement.
func runWindow(callers int, dur time.Duration, seq *atomic.Int64, call callFunc) *window {
	w := &window{seqFrom: seq.Load()}
	perCaller := make([][]float64, callers)
	callerHits := make([]float64, callers)
	var items, errored atomic.Int64
	var stop atomic.Bool
	var errMu sync.Mutex

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(dur)

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := make([]float64, 0, 4096)
			for !stop.Load() && time.Now().Before(deadline) {
				s := seq.Add(1) - 1
				t0 := time.Now()
				n, h, err := call(s)
				d := time.Since(t0)
				if err != nil {
					errMu.Lock()
					if oe, ok := err.(*oracleError); ok {
						if w.oracle == nil {
							w.oracle = oe
						}
						stop.Store(true)
					} else if w.firstErr == nil {
						w.firstErr = err
					}
					errMu.Unlock()
					errored.Add(1)
					continue
				}
				items.Add(int64(n))
				callerHits[c] += h
				lat = append(lat, float64(d)/float64(time.Millisecond))
			}
			perCaller[c] = lat
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(start)
	w.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)

	w.seqTo = seq.Load()
	w.items, w.errored = items.Load(), errored.Load()
	for c, lat := range perCaller {
		w.latencies = append(w.latencies, lat...)
		w.hits += callerHits[c]
	}
	w.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return w
}

// processCPU is the process's user+system CPU time so far (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[min(max(rankOf(len(sorted), p), 1), len(sorted))-1]
}

// rankOf is the nearest-rank position of the p-th percentile among n sorted
// samples: ceil(p/100 · n), guarded against p/100·n landing a hair above an
// integer in floating point.
func rankOf(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailPercentiles are the candidates for "the highest percentile the sample
// supports", lowest first.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// highestPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it, so the reported tail is never a single
// outlier. ok is false when even the median is not supported (n < 20).
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if n-rankOf(n, c) >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// memSampler polls MemStats at 10 Hz for the traced pass's runtime.* layer
// metrics. ReadMemStats stops the world, which is why the untraced window
// never runs one.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // HeapInuse high-water mark
}

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			s.peak = max(s.peak, ms.HeapInuse)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak heap in use, in MB.
func (s *memSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}
