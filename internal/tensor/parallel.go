package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers is the number of chunks a parallel kernel splits its work
// into. It defaults to GOMAXPROCS at start-up and can be lowered for
// deterministic single-threaded runs. It fixes the chunk boundaries, and so
// every result's bits; how many of the chunks run at once is capped again at
// fork time (see ParFor).
var maxWorkers = runtime.GOMAXPROCS(0)

// helpers counts the goroutines ParFor has started that are still running a
// chunk, process-wide.
var helpers atomic.Int32

// SetParallelism sets the number of chunks parallel kernels (matmul,
// convolution, the layers' per-sample loops) split their work into. Values
// < 1 reset to GOMAXPROCS. Fewer than n chunks run at once when GOMAXPROCS
// is below n or other forks hold the helpers. It is intended for test setup
// and benchmarking, not concurrent use.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	maxWorkers = n
}

// Parallelism reports the current worker count used by parallel kernels.
func Parallelism() int { return maxWorkers }

// ParFor splits [0,n) into contiguous chunks and runs body once per chunk:
// with w = min(maxWorkers, n), chunks of ceil(n/w) indices from 0 up, the
// last one short, so at most w of them. It returns when every chunk has
// finished. It is the one fork primitive of the kernels and the layers built
// on them.
//
// The chunks are fixed; who runs them is not. The caller hands chunks 1, 2,
// … to helper goroutines while fewer than min(maxWorkers, GOMAXPROCS) − 1
// helpers run process-wide, then runs chunk 0 and every chunk it could not
// hand off itself, in ascending order. It never waits for a helper to free
// up, so a ParFor nested inside a chunk, or issued while other goroutines'
// forks hold the helpers, runs inline instead of oversubscribing the CPUs or
// deadlocking, and a fork that finds no helper allocates nothing.
func ParFor(n int, body func(start, end int)) {
	if n <= 0 {
		return
	}
	workers := min(maxWorkers, n)
	if workers <= 1 {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	limit := int32(min(maxWorkers, runtime.GOMAXPROCS(0)) - 1)
	var wg *sync.WaitGroup
	handed := chunk // chunks [chunk, handed) went to helpers
	for ; handed < n && takeHelper(limit); handed += chunk {
		if wg == nil {
			wg = new(sync.WaitGroup)
		}
		wg.Add(1)
		go runHelper(wg, body, handed, min(handed+chunk, n))
	}
	body(0, chunk)
	for start := handed; start < n; start += chunk {
		body(start, min(start+chunk, n))
	}
	if wg != nil {
		wg.Wait()
	}
}

// runHelper runs one chunk on a helper goroutine and releases its slot.
func runHelper(wg *sync.WaitGroup, body func(start, end int), start, end int) {
	defer func() {
		helpers.Add(-1)
		wg.Done()
	}()
	body(start, end)
}

// takeHelper reserves one of limit helper slots, reporting false when all
// are taken.
func takeHelper(limit int32) bool {
	for {
		h := helpers.Load()
		if h >= limit {
			return false
		}
		if helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}
