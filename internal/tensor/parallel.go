package tensor

import (
	"runtime"
	"sync"
)

// maxWorkers bounds the goroutine fan-out of parallel kernels. It defaults
// to GOMAXPROCS and can be lowered for deterministic single-threaded runs.
var maxWorkers = runtime.GOMAXPROCS(0)

// SetParallelism sets the number of worker goroutines used by parallel
// kernels (matmul, convolution). Values < 1 reset to GOMAXPROCS.
// It is intended for test setup and benchmarking, not concurrent use.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	maxWorkers = n
}

// Parallelism reports the current worker count used by parallel kernels.
func Parallelism() int { return maxWorkers }

// ParFor splits [0,n) into contiguous chunks and runs body on each chunk in
// its own goroutine: with w = min(maxWorkers, n), chunks of ceil(n/w)
// indices from 0 up, the last one short, so at most w of them. It waits for
// all chunks to finish. With one worker, or n == 1, it runs inline. It is
// the one fork primitive of the kernels and the layers built on them.
func ParFor(n int, body func(start, end int)) {
	if n <= 0 {
		return
	}
	workers := maxWorkers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			body(s, e)
		}(start, end)
	}
	wg.Wait()
}
