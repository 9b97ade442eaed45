package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chunkLog records the chunks a ParFor body saw.
type chunkLog struct {
	mu     sync.Mutex
	chunks [][2]int
}

func (l *chunkLog) add(s, e int) {
	l.mu.Lock()
	l.chunks = append(l.chunks, [2]int{s, e})
	l.mu.Unlock()
}

// check reports an error unless the logged chunks are exactly ParFor's
// documented ones for n at the current worker count, each seen once:
// ceil(n/w) indices from 0 up with w = min(maxWorkers, n), the last one
// short.
func (l *chunkLog) check(n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := make(map[[2]int]int)
	for _, c := range l.chunks {
		seen[c]++
	}
	want := 0
	if n > 0 {
		w := min(maxWorkers, n)
		size := (n + w - 1) / w
		for s := 0; s < n; s += size {
			c := [2]int{s, min(s+size, n)}
			if seen[c] != 1 {
				return fmt.Errorf("chunk %v ran %d times, want once (log %v)", c, seen[c], l.chunks)
			}
			want++
		}
	}
	if len(l.chunks) != want {
		return fmt.Errorf("%d chunks ran, want %d (log %v)", len(l.chunks), want, l.chunks)
	}
	return nil
}

// gauge tracks how many leaf bodies run at once and the most it has seen.
type gauge struct{ now, peak atomic.Int32 }

func (g *gauge) enter() {
	v := g.now.Add(1)
	for p := g.peak.Load(); v > p && !g.peak.CompareAndSwap(p, v); p = g.peak.Load() {
	}
}

func (g *gauge) leave() { g.now.Add(-1) }

// leaf is a body that holds its chunk long enough for helpers to overlap.
func (g *gauge) leaf(log *chunkLog) func(s, e int) {
	return func(s, e int) {
		g.enter()
		time.Sleep(100 * time.Microsecond)
		g.leave()
		log.add(s, e)
	}
}

// nestedFor runs an outer ParFor over n whose every chunk issues an inner
// ParFor over m, and checks both levels' chunks.
func nestedFor(g *gauge, n, m int) error {
	var outer chunkLog
	inner := make([]chunkLog, n)
	ParFor(n, func(s, e int) {
		outer.add(s, e)
		ParFor(m, g.leaf(&inner[s]))
	})
	if err := outer.check(n); err != nil {
		return fmt.Errorf("outer: %w", err)
	}
	for i := range inner {
		if len(inner[i].chunks) == 0 {
			continue // not a chunk start
		}
		if err := inner[i].check(m); err != nil {
			return fmt.Errorf("inner of the chunk at %d: %w", i, err)
		}
	}
	return nil
}

// TestParForContract pins what every kernel relies on, at 1, 2, 3 and 8
// workers, with GOMAXPROCS raised to 8 so the helper cap is the worker
// count: every index is visited exactly once in the documented chunks; a
// ParFor nested inside a chunk completes and never has more than maxWorkers
// bodies running at once; and 8 goroutines issuing nested forks at once
// finish without deadlock, with at most callers + maxWorkers − 1 bodies
// running. It runs in the short suite, so CI runs it under -race.
func TestParForContract(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	defer SetParallelism(Parallelism())
	for _, workers := range []int{1, 2, 3, 8} {
		SetParallelism(workers)
		for _, n := range []int{0, 1, 2, 3, 5, 7, 8, 16, 17, 64} {
			var log chunkLog
			ParFor(n, log.add)
			if err := log.check(n); err != nil {
				t.Fatalf("workers %d n %d: %v", workers, n, err)
			}
		}

		var g gauge
		if err := nestedFor(&g, 7, 5); err != nil {
			t.Fatalf("workers %d nested: %v", workers, err)
		}
		if p := g.peak.Load(); p > int32(workers) {
			t.Fatalf("workers %d: %d nested bodies ran at once, want ≤ %d", workers, p, workers)
		}

		const callers = 8
		var (
			many gauge
			wg   sync.WaitGroup
		)
		errs := make([]error, callers)
		done := make(chan struct{})
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				errs[c] = nestedFor(&many, 4+c, 3+c)
			}(c)
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("workers %d: %d concurrent nested forks did not finish", workers, callers)
		}
		for c, err := range errs {
			if err != nil {
				t.Fatalf("workers %d caller %d: %v", workers, c, err)
			}
		}
		if p, limit := many.peak.Load(), int32(callers+workers-1); p > limit {
			t.Fatalf("workers %d: %d bodies ran at once under %d callers, want ≤ %d", workers, p, callers, limit)
		}
		if h := helpers.Load(); h != 0 {
			t.Fatalf("workers %d: %d helpers still counted after every fork returned", workers, h)
		}
	}
}

// TestParForOneProcRunsInlineInOrder: under GOMAXPROCS 1 no helper may be
// taken whatever SetParallelism says, so the caller runs every chunk itself,
// in ascending order, with the chunk boundaries (and so the bits) of the
// configured worker count, and allocates nothing doing so.
func TestParForOneProcRunsInlineInOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer SetParallelism(Parallelism())
	SetParallelism(4)
	var (
		got    [][2]int
		helped bool
	)
	body := func(s, e int) {
		helped = helped || helpers.Load() != 0
		got = append(got, [2]int{s, e})
	}
	ParFor(10, body)
	want := [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("chunks ran as %v, want %v on the caller in order", got, want)
	}
	if helped {
		t.Fatal("a chunk ran while a helper was counted under GOMAXPROCS 1")
	}
	noop := func(s, e int) {}
	if a := testing.AllocsPerRun(100, func() { ParFor(10, noop) }); a != 0 {
		t.Fatalf("inline ParFor allocates %.1f times per call, want 0", a)
	}
}
