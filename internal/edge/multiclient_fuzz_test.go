package edge

// FuzzMultiRoute adds the multi-replica routing state to the fuzz surface:
// random schedules of clock advances and per-replica outcomes (success, shed
// with varying retry-after, transport failure) drive a MultiClient while a
// reference model of the exclusion windows is replayed next to it. The
// invariants are the ones the unit tests pin pointwise, checked over
// arbitrary interleavings: an excluded replica is never routed to while its
// window is live, no replica is tried twice within one routed call, a call
// with at least one open replica makes progress, and the all-excluded
// degradation surfaces as a shed if and only if every live window was opened
// by sheds alone.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// routeLog records the order replicas were called in (shared by the fuzz
// replicas).
type routeLog struct {
	mu    sync.Mutex
	calls []int
}

func (l *routeLog) note(i int) {
	l.mu.Lock()
	l.calls = append(l.calls, i)
	l.mu.Unlock()
}

func FuzzMultiRoute(f *testing.F) {
	f.Add([]byte{0x00, 0x1b, 0x10, 0xe4, 0x40, 0x00, 0x05, 0xff})
	f.Add([]byte{0xaa, 0xaa, 0xaa, 0xaa, 0x55, 0x55})
	f.Add([]byte{})
	// Regression: a transport failure on replica 0 followed by sheds on the
	// last open replicas in the SAME routed call — the synthesized error must
	// stay non-shed, and later sheds must never shorten the failure window
	// (step 2 runs all-excluded, step 3 reopens only the shed replicas).
	f.Add([]byte{0x00, 0xab, 0x05, 0x00, 0x1e, 0xa8})
	f.Fuzz(func(t *testing.T, script []byte) {
		const n = 4
		log := &routeLog{}
		reps := make([]*scriptReplica, n)
		clients := make([]CloudClient, n)
		for i := range reps {
			i := i
			reps[i] = &scriptReplica{}
			clients[i] = loggedReplica{inner: reps[i], index: i, log: log}
		}
		m, err := NewMultiClient(clients, nil, MultiConfig{})
		if err != nil {
			t.Fatal(err)
		}
		clk := newFakeClock()
		m.mu.Lock()
		m.now = clk.now
		m.mu.Unlock()

		// Reference model of the exclusion state, updated with the same
		// rules the client documents.
		var until [n]time.Time
		var shedOnly [n]bool
		exclude := func(i int, d time.Duration, shed bool) {
			now := clk.now()
			active := now.Before(until[i])
			if u := now.Add(d); u.After(until[i]) {
				until[i] = u
			}
			if active {
				shedOnly[i] = shedOnly[i] && shed
			} else {
				shedOnly[i] = shed
			}
		}

		img := testImgs(1)[0]
		for step := 0; step+1 < len(script); step += 2 {
			clk.advance(time.Duration(script[step]) * time.Millisecond)
			// Two outcome bits per replica: 0/1 success, 2 shed, 3 failure.
			outcomes := script[step+1]
			retryAfter := time.Duration(script[step]%3+1) * 20 * time.Millisecond
			for i := 0; i < n; i++ {
				switch (outcomes >> (2 * i)) & 3 {
				case 2:
					reps[i].set(&protocol.ShedError{RetryAfter: retryAfter}, nil)
				case 3:
					reps[i].set(nil, errors.New("fuzz: transport down"))
				default:
					reps[i].set(nil, nil)
				}
			}

			openAtEntry := 0
			for i := 0; i < n; i++ {
				if !clk.now().Before(until[i]) {
					openAtEntry++
				}
			}
			before := len(log.calls)
			_, _, err := m.Classify(img)
			called := log.calls[before:]

			// Replay the calls against the model in order, checking each
			// target was open when it was picked.
			seen := make(map[int]bool, len(called))
			for _, i := range called {
				if seen[i] {
					t.Fatalf("replica %d tried twice in one routed call (calls %v)", i, called)
				}
				seen[i] = true
				if clk.now().Before(until[i]) {
					t.Fatalf("routed to replica %d during its exclusion window (opens %v, now %v)",
						i, until[i], clk.now())
				}
				switch (outcomes >> (2 * i)) & 3 {
				case 2:
					exclude(i, retryAfter, true)
				case 3:
					exclude(i, defaultFailureExclusion, false)
				}
			}
			if openAtEntry > 0 && len(called) == 0 {
				t.Fatalf("no replica tried although %d were open", openAtEntry)
			}
			if openAtEntry == 0 && len(called) != 0 {
				t.Fatalf("replicas %v tried although all were excluded", called)
			}
			if err != nil {
				// The degraded error is a shed exactly when every live
				// window consists of sheds alone.
				allShed := true
				for i := 0; i < n; i++ {
					if clk.now().Before(until[i]) && !shedOnly[i] {
						allShed = false
					}
				}
				open := 0
				for i := 0; i < n; i++ {
					if !clk.now().Before(until[i]) {
						open++
					}
				}
				if open == 0 && errors.Is(err, protocol.ErrShed) != allShed {
					t.Fatalf("degraded error kind wrong: shed=%v, want %v (err %v)",
						errors.Is(err, protocol.ErrShed), allShed, err)
				}
			}
		}
	})
}

// loggedReplica wraps a scriptReplica to record routing order.
type loggedReplica struct {
	inner *scriptReplica
	index int
	log   *routeLog
}

func (r loggedReplica) Classify(img *tensor.Tensor) (int, float64, error) {
	r.log.note(r.index)
	return r.inner.Classify(img)
}

func (r loggedReplica) ClassifyBatch(imgs []*tensor.Tensor) ([]int, []float64, error) {
	r.log.note(r.index)
	return r.inner.ClassifyBatch(imgs)
}

func (r loggedReplica) Close() error { return nil }
