package edge

// Dynamic-membership and heterogeneous-fleet routing tests for MultiClient:
// replicas join and leave mid-run (removal drains, never aborts, and never
// loses counters), features-mode routing skips replicas that advertised no
// tail, the service-time EWMA down-ranks a slow replica without config, and
// Ping consults exclusion windows the same way routing does.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// pingReplica is a scriptReplica with a steerable health probe.
type pingReplica struct {
	scriptReplica
	pingMu  sync.Mutex
	pingErr error
}

func (r *pingReplica) Ping() error {
	r.pingMu.Lock()
	defer r.pingMu.Unlock()
	return r.pingErr
}

// capsReplica is a scriptReplica that advertises capabilities.
type capsReplica struct {
	scriptReplica
	caps  protocol.Capabilities
	known bool
}

func (r *capsReplica) Capabilities() (protocol.Capabilities, bool) { return r.caps, r.known }

// timedReplica advances a shared fake clock on every batch call, simulating
// a replica with a fixed service time as seen by the router's clock.
type timedReplica struct {
	scriptReplica
	clk   *fakeClock
	delay time.Duration
}

func (r *timedReplica) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	r.clk.advance(r.delay)
	return r.scriptReplica.Infer(req)
}

// blockingReplica parks batch calls until released and records Close — the
// probe for drain-not-abort removal semantics.
type blockingReplica struct {
	entered chan struct{}
	release chan struct{}
	mu      sync.Mutex
	closed  bool
}

func (r *blockingReplica) Classify(img *tensor.Tensor) (int, float64, error) {
	r.entered <- struct{}{}
	<-r.release
	return 1, 0.9, nil
}

func (r *blockingReplica) ClassifyBatch(imgs []*tensor.Tensor) ([]int, []float64, error) {
	r.entered <- struct{}{}
	<-r.release
	preds := make([]int, len(imgs))
	confs := make([]float64, len(imgs))
	for i := range preds {
		preds[i], confs[i] = 1, 0.9
	}
	return preds, confs, nil
}

func (r *blockingReplica) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return nil
}

func (r *blockingReplica) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// TestMultiAddReplicaMidRun: a replica joined after construction carries
// traffic, and joining an already-open addr is rejected.
func TestMultiAddReplicaMidRun(t *testing.T) {
	m, reps, _ := newTestMulti(t, 1)
	imgs := testImgs(1)
	if _, _, err := m.ClassifyBatch(imgs); err != nil {
		t.Fatal(err)
	}
	joined := &scriptReplica{}
	if err := m.AddReplica(joined, "10.0.0.9:9400"); err != nil {
		t.Fatal(err)
	}
	// Load the original replica so scoring prefers the newcomer.
	reps[0].mu.Lock()
	reps[0].load, reps[0].haveLoad = protocol.LoadStatus{QueueDepth: 50, Active: 4}, true
	reps[0].mu.Unlock()
	for i := 0; i < 5; i++ {
		if _, _, err := m.ClassifyBatch(imgs); err != nil {
			t.Fatal(err)
		}
	}
	if joined.callCount() == 0 {
		t.Fatal("joined replica never routed to")
	}
	if err := m.AddReplica(&scriptReplica{}, "10.0.0.9:9400"); err == nil {
		t.Fatal("duplicate addr joined twice")
	}
	if got := len(m.ReplicaStats()); got != 2 {
		t.Fatalf("replica stats has %d rows, want 2", got)
	}
}

// TestMultiRemoveReplicaDrains is the drain-not-abort contract: removal
// takes the replica out of the candidate set immediately, but a call already
// in flight on it finishes normally and the transport closes only when that
// call returns. The removed replica's counters survive in ReplicaStats.
func TestMultiRemoveReplicaDrains(t *testing.T) {
	leaving := &blockingReplica{entered: make(chan struct{}, 1), release: make(chan struct{})}
	staying := &scriptReplica{}
	m, err := NewMultiClient([]CloudClient{leaving, staying}, []string{"leaving:1", "staying:1"}, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Load the staying replica so the parked call lands on the leaving one.
	staying.mu.Lock()
	staying.load, staying.haveLoad = protocol.LoadStatus{QueueDepth: 50, Active: 4}, true
	staying.mu.Unlock()

	imgs := testImgs(1)
	done := make(chan error, 1)
	go func() {
		_, _, err := m.ClassifyBatch(imgs)
		done <- err
	}()
	<-leaving.entered

	if err := m.RemoveReplica("leaving:1"); err != nil {
		t.Fatal(err)
	}
	if leaving.isClosed() {
		t.Fatal("removal closed the transport under an in-flight call")
	}
	// New calls must ignore the leaving replica despite the load skew.
	if _, _, err := m.ClassifyBatch(imgs); err != nil {
		t.Fatalf("call after removal: %v", err)
	}
	if staying.callCount() != 1 {
		t.Fatalf("staying replica served %d calls, want 1", staying.callCount())
	}

	close(leaving.release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight call on the draining replica failed: %v", err)
	}
	// noteResult closed the drained transport before the call returned.
	if !leaving.isClosed() {
		t.Fatal("drained removed replica's transport still open")
	}

	st := m.ReplicaStats()
	if len(st) != 2 {
		t.Fatalf("removal compacted the stats: %d rows, want 2", len(st))
	}
	if !st[0].Removed || st[0].Addr != "leaving:1" || st[0].Offloads != 1 {
		t.Fatalf("removed replica lost its history: %+v", st[0])
	}
	if st[1].Removed {
		t.Fatalf("staying replica flagged removed: %+v", st[1])
	}
}

// TestMultiRemoveReplicaValidation: unknown addrs and the last open replica
// are rejected; a removed addr may rejoin as a FRESH entry next to its
// historical row.
func TestMultiRemoveReplicaValidation(t *testing.T) {
	m, _, _ := newTestMulti(t, 2)
	if err := m.RemoveReplica("nope:1"); err == nil {
		t.Fatal("unknown addr removed")
	}
	if err := m.RemoveReplica("10.0.0.0:9400"); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveReplica("10.0.0.1:9400"); err == nil {
		t.Fatal("last open replica removed")
	}
	if err := m.AddReplica(&scriptReplica{}, "10.0.0.0:9400"); err != nil {
		t.Fatalf("rejoin of a removed addr rejected: %v", err)
	}
	if got := len(m.ReplicaStats()); got != 3 {
		t.Fatalf("rejoin should append a fresh row: %d rows, want 3", got)
	}
}

// TestMultiFeaturesSkipsTaillessReplica is the capability-aware routing
// acceptance: with one tail-capable replica open, features-mode calls never
// fail (and never sample the tail-less replica), while raw traffic still
// uses the whole fleet.
func TestMultiFeaturesSkipsTaillessReplica(t *testing.T) {
	tailless := &capsReplica{known: true} // TailCapable false
	capable := &capsReplica{caps: protocol.Capabilities{TailCapable: true}, known: true}
	m, err := NewMultiClient([]CloudClient{tailless, capable}, []string{"notail:1", "tail:1"}, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	feats := testImgs(2)
	for i := 0; i < 10; i++ {
		if _, _, err := m.ClassifyFeaturesBatch(feats); err != nil {
			t.Fatalf("features call %d failed although a tail-capable replica is open: %v", i, err)
		}
	}
	if n := tailless.callCount(); n != 0 {
		t.Fatalf("tail-less replica sampled %d times for features calls", n)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := m.ClassifyBatch(feats); err != nil {
			t.Fatal(err)
		}
	}
	if tailless.callCount() == 0 {
		t.Fatal("tail-less replica starved of raw traffic")
	}

	st := m.ReplicaStats()
	if !st[0].CapsKnown || st[0].TailCapable || !st[1].CapsKnown || !st[1].TailCapable {
		t.Fatalf("capability matrix wrong: %+v", st)
	}
}

// TestMultiFeaturesNoCapableReplica: a fleet with no tail anywhere fails a
// features call with a PLAIN error (a capability mismatch is configuration,
// not congestion — no fabricated shed hold) and burns no exclusion windows:
// the very next raw call must still succeed on the first attempt.
func TestMultiFeaturesNoCapableReplica(t *testing.T) {
	rep := &capsReplica{known: true}
	m, err := NewMultiClient([]CloudClient{rep}, nil, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	imgs := testImgs(1)
	_, _, ferr := m.ClassifyFeaturesBatch(imgs)
	if ferr == nil {
		t.Fatal("features call succeeded on a tail-less fleet")
	}
	if errors.Is(ferr, protocol.ErrShed) {
		t.Fatalf("capability mismatch surfaced as a shed: %v", ferr)
	}
	if rep.callCount() != 0 {
		t.Fatalf("tail-less replica was called %d times by a features call", rep.callCount())
	}
	if _, _, err := m.ClassifyBatch(imgs); err != nil {
		t.Fatalf("raw call after the features miss: %v", err)
	}
}

// TestMultiWeightedRoutingDownranksSlowReplica: a replica six times slower
// (as observed by the service-time EWMA, no static config) stops winning p2c
// comparisons once both replicas have linkest.ServiceMinSamples — while two
// equally fast replicas keep splitting the traffic roughly in half, so only
// the observed service time steers.
func TestMultiWeightedRoutingDownranksSlowReplica(t *testing.T) {
	run := func(fastDelay, slowDelay time.Duration) (fast, slow int) {
		clk := newFakeClock()
		fastR := &timedReplica{clk: clk, delay: fastDelay}
		slowR := &timedReplica{clk: clk, delay: slowDelay}
		m, err := NewMultiClient(
			[]CloudClient{fastR, slowR},
			[]string{"fast:1", "slow:1"},
			MultiConfig{},
		)
		if err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		m.now = clk.now
		m.mu.Unlock()
		imgs := testImgs(1)
		// Warmup: with flat scores the seeded sampler splits ~50/50, so both
		// replicas pass linkest.ServiceMinSamples well within 30 calls.
		for i := 0; i < 30; i++ {
			if _, _, err := m.ClassifyBatch(imgs); err != nil {
				t.Fatal(err)
			}
		}
		f0, s0 := fastR.callCount(), slowR.callCount()
		for i := 0; i < 50; i++ {
			if _, _, err := m.ClassifyBatch(imgs); err != nil {
				t.Fatal(err)
			}
		}
		return fastR.callCount() - f0, slowR.callCount() - s0
	}
	fastW, slowW := run(10*time.Millisecond, 60*time.Millisecond)
	if slowW != 0 {
		t.Fatalf("weighted routing still sent %d/%d calls to the slow replica", slowW, fastW+slowW)
	}
	fastE, slowE := run(10*time.Millisecond, 10*time.Millisecond)
	if fastE < 10 || slowE < 10 {
		t.Fatalf("equally fast replicas should split broadly evenly, got %d/%d", fastE, slowE)
	}
}

// TestMultiLastOpenShedAfterFailureStaysFailure pins the mixed-outage
// bookkeeping when the LAST open replica sheds after an earlier transport
// failure in the same routed call: the synthesized error is non-shed
// (CloudFailed accounting), the failure's short window is not stretched to
// the shed's horizon, and the shed's long window is not shortened either.
func TestMultiLastOpenShedAfterFailureStaysFailure(t *testing.T) {
	m, reps, clk := newTestMulti(t, 2)
	// Load replica 1 so the first attempt hits replica 0, which fails on
	// transport; the failover then sheds on replica 1 — the last open one.
	reps[1].mu.Lock()
	reps[1].load, reps[1].haveLoad = protocol.LoadStatus{QueueDepth: 50, Active: 4}, true
	reps[1].mu.Unlock()
	reps[0].set(nil, errors.New("conn reset"))
	reps[1].set(&protocol.ShedError{RetryAfter: time.Hour}, nil)

	_, _, err := m.ClassifyBatch(testImgs(1))
	if err == nil {
		t.Fatal("mixed failure+shed outage succeeded")
	}
	if errors.Is(err, protocol.ErrShed) {
		t.Fatalf("failure-then-shed outage surfaced as a fleet-wide shed: %v", err)
	}
	if reps[0].callCount() != 1 || reps[1].callCount() != 1 {
		t.Fatalf("attempt counts wrong: %d/%d", reps[0].callCount(), reps[1].callCount())
	}

	// Window bookkeeping: replica 0's 250ms failure window reopens on time
	// (the shed must not have stretched it), replica 1 stays out for the
	// rest of its hour (nothing may shorten it).
	reps[0].set(nil, nil)
	reps[1].set(nil, nil)
	clk.advance(300 * time.Millisecond)
	if _, _, err := m.ClassifyBatch(testImgs(1)); err != nil {
		t.Fatalf("call after the failure window reopened: %v", err)
	}
	if reps[1].callCount() != 1 {
		t.Fatal("shed window shortened: excluded replica routed to again")
	}
	if reps[0].callCount() != 2 {
		t.Fatalf("reopened replica not routed to: %d calls", reps[0].callCount())
	}
}

// TestMultiPingConsultsExclusions is the satellite regression: Ping must
// probe the replicas routing would consider, so a dead replica does not
// report a healthy fleet as down, and an all-excluded fleet reads as down
// even while its transports still pong.
func TestMultiPingConsultsExclusions(t *testing.T) {
	// One dead, one healthy, both open: the fleet can serve — Ping nil.
	dead := &pingReplica{pingErr: errors.New("conn refused")}
	alive := &pingReplica{}
	m, err := NewMultiClient([]CloudClient{dead, alive}, []string{"dead:1", "alive:1"}, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Ping(); err != nil {
		t.Fatalf("fleet with a live open replica reported down: %v", err)
	}

	// Every open replica's probe fails: the fleet is down, errors joined.
	alive.pingMu.Lock()
	alive.pingErr = errors.New("conn refused")
	alive.pingMu.Unlock()
	if err := m.Ping(); err == nil {
		t.Fatal("fleet with no pingable replica reported healthy")
	}

	// All replicas shed-excluded: route would serve nothing, so Ping must
	// say down even though the transports would pong happily.
	p0, p1 := &pingReplica{}, &pingReplica{}
	m2, err := NewMultiClient([]CloudClient{p0, p1}, []string{"a:1", "b:1"}, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p0.set(&protocol.ShedError{RetryAfter: time.Hour}, nil)
	p1.set(&protocol.ShedError{RetryAfter: time.Hour}, nil)
	if _, _, err := m2.ClassifyBatch(testImgs(1)); !errors.Is(err, protocol.ErrShed) {
		t.Fatalf("all-shed fleet: %v", err)
	}
	if err := m2.Ping(); err == nil {
		t.Fatal("all-excluded fleet reported healthy because its transports pong")
	}

	// A removed replica is not probed: only the dead one remains relevant...
	// rather, removing the healthy replica's peer must not change health.
	if err := m2.RemoveReplica("a:1"); err != nil {
		t.Fatal(err)
	}
	if err := m2.Ping(); err == nil {
		t.Fatal("excluded+removed fleet reported healthy")
	}
}
