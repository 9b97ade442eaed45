package edge

// MultiClient routing tests: shed replicas are skipped until their
// retry-after expires, power-of-two-choices never picks an excluded replica
// while an open one exists, transport failures fail over with a temporary
// exclusion, and the all-replicas-shed case degrades to the single-cloud
// edge-hold behavior (zero charges) at the runtime.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// fakeClock is the injectable time source for exclusion-window tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// scriptReplica is a steerable fake replica: each call consumes the
// configured outcome (shed, transport failure, or success) and is counted.
// Load and link estimates are settable so tests can steer the p2c scores. It
// advertises what it serves: classify traffic, raw and features, no chain.
type scriptReplica struct {
	NoWire
	mu       sync.Mutex
	shed     *ShedError // non-nil: answer calls with this shed
	fail     error      // non-nil: answer calls with this transport error
	calls    int
	load     protocol.LoadStatus
	haveLoad bool
	est      linkest.Estimate
}

func (r *scriptReplica) outcome() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	if r.shed != nil {
		return r.shed
	}
	return r.fail
}

func (r *scriptReplica) callCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

func (r *scriptReplica) set(shed *ShedError, fail error) {
	r.mu.Lock()
	r.shed, r.fail = shed, fail
	r.mu.Unlock()
}

func (r *scriptReplica) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	if err := r.outcome(); err != nil {
		return protocol.InferReply{}, err
	}
	reply := protocol.InferReply{Results: make([]protocol.Result, req.Instances())}
	for i := range reply.Results {
		reply.Results[i] = protocol.Result{Pred: 1, Conf: 0.9}
	}
	return reply, nil
}

func (r *scriptReplica) Classify(img *tensor.Tensor) (int, float64, error) {
	return calls{r.Infer}.Classify(img)
}

func (r *scriptReplica) ClassifyBatch(imgs []*tensor.Tensor) ([]int, []float64, error) {
	return calls{r.Infer}.ClassifyBatch(imgs)
}

func (r *scriptReplica) Capabilities() (protocol.Capabilities, bool) {
	return protocol.Capabilities{TailCapable: true}, true
}

func (r *scriptReplica) CloudLoad() (protocol.LoadStatus, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.load, r.haveLoad
}

func (r *scriptReplica) LinkEstimate() linkest.Estimate {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.est
}

// newTestMulti builds a MultiClient over n scripted replicas on a fake clock.
func newTestMulti(t *testing.T, n int) (*MultiClient, []*scriptReplica, *fakeClock) {
	t.Helper()
	reps := make([]*scriptReplica, n)
	clients := make([]CloudClient, n)
	addrs := make([]string, n)
	for i := range reps {
		reps[i] = &scriptReplica{}
		clients[i] = reps[i]
		addrs[i] = fmt.Sprintf("10.0.0.%d:9400", i)
	}
	m, err := NewMultiClient(clients, addrs, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m.mu.Lock()
	m.now = clk.now
	m.mu.Unlock()
	return m, reps, clk
}

func testImgs(n int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(7))
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 1, 3, 8, 8)
	}
	return imgs
}

// TestMultiShedExclusionWindow pins the retry-after contract: a shed replica
// is skipped for exactly its hint, then rejoins the candidate set.
func TestMultiShedExclusionWindow(t *testing.T) {
	m, reps, clk := newTestMulti(t, 2)
	// Replica 1 reads as heavily loaded, so scoring sends the first call to
	// replica 0 — which sheds for 100ms.
	reps[1].mu.Lock()
	reps[1].load, reps[1].haveLoad = protocol.LoadStatus{QueueDepth: 50, Active: 4}, true
	reps[1].mu.Unlock()
	reps[0].set(&ShedError{RetryAfter: 100 * time.Millisecond}, nil)

	imgs := testImgs(3)
	if _, _, err := m.ClassifyBatch(imgs); err != nil {
		t.Fatalf("failover after shed: %v", err)
	}
	if reps[0].callCount() != 1 || reps[1].callCount() != 1 {
		t.Fatalf("want 1 call each (shed then failover), got %d/%d",
			reps[0].callCount(), reps[1].callCount())
	}
	reps[0].set(nil, nil) // replica 0 would now succeed — but it is excluded

	// Inside the window every call must go to replica 1 despite its load.
	for i := 0; i < 5; i++ {
		clk.advance(15 * time.Millisecond) // 5×15 = 75ms < 100ms
		if _, _, err := m.ClassifyBatch(imgs); err != nil {
			t.Fatal(err)
		}
	}
	if got := reps[0].callCount(); got != 1 {
		t.Fatalf("excluded replica was routed to %d extra times before retry-after expired", got-1)
	}

	// Past the window, replica 0 (score: no load) must win again.
	clk.advance(30 * time.Millisecond) // total 105ms > 100ms
	if _, _, err := m.ClassifyBatch(imgs); err != nil {
		t.Fatal(err)
	}
	if got := reps[0].callCount(); got != 2 {
		t.Fatalf("reopened replica not routed to after retry-after expired (calls %d)", got)
	}

	stats := m.ReplicaStats()
	if stats[0].Sheds != 1 || stats[0].Offloads != 1 || stats[1].Offloads != 6 {
		t.Fatalf("replica stats wrong: %+v", stats)
	}
}

// TestMultiP2CNeverPicksExcluded hammers pick() directly: with two of three
// replicas excluded, the sampler must return the open one every time.
func TestMultiP2CNeverPicksExcluded(t *testing.T) {
	m, reps, _ := newTestMulti(t, 3)
	reps[0].set(&ShedError{RetryAfter: time.Hour}, nil)
	reps[2].set(nil, errors.New("conn reset"))
	// One call excludes replica 0 (shed) and replica 2 (failure): steer the
	// first two attempts onto them by loading replica 1.
	reps[1].mu.Lock()
	reps[1].load, reps[1].haveLoad = protocol.LoadStatus{QueueDepth: 50}, true
	reps[1].mu.Unlock()
	if _, _, err := m.ClassifyBatch(testImgs(2)); err != nil {
		t.Fatal(err)
	}
	stats := m.ReplicaStats()
	if !stats[0].Excluded || !stats[2].Excluded || stats[1].Excluded {
		t.Fatalf("exclusion state wrong after shed+failure: %+v", stats)
	}
	for i := 0; i < 500; i++ {
		got, ok := m.pick(nil, protocol.RepRaw)
		if !ok || got.addr != "10.0.0.1:9400" {
			t.Fatalf("pick %d chose replica %+v (ok=%v), want the only open replica 1", i, got, ok)
		}
		m.release(got) // pick raises the inflight hold; callers must pair it
	}
}

// TestMultiFailoverOnTransportError: a dying replica costs one failed call,
// then the batch lands on a healthy one; the dead replica sits out
// FailureExclusion and is retried after.
func TestMultiFailoverOnTransportError(t *testing.T) {
	m, reps, clk := newTestMulti(t, 2)
	reps[1].mu.Lock()
	reps[1].load, reps[1].haveLoad = protocol.LoadStatus{QueueDepth: 50}, true
	reps[1].mu.Unlock()
	reps[0].set(nil, errors.New("broken pipe"))

	if _, _, err := m.ClassifyBatch(testImgs(2)); err != nil {
		t.Fatalf("failover after transport error: %v", err)
	}
	stats := m.ReplicaStats()
	if stats[0].Failures != 1 || !stats[0].Excluded || stats[1].Offloads != 1 {
		t.Fatalf("failover accounting wrong: %+v", stats)
	}
	// The replica heals; after FailureExclusion it carries traffic again.
	reps[0].set(nil, nil)
	clk.advance(251 * time.Millisecond)
	if _, _, err := m.ClassifyBatch(testImgs(2)); err != nil {
		t.Fatal(err)
	}
	if got := m.ReplicaStats()[0].Offloads; got != 1 {
		t.Fatalf("healed replica not rejoined: %d offloads", got)
	}
}

// TestMultiAllFailedIsNotShed: when transports (not admission control) took
// every replica out, the surfaced error must NOT read as a shed — those
// instances are CloudFailed fallbacks with retries, not a zero-charge hold.
func TestMultiAllFailedIsNotShed(t *testing.T) {
	m, reps, _ := newTestMulti(t, 2)
	reps[0].set(nil, errors.New("conn reset"))
	reps[1].set(nil, errors.New("conn reset"))
	_, _, err := m.ClassifyBatch(testImgs(2))
	if err == nil {
		t.Fatal("all replicas failed but the call succeeded")
	}
	if errors.Is(err, ErrShed) {
		t.Fatalf("transport outage surfaced as a shed: %v", err)
	}
	// With every replica now excluded by failures, the immediate next call
	// must also fail fast as a NON-shed error.
	if _, _, err := m.ClassifyBatch(testImgs(2)); err == nil || errors.Is(err, ErrShed) {
		t.Fatalf("failure-excluded fleet surfaced as a shed: %v", err)
	}
	if c := reps[0].callCount() + reps[1].callCount(); c != 2 {
		t.Fatalf("excluded replicas were called again: %d total calls, want 2", c)
	}
}

// multiRuntimeFixture builds a runtime whose cloud client is a MultiClient
// over scripted replicas, with an untrained MEANet (high entropy, so a
// modest threshold offloads everything).
func multiRuntimeFixture(t *testing.T, n int) (*Runtime, []*scriptReplica, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	backbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "multi", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.BuildMEANetA(rng, backbone, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*scriptReplica, n)
	clients := make([]CloudClient, n)
	for i := range reps {
		reps[i] = &scriptReplica{}
		clients[i] = reps[i]
	}
	mc, err := NewMultiClient(clients, nil, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cost := &CostParams{
		Compute:    energy.EdgeGPUCIFAR(),
		WiFi:       energy.DefaultWiFi(),
		ImageBytes: 4 * 3 * 16 * 16,
	}
	rt, err := NewRuntime(net, core.Policy{Threshold: 0, UseCloud: true, CloudRetries: 3}, mc, cost)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 4, 3, 16, 16)
	return rt, reps, x
}

// TestMultiAllShedDegradesToEdgeHold is the PR-5 degradation contract at the
// runtime: every replica sheds → all instances take the edge fallback with
// ZERO upload charges and no retry burn, and the hold keeps the next batch
// off the transports entirely.
func TestMultiAllShedDegradesToEdgeHold(t *testing.T) {
	rt, reps, x := multiRuntimeFixture(t, 3)
	for _, r := range reps {
		r.set(&ShedError{RetryAfter: 5 * time.Second}, nil)
	}
	decisions, err := rt.Classify(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decisions {
		if !d.Shed || d.Exit == core.ExitCloud || d.CloudAttempts != 0 || d.CloudFailed {
			t.Fatalf("instance %d after fleet-wide shed: %+v (want Shed, edge exit, 0 attempts)", i, d)
		}
	}
	calls := 0
	for _, r := range reps {
		calls += r.callCount()
	}
	if calls != 3 {
		t.Fatalf("fleet-wide shed burned retries: %d replica calls, want 3 (one per replica)", calls)
	}
	rep := rt.Report()
	if rep.BytesSent != 0 || rep.Energy.CommJ != 0 {
		t.Fatalf("shed hold charged uploads: %d bytes, %v J comm", rep.BytesSent, rep.Energy.CommJ)
	}
	if rep.ShedEvents != 1 || rep.ShedFallbacks != len(decisions) {
		t.Fatalf("shed accounting: %d events, %d fallbacks, want 1 and %d",
			rep.ShedEvents, rep.ShedFallbacks, len(decisions))
	}
	if len(rep.Replicas) != 3 {
		t.Fatalf("Report.Replicas has %d entries, want 3", len(rep.Replicas))
	}
	// The RetryAfter hold: the very next batch must not touch any replica.
	if _, err := rt.Classify(x); err != nil {
		t.Fatal(err)
	}
	after := 0
	for _, r := range reps {
		after += r.callCount()
	}
	if after != calls {
		t.Fatalf("hold not honored: %d replica calls during the retry-after window, want 0", after-calls)
	}
}

// TestMultiMixedShedAndFailure: a mixed outage (one replica sheds, the other
// dies) must surface as the LAST failure's kind and never fabricate a
// fleet-wide shed hold out of transport errors.
func TestMultiMixedShedAndFailure(t *testing.T) {
	m, reps, _ := newTestMulti(t, 2)
	reps[0].set(&ShedError{RetryAfter: time.Hour}, nil)
	reps[1].set(nil, errors.New("conn reset"))
	_, _, err := m.ClassifyBatch(testImgs(2))
	if err == nil {
		t.Fatal("mixed outage succeeded")
	}
	if errors.Is(err, ErrShed) {
		t.Fatalf("mixed shed+failure outage surfaced as a fleet-wide shed: %v", err)
	}
}

// TestMultiLinkSignalsFollowBestReplica: the estimate and load the runtime
// adapts on must come from an OPEN replica — a shed replica's numbers are
// exactly the ones not to adapt on.
func TestMultiLinkSignalsFollowBestReplica(t *testing.T) {
	m, reps, _ := newTestMulti(t, 2)
	reps[0].mu.Lock()
	reps[0].est = linkest.Estimate{RTT: 1 * time.Millisecond, Mbps: 100, Samples: 20}
	reps[0].load, reps[0].haveLoad = protocol.LoadStatus{QueueDepth: 1}, true
	reps[0].mu.Unlock()
	reps[1].mu.Lock()
	reps[1].est = linkest.Estimate{RTT: 30 * time.Millisecond, Mbps: 5, Samples: 20}
	reps[1].load, reps[1].haveLoad = protocol.LoadStatus{QueueDepth: 9}, true
	reps[1].mu.Unlock()
	if est := m.LinkEstimate(); est.RTT != 1*time.Millisecond {
		t.Fatalf("LinkEstimate came from the worse replica: %+v", est)
	}
	// Replica 0 sheds → excluded → the signals must flip to replica 1.
	reps[0].set(&ShedError{RetryAfter: time.Hour}, nil)
	if _, _, err := m.ClassifyBatch(testImgs(1)); err != nil {
		t.Fatal(err)
	}
	if est := m.LinkEstimate(); est.RTT != 30*time.Millisecond {
		t.Fatalf("LinkEstimate still reads the excluded replica: %+v", est)
	}
	if load, ok := m.CloudLoad(); !ok || load.QueueDepth != 9 {
		t.Fatalf("CloudLoad still reads the excluded replica: %+v ok=%v", load, ok)
	}
}

func TestSplitAddrs(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"a:1", 1},
		{"a:1,b:2", 2},
		{" a:1 , b:2 ,", 2},
		{",,", 0},
		// Duplicates collapse onto the first occurrence: two connections to
		// one server would skew p2c sampling and split its accounting.
		{"a:1,a:1", 1},
		{"a:1, a:1 ,b:2,a:1", 2},
	}
	for _, c := range cases {
		if got := SplitAddrs(c.in); len(got) != c.want {
			t.Fatalf("SplitAddrs(%q) = %v, want %d entries", c.in, got, c.want)
		}
	}
}

func TestNewMultiClientValidation(t *testing.T) {
	if _, err := NewMultiClient(nil, nil, MultiConfig{}); err == nil {
		t.Fatal("empty replica set accepted")
	}
	if _, err := NewMultiClient([]CloudClient{&scriptReplica{}}, []string{"a", "b"}, MultiConfig{}); err == nil {
		t.Fatal("mismatched addrs accepted")
	}
	if _, err := NewMultiClient([]CloudClient{nil}, nil, MultiConfig{}); err == nil {
		t.Fatal("nil replica accepted")
	}
	if _, err := NewMultiClient(
		[]CloudClient{&scriptReplica{}, &scriptReplica{}},
		[]string{"a:1", "a:1"}, MultiConfig{},
	); err == nil {
		t.Fatal("duplicate replica addrs accepted")
	}
}
