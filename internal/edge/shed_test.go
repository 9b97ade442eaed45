package edge

// Runtime-level shed handling tests (the edge half of cloud admission
// control): a shed batch takes the edge fallback immediately without burning
// retries or upload charges, the RetryAfter hint holds later batches off the
// transport entirely, and the shed event steps the threshold controller up
// within the same batch.

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// shedClient wraps the in-process client with steerable admission control:
// the next shedNext batch calls are answered with a *protocol.ShedError carrying
// retryAfter, later calls delegate. Batch calls are counted either way — the
// tests' "no retry burn" and "RetryAfter honored" assertions are call-count
// assertions.
type shedClient struct {
	inner      *InProcClient
	retryAfter time.Duration

	mu       sync.Mutex
	shedNext int
	calls    int
}

func (c *shedClient) Classify(img *tensor.Tensor) (int, float64, error) {
	return c.inner.Classify(img)
}

func (c *shedClient) ClassifyBatch(imgs []*tensor.Tensor) ([]int, []float64, error) {
	c.mu.Lock()
	c.calls++
	shed := c.shedNext > 0
	if shed {
		c.shedNext--
	}
	retryAfter := c.retryAfter
	c.mu.Unlock()
	if shed {
		return nil, nil, &protocol.ShedError{RetryAfter: retryAfter}
	}
	return c.inner.ClassifyBatch(imgs)
}

func (c *shedClient) batchCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func (c *shedClient) Close() error { return nil }

// shedFixture builds an untrained MEANet (positive entropies, so a modest
// threshold sends every instance to the cloud), a shedClient over the
// in-process transport, and a runtime with retries granted — the retries are
// exactly what a shed must NOT burn.
func shedFixture(t *testing.T, seed int64, retryAfter time.Duration) (*Runtime, *shedClient, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	backbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "shed", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	client := &shedClient{inner: tinyPartitionedClient(t, m, seed+1, 6), retryAfter: retryAfter}
	cost := &CostParams{
		Compute:    energy.EdgeGPUCIFAR(),
		WiFi:       energy.DefaultWiFi(),
		ImageBytes: 4 * 3 * 16 * 16,
	}
	rt, err := NewRuntime(m, core.Policy{Threshold: 0.5, UseCloud: true, CloudRetries: 3}, client, cost)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 4, 3, 16, 16)
	return rt, client, x
}

func TestShedErrorMatchesSentinel(t *testing.T) {
	err := &protocol.ShedError{RetryAfter: 10 * time.Millisecond}
	if !errors.Is(err, protocol.ErrShed) {
		t.Fatal("ShedError does not match ErrShed")
	}
	if !errors.Is(err, protocol.ErrShed) {
		t.Fatal("ShedError does not match protocol.ErrShed (core's retry loop would burn retries)")
	}
}

// TestShedImmediateEdgeFallbackNoCharges pins the shed contract end to end
// at the runtime: ONE transport call (CloudRetries granted but not burned),
// every instance on the edge fallback with zero upload bytes/energy charged,
// and the threshold stepped up within the same batch — before any later
// batch ships.
func TestShedImmediateEdgeFallbackNoCharges(t *testing.T) {
	rt, client, x := shedFixture(t, 500, time.Hour)
	client.mu.Lock()
	client.shedNext = 1 << 30 // shed everything
	client.mu.Unlock()

	thBefore := rt.Policy().Threshold
	decisions, err := rt.Classify(x)
	if err != nil {
		t.Fatal(err)
	}
	if got := client.batchCalls(); got != 1 {
		t.Fatalf("shed burned retries: %d transport calls, want 1", got)
	}
	for i, d := range decisions {
		if !d.Shed || d.Exit == core.ExitCloud || d.CloudAttempts != 0 || d.CloudFailed {
			t.Fatalf("instance %d after shed: %+v (want Shed, edge exit, 0 attempts, not failed)", i, d)
		}
	}
	rep := rt.Report()
	if rep.ShedEvents != 1 || rep.ShedFallbacks != len(decisions) {
		t.Fatalf("shed accounting: %d events, %d fallbacks (want 1, %d)",
			rep.ShedEvents, rep.ShedFallbacks, len(decisions))
	}
	if rep.BytesSent != 0 || rep.RawUploads != 0 || rep.FeatureUploads != 0 {
		t.Fatalf("shed charged uploads: %dB, %d raw, %d feat", rep.BytesSent, rep.RawUploads, rep.FeatureUploads)
	}
	if rep.Energy.CommJ != 0 || rep.LatencyComm != 0 {
		t.Fatalf("shed charged comm energy/latency: %vJ, %v", rep.Energy.CommJ, rep.LatencyComm)
	}
	if rep.CloudFailures != 0 {
		t.Fatalf("shed counted as %d cloud FAILURES (it is a refusal)", rep.CloudFailures)
	}
	if sum := rep.Exits[core.ExitMain] + rep.Exits[core.ExitExtension]; sum != rep.N {
		t.Fatalf("shed instances not all served at the edge: %d of %d", sum, rep.N)
	}
	// The controller stepped up on the shed alone — no latency budget, no
	// link estimator, same batch.
	if th := rt.Policy().Threshold; th <= thBefore {
		t.Fatalf("shed did not raise the threshold within one batch: %.4f → %.4f", thBefore, th)
	}
}

// TestShedRetryAfterHonored pins the hold: after a shed with a long
// RetryAfter, later batches must not even reach the transport (no round
// trip, no charges); once a short hint expires, offload resumes.
func TestShedRetryAfterHonored(t *testing.T) {
	rt, client, x := shedFixture(t, 510, time.Hour)
	client.mu.Lock()
	client.shedNext = 1
	client.mu.Unlock()
	if _, err := rt.Classify(x); err != nil {
		t.Fatal(err)
	}
	if got := client.batchCalls(); got != 1 {
		t.Fatalf("first batch made %d calls, want 1", got)
	}
	// Inside the hold: edge-only, silently.
	for i := 0; i < 3; i++ {
		decisions, err := rt.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		for j, d := range decisions {
			if d.Shed || d.Exit == core.ExitCloud || d.CloudAttempts != 0 {
				t.Fatalf("held batch %d instance %d touched the cloud: %+v", i, j, d)
			}
		}
	}
	if got := client.batchCalls(); got != 1 {
		t.Fatalf("hold violated: %d transport calls, want still 1", got)
	}
	rep := rt.Report()
	if rep.ShedEvents != 1 {
		t.Fatalf("held batches recounted the shed: %d events", rep.ShedEvents)
	}
	if rep.BytesSent != 0 {
		t.Fatalf("held batches charged %dB", rep.BytesSent)
	}

	// A short hint expires and offload resumes.
	rt2, client2, x2 := shedFixture(t, 520, 20*time.Millisecond)
	client2.mu.Lock()
	client2.shedNext = 1
	client2.mu.Unlock()
	if _, err := rt2.Classify(x2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	decisions, err := rt2.Classify(x2)
	if err != nil {
		t.Fatal(err)
	}
	if got := client2.batchCalls(); got != 2 {
		t.Fatalf("offload did not resume after the hint expired: %d calls, want 2", got)
	}
	cloud := 0
	for _, d := range decisions {
		if d.Exit == core.ExitCloud {
			cloud++
		}
	}
	if cloud == 0 {
		t.Fatal("post-hold batch served nothing at the cloud")
	}
	if rep := rt2.Report(); rep.BytesSent == 0 {
		t.Fatal("post-hold offload charged no bytes (accounting resumed wrong)")
	}
}

// TestShedThresholdClamped: repeated sheds walk the threshold up
// multiplicatively but never past MaxThreshold.
func TestShedThresholdClamped(t *testing.T) {
	rt, client, x := shedFixture(t, 530, time.Nanosecond) // hold expires instantly
	client.mu.Lock()
	client.shedNext = 1 << 30
	client.mu.Unlock()
	rt.SetAdaptConfig(AdaptConfig{MaxThreshold: 0.9})
	for i := 0; i < 40; i++ {
		if _, err := rt.Classify(x); err != nil {
			t.Fatal(err)
		}
		// The nanosecond hold has expired by the next iteration, so every
		// batch re-offers load and is shed again.
	}
	th := rt.Policy().Threshold
	if th > 0.9 {
		t.Fatalf("threshold escaped the clamp: %.4f", th)
	}
	if th <= 0.5 {
		t.Fatalf("repeated sheds did not raise the threshold: %.4f", th)
	}
}
