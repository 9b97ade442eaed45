package edge

// Closed-loop adaptation tests: the auto offload mode must follow the LIVE
// link estimate (flipping representation mid-run when the measured link
// degrades), and the SetLatencyBudget threshold controller must converge
// onto the budget. All deterministic — the "link" is a synthetic estimator
// the tests steer directly — and -race clean.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// fakeLink is the in-process client with steerable live signals: its
// LinkEstimate and CloudLoad answer what the test set, not what was measured.
type fakeLink struct {
	*InProcClient
	mu   sync.Mutex
	est  linkest.Estimate
	load protocol.LoadStatus
	has  bool
}

func (f *fakeLink) set(link netsim.Link, samples int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.est = linkest.Estimate{RTT: link.Latency, Mbps: link.Mbps, Samples: samples}
}

func (f *fakeLink) setLoad(st protocol.LoadStatus) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.load, f.has = st, true
}

func (f *fakeLink) LinkEstimate() linkest.Estimate {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.est
}

func (f *fakeLink) CloudLoad() (protocol.LoadStatus, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.load, f.has
}

// adaptiveFixture builds an untrained MEANet (positive entropies, so a zero
// threshold sends every instance to the cloud), a partitioned in-process
// client, and cost params where features are the strictly smaller upload.
func adaptiveFixture(t *testing.T, seed int64) (*Runtime, *fakeLink, *tensor.Tensor, *CostParams) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	backbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "adapt", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	link := &fakeLink{InProcClient: tinyPartitionedClient(t, m, seed+1, 6)}
	cost := &CostParams{
		Compute:      energy.EdgeGPUCIFAR(),
		WiFi:         energy.DefaultWiFi(),
		ImageBytes:   4 * 3 * 16 * 16,                        // 3072
		FeatureBytes: 4 * int64(m.MainOutChannels()) * 8 * 8, // smaller
	}
	if cost.FeatureBytes >= cost.ImageBytes {
		t.Fatalf("fixture wants FeatureBytes < ImageBytes, got %d vs %d", cost.FeatureBytes, cost.ImageBytes)
	}
	rt, err := NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, link, cost)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetOffloadMode(OffloadAuto); err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 4, 3, 16, 16)
	return rt, link, x, cost
}

// TestAutoFlipsRepresentationOnLinkDegradation is the tentpole's acceptance
// test at unit level: on a link that degrades mid-run, auto mode must switch
// the upload representation from raw (affordable on the fast link) to
// features (the compact fallback), and flip back — with hysteresis — when
// the link recovers. No restarts, no reconfiguration. The threshold
// controller follows the same link: it rises while the degraded link blows
// the budget and falls again once the link has fully recovered.
func TestAutoFlipsRepresentationOnLinkDegradation(t *testing.T) {
	rt, link, x, cost := adaptiveFixture(t, 100)
	const budget = 50 * time.Millisecond
	rt.SetLatencyBudget(budget)

	classify := func(batches int) Report {
		t.Helper()
		for i := 0; i < batches; i++ {
			if _, err := rt.Classify(x); err != nil {
				t.Fatal(err)
			}
		}
		return rt.Report()
	}

	// Phase 1 — fast link: raw upload time ≈ 1ms + 3072×8/50e6 ≈ 1.5ms,
	// far under the budget → raw preferred (full-fidelity input).
	link.set(netsim.Link{Latency: time.Millisecond, Mbps: 50}, 32)
	p1 := classify(3)
	if p1.RawUploads == 0 || p1.FeatureUploads != 0 {
		t.Fatalf("fast link: want raw uploads only, got raw=%d feat=%d", p1.RawUploads, p1.FeatureUploads)
	}

	// Phase 2 — degraded link: raw needs 40ms + 3072×8/0.5e6 ≈ 89ms > 50ms
	// budget → flip to features mid-run.
	link.set(netsim.Link{Latency: 40 * time.Millisecond, Mbps: 0.5}, 64)
	p2 := classify(3)
	if p2.FeatureUploads == 0 {
		t.Fatalf("degraded link: no feature uploads (raw=%d feat=%d)", p2.RawUploads, p2.FeatureUploads)
	}
	if p2.RepFlips != 1 {
		t.Fatalf("degraded link: %d representation flips, want 1", p2.RepFlips)
	}
	if p2.Threshold <= p1.Threshold {
		t.Fatalf("degraded link did not raise the threshold: %.4f → %.4f", p1.Threshold, p2.Threshold)
	}

	// Phase 3 — borderline recovery: raw fits the budget but NOT the
	// hysteresis band (0.8×50ms = 40ms): 35ms + ~0.5ms ≈ 35.5ms... that IS
	// under 40ms; use 45ms total → between 40 and 50 → must NOT flip back.
	link.set(netsim.Link{Latency: 44 * time.Millisecond, Mbps: 50}, 96)
	p3 := classify(2)
	if p3.RepFlips != 1 {
		t.Fatalf("borderline recovery: flipped back inside the hysteresis band (flips=%d)", p3.RepFlips)
	}

	// Phase 4 — full recovery: raw well under the hysteresis band → flip
	// back to raw.
	link.set(netsim.Link{Latency: time.Millisecond, Mbps: 50}, 128)
	p4 := classify(2)
	if p4.RepFlips != 2 {
		t.Fatalf("recovered link: %d flips, want 2 (back to raw)", p4.RepFlips)
	}
	if p4.RawUploads <= p1.RawUploads {
		t.Fatal("recovered link: raw uploads did not resume")
	}
	if p4.Threshold >= p3.Threshold {
		t.Fatalf("recovered link did not lower the threshold: %.4f → %.4f", p3.Threshold, p4.Threshold)
	}
	if got := cost.ImageBytes*int64(p4.RawUploads) + cost.FeatureBytes*int64(p4.FeatureUploads); got != p4.BytesSent {
		t.Fatalf("byte accounting drifted across flips: %d != %d", got, p4.BytesSent)
	}
}

// TestAutoStaticFallbackUntilEnoughSamples pins the cold-start path: below
// AdaptConfig.MinSamples the auto decision must come from the static
// CostParams model (features, the cheaper modeled upload here) even when the
// immature live estimate would say raw.
func TestAutoStaticFallbackUntilEnoughSamples(t *testing.T) {
	rt, link, x, _ := adaptiveFixture(t, 200)
	rt.SetLatencyBudget(50 * time.Millisecond)
	// A fast link... but only 2 samples — not trustworthy yet.
	link.set(netsim.Link{Latency: time.Millisecond, Mbps: 50}, 2)
	if _, err := rt.Classify(x); err != nil {
		t.Fatal(err)
	}
	rep := rt.Report()
	if rep.FeatureUploads == 0 || rep.RawUploads != 0 {
		t.Fatalf("cold start must follow the static model (features): raw=%d feat=%d",
			rep.RawUploads, rep.FeatureUploads)
	}
	// Maturity reached: the same link now justifies raw.
	link.set(netsim.Link{Latency: time.Millisecond, Mbps: 50}, 32)
	if _, err := rt.Classify(x); err != nil {
		t.Fatal(err)
	}
	if rep := rt.Report(); rep.RawUploads == 0 {
		t.Fatal("mature estimate did not switch the decision to raw")
	}
}

// TestThresholdControllerConvergesOntoBudget drives the SetLatencyBudget
// loop against a synthetic plant where the observed cloud latency falls as
// the threshold rises (offloading less relieves the congestion): the
// controller must walk the threshold up from its floor, land in the
// deadband, and HOLD there — no oscillation, no drift.
func TestThresholdControllerConvergesOntoBudget(t *testing.T) {
	rt, link, x, _ := adaptiveFixture(t, 300)
	const budget = 100 * time.Millisecond
	rt.SetLatencyBudget(budget)

	// Plant: RTT = 1ms·th0/th with th0 such that the deadband lies well
	// below the fixture's entropies (~ln 6), so the cloud branch keeps
	// exercising and the controller keeps stepping. Bandwidth is high, so
	// serialization is negligible against RTT.
	plant := func() {
		th := rt.Policy().Threshold
		if th <= 0 {
			th = 1e-3
		}
		rtt := time.Duration(float64(time.Millisecond) / th)
		link.set(netsim.Link{Latency: rtt, Mbps: 1000}, 64)
	}

	var prevTh float64
	inBand := 0
	for i := 0; i < 120; i++ {
		plant()
		if _, err := rt.Classify(x); err != nil {
			t.Fatal(err)
		}
		th := rt.Policy().Threshold
		obs := time.Duration(float64(time.Millisecond) / th)
		if obs <= budget && obs >= time.Duration(float64(budget)*0.6) {
			if th != prevTh {
				inBand = 0 // moved: not settled yet
			}
			inBand++
		} else {
			inBand = 0
		}
		prevTh = th
		if inBand >= 10 {
			break
		}
	}
	if inBand < 10 {
		t.Fatalf("controller did not settle in the deadband: threshold %.5f", prevTh)
	}
	// The converged threshold yields an observed latency inside the band.
	obs := time.Duration(float64(time.Millisecond) / prevTh)
	if obs > budget || obs < time.Duration(float64(budget)*0.6) {
		t.Fatalf("converged observed latency %v outside [%v, %v]", obs,
			time.Duration(float64(budget)*0.6), budget)
	}

	// Relief: the plant recovers (tiny RTT regardless of threshold) → the
	// controller must walk the threshold back DOWN to reclaim cloud
	// accuracy, clamped at the floor.
	for i := 0; i < 200; i++ {
		link.set(netsim.Link{Latency: time.Microsecond, Mbps: 1000}, 64)
		if _, err := rt.Classify(x); err != nil {
			t.Fatal(err)
		}
	}
	if th := rt.Policy().Threshold; th > 0.001*1.0001 {
		t.Fatalf("headroom did not lower the threshold to its floor: %.6f", th)
	}
}

// TestBackpressureTriggersLoadShedding pins the piggybacked load signal: a
// saturated server queue (deeper than the in-flight set) must be treated as
// over budget — a leading indicator, acted on before the RTT EWMA registers
// the congestion — while the measured latency itself is NOT inflated (the
// turnaround already paid the queue wait; adding it again would
// double-count steady-state congestion).
func TestBackpressureTriggersLoadShedding(t *testing.T) {
	est := linkest.Estimate{RTT: 40 * time.Millisecond, Mbps: 1000, Samples: 64}
	const budget = 50 * time.Millisecond
	// Bare link: 40ms < 50ms → in deadband (≥ 0.6×50 = 30ms), no move.
	if obs := observedCloudLatency(est, 3072); obs > budget {
		t.Fatalf("bare link over budget: %v", obs)
	}
	// The queue signal never inflates the measured latency; it reads as
	// saturation only well past the served set and the linger floor.
	if !queueSaturated(protocol.LoadStatus{QueueDepth: 8, Active: 2}) {
		t.Fatal("queue 8 vs 2 served must read as saturated")
	}
	if queueSaturated(protocol.LoadStatus{QueueDepth: 2, Active: 4}) {
		t.Fatal("queue shallower than the served set is not saturation")
	}
	if queueSaturated(protocol.LoadStatus{QueueDepth: 1, Active: 0}) {
		t.Fatal("a lone linger-parked request is not saturation")
	}

	// End to end: the runtime raises the threshold on backpressure alone.
	rt, link, x, _ := adaptiveFixture(t, 400)
	rt.SetLatencyBudget(budget)
	link.set(netsim.Link{Latency: 40 * time.Millisecond, Mbps: 1000}, 64)
	if _, err := rt.Classify(x); err != nil {
		t.Fatal(err)
	}
	thBefore := rt.Policy().Threshold
	link.setLoad(protocol.LoadStatus{QueueDepth: 8, Active: 2})
	if _, err := rt.Classify(x); err != nil {
		t.Fatal(err)
	}
	if th := rt.Policy().Threshold; th <= thBefore {
		t.Fatalf("backpressure did not raise the threshold: %.5f → %.5f", thBefore, th)
	}
}

// TestLivePredictionsPriceRawAtWireSize: with ImageBytes at the paper's 8-bit
// size, both live decisions must price a raw upload at what the batch really
// ships — 4 bytes per element — because the estimator's bandwidth was
// measured from those frames. At the 8-bit size the raw upload would read 4×
// cheaper than it is: auto would keep raw on a link that cannot carry it,
// and the controller would lower the threshold on a blown budget.
func TestLivePredictionsPriceRawAtWireSize(t *testing.T) {
	rt, link, x, cost := adaptiveFixture(t, 500)
	cost.ImageBytes = energy.RawImageBytes(16, 16, 3) // 768, the modeled size
	wire := int64(4 * 3 * 16 * 16)                    // 3072, what ships
	if !(cost.ImageBytes < cost.FeatureBytes && cost.FeatureBytes < wire) {
		t.Fatalf("fixture wants 8-bit image < features < float32 image, got %d, %d, %d",
			cost.ImageBytes, cost.FeatureBytes, wire)
	}
	// 1 Mbps: 8 µs per byte. Raw at its wire size needs 1ms + 24.6ms, over
	// the 15ms budget; at the 8-bit size it would read 1ms + 6.1ms, inside
	// even the 9ms headroom band. Features need 1ms + 8 µs × FeatureBytes.
	const budget = 15 * time.Millisecond
	rt.SetLatencyBudget(budget)
	link.set(netsim.Link{Latency: time.Millisecond, Mbps: 1}, 32)

	if _, err := rt.Classify(x); err != nil {
		t.Fatal(err)
	}
	if rep := rt.Report(); rep.FeatureUploads == 0 || rep.RawUploads != 0 {
		t.Fatalf("auto over a link raw cannot afford: raw=%d feat=%d, want features only",
			rep.RawUploads, rep.FeatureUploads)
	}

	if err := rt.SetOffloadMode(OffloadRaw); err != nil {
		t.Fatal(err)
	}
	const th0 = 0.01 // far below the untrained entropies: every instance still offloads
	rt.SetThreshold(th0)
	if _, err := rt.Classify(x); err != nil {
		t.Fatal(err)
	}
	if rep := rt.Report(); rep.RawUploads == 0 {
		t.Fatal("raw mode uploaded nothing; the controller step is untested")
	}
	if th := rt.Policy().Threshold; th <= th0 {
		t.Fatalf("raw uploads over budget did not raise the threshold: %.4f → %.4f", th0, th)
	}
}
