package edge

// Fault-injection layer for the batched offload path: flakyClient wraps the
// in-process transport and loses whole calls on deterministic schedules,
// covering retry-then-recovery, retry-then-fallback and total-outage paths
// for all three offload modes. CI runs this file under -race; the accounting
// assertions are exact, not approximate.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/protocol"
)

// flakyStep scripts the outcome of one batched cloud call.
type flakyStep struct {
	failAll bool // the whole upload is lost (transport error)
}

// flakyClient is the in-process transport losing scripted calls. The
// schedule is consumed one step per batched call (raw or features alike), in
// call order; once exhausted every call succeeds. A call fails as one, which
// is what a lossy uplink does to a batch.
type flakyClient struct {
	*InProcClient

	mu       sync.Mutex
	schedule []flakyStep
	calls    int   // batched calls observed
	sizes    []int // instances per batched call
}

// runtime builds a runtime whose every cloud call passes through f.
func (f *flakyClient) runtime(m *core.MEANet, pol core.Policy, cost *CostParams) (*Runtime, error) {
	return NewRuntime(m, pol, f, cost)
}

// Infer applies the next schedule step to one call.
func (f *flakyClient) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	if f.next(req.Instances()).failAll {
		return protocol.InferReply{}, fmt.Errorf("flaky: upload lost")
	}
	return f.InProcClient.Infer(req)
}

// next consumes one schedule step for a batched call of n instances.
func (f *flakyClient) next(n int) flakyStep {
	f.mu.Lock()
	defer f.mu.Unlock()
	var step flakyStep
	if f.calls < len(f.schedule) {
		step = f.schedule[f.calls]
	}
	f.calls++
	f.sizes = append(f.sizes, n)
	return step
}

// stats snapshots the call counters.
func (f *flakyClient) stats() (calls int, sizes []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, append([]int(nil), f.sizes...)
}

// allModes runs a subtest per offload mode. The cost params make features
// the cheaper representation, so auto resolves to features.
func allModes(t *testing.T, run func(t *testing.T, mode OffloadMode, repBytes int64, cost *CostParams)) {
	for _, mode := range []OffloadMode{OffloadRaw, OffloadFeatures, OffloadAuto} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cost := testCost()
			cost.FeatureBytes = 64 // < ImageBytes → features/auto upload features
			repBytes := cost.ImageBytes
			if mode != OffloadRaw {
				repBytes = cost.FeatureBytes
			}
			run(t, mode, repBytes, cost)
		})
	}
}

// expectComm computes the exact communication accounting the runtime should
// have produced, folding per-decision attempts in decision order (the same
// float accumulation order account uses).
func expectComm(decisions []core.Decision, cost *CostParams, repBytes int64) (bytes int64, commJ float64, commT time.Duration) {
	for _, d := range decisions {
		if d.CloudAttempts == 0 {
			continue
		}
		bytes += int64(d.CloudAttempts) * repBytes
		commJ += float64(d.CloudAttempts) * cost.WiFi.UploadEnergyJ(repBytes)
		commT += time.Duration(d.CloudAttempts) * cost.WiFi.UploadTime(repBytes)
	}
	return bytes, commJ, commT
}

// TestFlakyRetryThenFallback is the acceptance test of the retry policy: a
// batch loses its first upload and recovers on the retry, which re-ships the
// whole batch; a second batch loses both attempts and falls back to the edge.
// The Report's per-instance bytes/energy/exit accounting sums exactly — every
// attempt transmitted, so every attempt is charged.
func TestFlakyRetryThenFallback(t *testing.T) {
	m, s := tinyMEANet(t, 41)
	allModes(t, func(t *testing.T, mode OffloadMode, repBytes int64, cost *CostParams) {
		fc := &flakyClient{
			InProcClient: tinyPartitionedClient(t, m, 41, 6),
			schedule:     []flakyStep{{failAll: true}, {}, {failAll: true}, {failAll: true}},
		}
		rt, err := fc.runtime(m, core.Policy{Threshold: 0, UseCloud: true, CloudRetries: 1}, cost)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetOffloadMode(mode); err != nil {
			t.Fatal(err)
		}
		x, _ := s.Test.Batch([]int{0, 1, 2, 3, 4})
		recovered, err := rt.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		fellBack, err := rt.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		calls, sizes := fc.stats()
		if calls != 4 || sizes[0] != 5 || sizes[1] != 5 || sizes[2] != 5 || sizes[3] != 5 {
			t.Fatalf("retry cost %d calls of sizes %v, want [5 5 5 5]", calls, sizes)
		}
		edgeOnly, err := m.InferBatchedRep(x, core.Policy{UseCloud: false}, protocol.RepRaw, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range recovered { // recovered on retry → cloud exit, 2 attempts charged
			if d.Exit != core.ExitCloud || d.CloudFailed || d.CloudAttempts != 2 {
				t.Fatalf("instance %d should recover on retry: %+v", i, d)
			}
		}
		for i, d := range fellBack { // failed both attempts → edge fallback, 2 attempts charged
			if d.Exit == core.ExitCloud || !d.CloudFailed || d.CloudAttempts != 2 {
				t.Fatalf("instance %d should fall back after retry: %+v", i, d)
			}
			if d.Pred != edgeOnly[i].Pred {
				t.Fatalf("instance %d fallback pred %d, edge-only %d", i, d.Pred, edgeOnly[i].Pred)
			}
		}
		rep := rt.Report()
		// 2 batches × 5 instances × 2 attempts = 20 per-instance attempts.
		wantBytes, wantJ, wantT := expectComm(append(recovered, fellBack...), cost, repBytes)
		if wantBytes != 20*repBytes {
			t.Fatalf("scenario drifted: expected 20 attempts, computed %d bytes", wantBytes)
		}
		if rep.BytesSent != wantBytes || rep.Energy.CommJ != wantJ || rep.LatencyComm != wantT {
			t.Fatalf("accounting: bytes %d J %v T %v, want %d %v %v",
				rep.BytesSent, rep.Energy.CommJ, rep.LatencyComm, wantBytes, wantJ, wantT)
		}
		uploads := rep.RawUploads + rep.FeatureUploads
		if uploads != 20 {
			t.Fatalf("upload attempts %d, want 20 (%+v)", uploads, rep)
		}
		if mode == OffloadRaw && rep.FeatureUploads != 0 || mode != OffloadRaw && rep.RawUploads != 0 {
			t.Fatalf("uploads charged to the wrong representation: %+v", rep)
		}
		if rep.CloudFailures != 5 || rep.Exits[core.ExitCloud] != 5 {
			t.Fatalf("exit bookkeeping: %+v", rep)
		}
		total := 0
		for _, c := range rep.Exits {
			total += c
		}
		if total != rep.N || rep.N != 10 {
			t.Fatalf("exits %v do not sum to N=%d", rep.Exits, rep.N)
		}
	})
}

// TestFlakyTotalOutage: when every attempt loses the whole upload, all
// instances fall back to the edge with every attempt charged; concurrent
// batches keep the accounting consistent (run under -race in CI).
func TestFlakyTotalOutage(t *testing.T) {
	m, s := tinyMEANet(t, 42)
	allModes(t, func(t *testing.T, mode OffloadMode, repBytes int64, cost *CostParams) {
		fc := &flakyClient{
			InProcClient: tinyPartitionedClient(t, m, 42, 6),
			// Outage for every attempt of both concurrent batches.
			schedule: []flakyStep{{failAll: true}, {failAll: true}, {failAll: true}, {failAll: true}},
		}
		rt, err := fc.runtime(m, core.Policy{Threshold: 0, UseCloud: true, CloudRetries: 1}, cost)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetOffloadMode(mode); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				x, _ := s.Test.Batch([]int{3 * w, 3*w + 1, 3*w + 2})
				dec, err := rt.Classify(x)
				if err != nil {
					errs <- err
					return
				}
				for _, d := range dec {
					if d.Exit == core.ExitCloud || !d.CloudFailed || d.CloudAttempts != 2 {
						errs <- fmt.Errorf("outage decision %+v", d)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		calls, _ := fc.stats()
		if calls != 4 {
			t.Fatalf("outage saw %d batched calls, want 4 (2 batches × 2 attempts)", calls)
		}
		rep := rt.Report()
		if rep.N != 6 || rep.CloudFailures != 6 || rep.Exits[core.ExitCloud] != 0 {
			t.Fatalf("outage bookkeeping: %+v", rep)
		}
		// 6 instances × 2 attempts, all transmitted.
		if want := 12 * repBytes; rep.BytesSent != want {
			t.Fatalf("outage bytes %d, want %d", rep.BytesSent, want)
		}
	})
}
