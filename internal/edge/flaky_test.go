package edge

// Fault-injection layer for the batched offload path: flakyClient wraps the
// in-process transport and fails scripted subsets of each batched call with
// deterministic schedules, covering partial-batch failure, retry-then-
// fallback and total-outage paths for all three offload modes. CI runs this
// file under -race; the accounting assertions are exact, not approximate.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/tensor"
)

// flakyStep scripts the outcome of one batched cloud call.
type flakyStep struct {
	failAll bool  // the whole upload is lost (transport error)
	fail    []int // batch positions whose slot fails individually
}

// flakyClient wraps an inner in-process client and fails scripted subsets of
// each batched call. The schedule is consumed one step per batched call
// (raw or features alike), in call order; once exhausted every call
// succeeds. It installs itself on the runtime's offload hook (see runtime),
// so injected faults reach core.InferBatchedRep with per-instance
// granularity — exactly what a lossy uplink produces.
type flakyClient struct {
	inner *InProcClient

	mu       sync.Mutex
	schedule []flakyStep
	calls    int   // batched calls observed
	sizes    []int // instances per batched call
}

// runtime builds a runtime over the inner client whose every cloud call
// passes through inject.
func (f *flakyClient) runtime(m *core.MEANet, pol core.Policy, cost *CostParams) (*Runtime, error) {
	rt, err := NewRuntime(m, pol, f.inner, cost)
	if err != nil {
		return nil, err
	}
	rt.offload = func(t Transport, rep core.OffloadRep) core.CloudBatchFunc {
		inner := Offload(t, rep)
		return func(sub *tensor.Tensor) ([]int, []float64, []error, error) {
			preds, confs, _, err := inner(sub)
			return f.inject(sub.Dim(0), preds, confs, err)
		}
	}
	return rt, nil
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

// inject applies one schedule step to a successful inner result.
func (f *flakyClient) inject(n int, preds []int, confs []float64, err error) ([]int, []float64, []error, error) {
	step := f.next(n)
	if step.failAll {
		return nil, nil, nil, fmt.Errorf("flaky: upload lost")
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if len(step.fail) == 0 {
		return preds, confs, nil, nil
	}
	errs := make([]error, n)
	for _, i := range step.fail {
		if i < n {
			errs[i] = fmt.Errorf("flaky: slot %d dropped", i)
		}
	}
	return preds, confs, errs, nil
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

// TestFlakyPartialBatchFailure: without retries, instances whose slot of the
// batched call failed fall back to the edge individually — with predictions
// identical to an edge-only run — while the rest of the batch still exits at
// the cloud, in every offload mode.
func TestFlakyPartialBatchFailure(t *testing.T) {
	m, s := tinyMEANet(t, 40)
	allModes(t, func(t *testing.T, mode OffloadMode, repBytes int64, cost *CostParams) {
		fc := &flakyClient{
			inner:    tinyPartitionedClient(t, m, 40, 6),
			schedule: []flakyStep{{fail: []int{1, 3}}},
		}
		rt, err := fc.runtime(m, core.Policy{Threshold: 0, UseCloud: true}, cost)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetOffloadMode(mode); err != nil {
			t.Fatal(err)
		}
		x, _ := s.Test.Batch([]int{0, 1, 2, 3, 4})
		dec, err := rt.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		edgeOnly, err := m.InferBatchedRep(x, core.Policy{UseCloud: false}, core.RepRaw, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range dec {
			if i == 1 || i == 3 {
				if d.Exit == core.ExitCloud || !d.CloudFailed || d.CloudAttempts != 1 {
					t.Fatalf("instance %d should fail its slot once: %+v", i, d)
				}
				if d.Pred != edgeOnly[i].Pred || d.Exit != edgeOnly[i].Exit {
					t.Fatalf("instance %d fallback %d/%v, edge-only %d/%v",
						i, d.Pred, d.Exit, edgeOnly[i].Pred, edgeOnly[i].Exit)
				}
			} else if d.Exit != core.ExitCloud || d.CloudFailed || d.CloudAttempts != 1 {
				t.Fatalf("instance %d should exit at cloud: %+v", i, d)
			}
		}
		calls, sizes := fc.stats()
		if calls != 1 || sizes[0] != 5 {
			t.Fatalf("partial failure cost %d calls of sizes %v, want one 5-instance call", calls, sizes)
		}
		rep := rt.Report()
		wantBytes, wantJ, wantT := expectComm(dec, cost, repBytes)
		if rep.BytesSent != wantBytes || rep.Energy.CommJ != wantJ || rep.LatencyComm != wantT {
			t.Fatalf("accounting: bytes %d J %v T %v, want %d %v %v",
				rep.BytesSent, rep.Energy.CommJ, rep.LatencyComm, wantBytes, wantJ, wantT)
		}
		if rep.CloudFailures != 2 || rep.Exits[core.ExitCloud] != 3 {
			t.Fatalf("exit bookkeeping: %+v", rep)
		}
	})
}

// TestFlakyRetryThenFallback is the acceptance test of the retry policy: a
// batch fails instances {1,3} on the first attempt; the 2-instance retry
// fails its position 0 (original instance 1) again. Instance 3 recovers to a
// cloud exit, instance 1 falls back to the edge, and the Report's
// per-instance bytes/energy/exit accounting sums exactly — every attempt
// transmitted, so every attempt is charged.
func TestFlakyRetryThenFallback(t *testing.T) {
	m, s := tinyMEANet(t, 41)
	allModes(t, func(t *testing.T, mode OffloadMode, repBytes int64, cost *CostParams) {
		fc := &flakyClient{
			inner:    tinyPartitionedClient(t, m, 41, 6),
			schedule: []flakyStep{{fail: []int{1, 3}}, {fail: []int{0}}},
		}
		rt, err := fc.runtime(m, core.Policy{Threshold: 0, UseCloud: true, CloudRetries: 1}, cost)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetOffloadMode(mode); err != nil {
			t.Fatal(err)
		}
		x, _ := s.Test.Batch([]int{0, 1, 2, 3, 4})
		dec, err := rt.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		calls, sizes := fc.stats()
		if calls != 2 || sizes[0] != 5 || sizes[1] != 2 {
			t.Fatalf("retry cost %d calls of sizes %v, want [5 2]", calls, sizes)
		}
		edgeOnly, err := m.InferBatchedRep(x, core.Policy{UseCloud: false}, core.RepRaw, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range dec {
			switch i {
			case 1: // failed both attempts → edge fallback, 2 attempts charged
				if d.Exit == core.ExitCloud || !d.CloudFailed || d.CloudAttempts != 2 {
					t.Fatalf("instance 1 should fall back after retry: %+v", d)
				}
				if d.Pred != edgeOnly[i].Pred {
					t.Fatalf("instance 1 fallback pred %d, edge-only %d", d.Pred, edgeOnly[i].Pred)
				}
			case 3: // recovered on retry → cloud exit, 2 attempts charged
				if d.Exit != core.ExitCloud || d.CloudFailed || d.CloudAttempts != 2 {
					t.Fatalf("instance 3 should recover on retry: %+v", d)
				}
			default:
				if d.Exit != core.ExitCloud || d.CloudAttempts != 1 {
					t.Fatalf("instance %d should exit at cloud first try: %+v", i, d)
				}
			}
		}
		rep := rt.Report()
		// 5 first-attempt uploads + 2 retry uploads = 7 per-instance attempts.
		wantBytes, wantJ, wantT := expectComm(dec, cost, repBytes)
		if wantBytes != 7*repBytes {
			t.Fatalf("scenario drifted: expected 7 attempts, computed %d bytes", wantBytes)
		}
		if rep.BytesSent != wantBytes || rep.Energy.CommJ != wantJ || rep.LatencyComm != wantT {
			t.Fatalf("accounting: bytes %d J %v T %v, want %d %v %v",
				rep.BytesSent, rep.Energy.CommJ, rep.LatencyComm, wantBytes, wantJ, wantT)
		}
		uploads := rep.RawUploads + rep.FeatureUploads
		if uploads != 7 {
			t.Fatalf("upload attempts %d, want 7 (%+v)", uploads, rep)
		}
		if mode == OffloadRaw && rep.FeatureUploads != 0 || mode != OffloadRaw && rep.RawUploads != 0 {
			t.Fatalf("uploads charged to the wrong representation: %+v", rep)
		}
		if rep.CloudFailures != 1 || rep.Exits[core.ExitCloud] != 4 {
			t.Fatalf("exit bookkeeping: %+v", rep)
		}
		total := 0
		for _, c := range rep.Exits {
			total += c
		}
		if total != rep.N || rep.N != 5 {
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
			inner: tinyPartitionedClient(t, m, 42, 6),
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
