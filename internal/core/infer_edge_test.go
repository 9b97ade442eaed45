package core

// Edge-case and retry-policy tests of the batched offload path of
// Algorithm 2: degenerate batch shapes, absent cloud transports, and the
// bounded re-offload of failed instances.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/meanet/meanet/internal/tensor"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// countingBatchCloud returns every instance as class 0 with confidence 1 and
// counts calls and instances.
func countingBatchCloud(calls, instances *int) CloudBatchFunc {
	return func(sub *tensor.Tensor) ([]int, []float64, []error, error) {
		*calls++
		*instances += sub.Dim(0)
		n := sub.Dim(0)
		preds := make([]int, n)
		confs := make([]float64, n)
		for i := range confs {
			confs[i] = 1
		}
		return preds, confs, nil, nil
	}
}

func TestInferBatchedEmptyBatch(t *testing.T) {
	m := buildA(t, 30, 6)
	calls, instances := 0, 0
	dec, err := m.InferBatchedRep(tensor.New(0, 2, 8, 8), Policy{Threshold: 0, UseCloud: true}, RepRaw,
		countingBatchCloud(&calls, &instances))
	if err != nil {
		t.Fatal(err)
	}
	if dec == nil || len(dec) != 0 {
		t.Fatalf("empty batch returned %v, want empty decisions", dec)
	}
	if calls != 0 {
		t.Fatalf("empty batch reached the cloud %d times", calls)
	}
}

func TestInferBatchedNilCloud(t *testing.T) {
	m := buildA(t, 31, 6)
	rng := tensor.Randn(newRand(31), 1, 4, 2, 8, 8)
	// UseCloud=false with no transport: pure edge operation.
	dec, err := m.InferBatchedRep(rng, Policy{Threshold: 0, UseCloud: false}, RepRaw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dec {
		if d.Exit == ExitCloud || d.CloudFailed || d.CloudAttempts != 0 {
			t.Fatalf("instance %d leaked cloud activity without a cloud: %+v", i, d)
		}
	}
	// UseCloud=true but nil transport: the cloud branch is silently skipped
	// (matching Infer's contract), never a nil dereference.
	dec, err = m.InferBatchedRep(rng, Policy{Threshold: 0, UseCloud: true}, RepRaw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dec {
		if d.Exit == ExitCloud || d.CloudAttempts != 0 {
			t.Fatalf("instance %d exited at a nil cloud: %+v", i, d)
		}
	}
}

func TestInferBatchedAllCloudAllEdge(t *testing.T) {
	m := buildA(t, 32, 6)
	x := tensor.Randn(newRand(32), 1, 5, 2, 8, 8)

	// Threshold 0: every (untrained) instance has positive entropy → one
	// call carrying the whole batch.
	calls, instances := 0, 0
	dec, err := m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: true}, RepRaw, countingBatchCloud(&calls, &instances))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || instances != 5 {
		t.Fatalf("all-cloud batch cost %d calls / %d instances, want 1 / 5", calls, instances)
	}
	for i, d := range dec {
		if d.Exit != ExitCloud || d.CloudAttempts != 1 {
			t.Fatalf("instance %d should exit at cloud with 1 attempt: %+v", i, d)
		}
	}

	// Huge threshold: the cloud is never contacted at all.
	calls, instances = 0, 0
	dec, err = m.InferBatchedRep(x, Policy{Threshold: 100, UseCloud: true}, RepRaw, countingBatchCloud(&calls, &instances))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("all-edge batch still made %d cloud calls", calls)
	}
	for i, d := range dec {
		if d.Exit == ExitCloud || d.CloudAttempts != 0 {
			t.Fatalf("instance %d crossed the threshold: %+v", i, d)
		}
	}
}

func TestInferBatchedSingleInstance(t *testing.T) {
	m := buildA(t, 33, 6)
	x := tensor.Randn(newRand(33), 1, 1, 2, 8, 8)
	calls, instances := 0, 0
	dec, err := m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: true}, RepRaw, countingBatchCloud(&calls, &instances))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 1 || calls != 1 || instances != 1 {
		t.Fatalf("single-instance batch: %d decisions, %d calls, %d instances", len(dec), calls, instances)
	}
	if dec[0].Exit != ExitCloud || dec[0].Pred != 0 {
		t.Fatalf("single instance decision %+v", dec[0])
	}
}

func TestInferBatchedRepValidation(t *testing.T) {
	m := buildA(t, 34, 6)
	x := tensor.Randn(newRand(34), 1, 2, 2, 8, 8)
	if _, err := m.InferBatchedRep(x, Policy{}, OffloadRep(99), nil); err == nil {
		t.Fatal("invalid representation accepted")
	}
	if _, err := m.InferBatchedRep(x.Sample(0), Policy{}, RepRaw, nil); err == nil {
		t.Fatal("3-D input accepted")
	}
}

// TestInferBatchedRepFeaturesShipsFeatures pins the representation contract:
// RepRaw uploads pixel-shaped sub-batches, RepFeatures uploads main-block
// feature maps (here 4 channels vs the 2 input channels).
func TestInferBatchedRepFeaturesShipsFeatures(t *testing.T) {
	m := buildA(t, 35, 6)
	x := tensor.Randn(newRand(35), 1, 3, 2, 8, 8)
	var gotShape []int
	record := func(sub *tensor.Tensor) ([]int, []float64, []error, error) {
		gotShape = sub.Shape()
		n := sub.Dim(0)
		return make([]int, n), make([]float64, n), nil, nil
	}
	if _, err := m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: true}, RepRaw, record); err != nil {
		t.Fatal(err)
	}
	if len(gotShape) != 4 || gotShape[1] != 2 {
		t.Fatalf("raw rep uploaded shape %v, want [3 2 8 8]", gotShape)
	}
	if _, err := m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: true}, RepFeatures, record); err != nil {
		t.Fatal(err)
	}
	if len(gotShape) != 4 || gotShape[1] != m.MainOutChannels() {
		t.Fatalf("features rep uploaded shape %v, want %d channels", gotShape, m.MainOutChannels())
	}
}

// TestInferBatchedRetryRecovers: with CloudRetries=1, instances whose slot
// failed on the first attempt are re-offloaded as one smaller batch; a
// successful retry still exits at the cloud, with both attempts recorded.
func TestInferBatchedRetryRecovers(t *testing.T) {
	m := buildA(t, 36, 6)
	x := tensor.Randn(newRand(36), 1, 4, 2, 8, 8)
	call := 0
	var sizes []int
	cloud := func(sub *tensor.Tensor) ([]int, []float64, []error, error) {
		call++
		sizes = append(sizes, sub.Dim(0))
		n := sub.Dim(0)
		preds := make([]int, n)
		confs := make([]float64, n)
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			preds[i], confs[i] = 2, 1
			if call == 1 && i >= 2 {
				errs[i] = errors.New("slot dropped")
			}
		}
		return preds, confs, errs, nil
	}
	dec, err := m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: true, CloudRetries: 1}, RepRaw, cloud)
	if err != nil {
		t.Fatal(err)
	}
	if call != 2 || sizes[0] != 4 || sizes[1] != 2 {
		t.Fatalf("retry shipped call sizes %v over %d calls, want [4 2]", sizes, call)
	}
	for i, d := range dec {
		if d.Exit != ExitCloud || d.Pred != 2 || d.CloudFailed {
			t.Fatalf("instance %d should exit at cloud after retry: %+v", i, d)
		}
		wantAttempts := 1
		if i >= 2 {
			wantAttempts = 2
		}
		if d.CloudAttempts != wantAttempts {
			t.Fatalf("instance %d attempts %d, want %d", i, d.CloudAttempts, wantAttempts)
		}
	}
}

// TestInferBatchedRetryThenFallback: instances that fail every attempt
// (including whole-call errors) fall back to the edge with the full attempt
// count recorded — the accounting must charge each transmission.
func TestInferBatchedRetryThenFallback(t *testing.T) {
	m := buildA(t, 37, 6)
	x := tensor.Randn(newRand(37), 1, 3, 2, 8, 8)
	call := 0
	outage := func(sub *tensor.Tensor) ([]int, []float64, []error, error) {
		call++
		return nil, nil, nil, errors.New("upload lost")
	}
	dec, err := m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: true, CloudRetries: 2}, RepRaw, outage)
	if err != nil {
		t.Fatal(err)
	}
	if call != 3 {
		t.Fatalf("outage retried %d times, want 3 attempts (1 + 2 retries)", call)
	}
	for i, d := range dec {
		if d.Exit == ExitCloud || !d.CloudFailed {
			t.Fatalf("instance %d should fall back after the outage: %+v", i, d)
		}
		if d.CloudAttempts != 3 {
			t.Fatalf("instance %d attempts %d, want 3", i, d.CloudAttempts)
		}
	}

	// Malformed (short) responses count as failed attempts too, and the
	// retry gives the cloud a second chance to answer correctly.
	call = 0
	shortThenGood := func(sub *tensor.Tensor) ([]int, []float64, []error, error) {
		call++
		if call == 1 {
			return []int{1}, []float64{1}, nil, nil // short: malformed
		}
		n := sub.Dim(0)
		preds := make([]int, n)
		confs := make([]float64, n)
		for i := range confs {
			preds[i], confs[i] = 1, 1
		}
		return preds, confs, nil, nil
	}
	dec, err = m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: true, CloudRetries: 1}, RepRaw, shortThenGood)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dec {
		if d.Exit != ExitCloud || d.Pred != 1 || d.CloudAttempts != 2 {
			t.Fatalf("instance %d should recover from the malformed response: %+v", i, d)
		}
	}
}

// TestInferBatchedShedNoRetryBurn pins the admission-control contract: a
// cloud call whose error wraps ErrShed ends the attempt loop after ONE call
// — even with retries granted — and the pending instances take the edge
// fallback with Shed set, zero CloudAttempts (no charges) and CloudFailed
// clear (the server refused; nothing failed).
func TestInferBatchedShedNoRetryBurn(t *testing.T) {
	m := buildA(t, 60, 6)
	x := tensor.Randn(newRand(60), 1, 5, 2, 8, 8)
	calls := 0
	shedCloud := func(sub *tensor.Tensor) ([]int, []float64, []error, error) {
		calls++
		return nil, nil, nil, fmt.Errorf("transport says: %w", ErrShed)
	}
	dec, err := m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: true, CloudRetries: 3}, RepRaw, shedCloud)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("shed burned retries: %d calls, want 1", calls)
	}
	for i, d := range dec {
		if !d.Shed {
			t.Fatalf("instance %d not marked shed: %+v", i, d)
		}
		if d.Exit == ExitCloud {
			t.Fatalf("instance %d exited at a cloud that shed it", i)
		}
		if d.CloudAttempts != 0 {
			t.Fatalf("instance %d charged %d attempts for a refused offload", i, d.CloudAttempts)
		}
		if d.CloudFailed {
			t.Fatalf("instance %d marked CloudFailed for a deliberate shed", i)
		}
	}

	// A shed on a RETRY (first attempt fails in transport, second is shed)
	// also stops the loop: the surviving pending set is shed, the first
	// attempt stays charged.
	calls = 0
	flaky := func(sub *tensor.Tensor) ([]int, []float64, []error, error) {
		calls++
		if calls == 1 {
			return nil, nil, nil, errors.New("transport fault")
		}
		return nil, nil, nil, ErrShed
	}
	dec, err = m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: true, CloudRetries: 3}, RepRaw, flaky)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("fault-then-shed made %d calls, want 2", calls)
	}
	for i, d := range dec {
		if !d.Shed || d.CloudAttempts != 1 || d.CloudFailed {
			t.Fatalf("instance %d after fault-then-shed: %+v (want Shed, 1 attempt, not failed)", i, d)
		}
	}
}
