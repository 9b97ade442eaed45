package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/metrics"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// testSpec is a deliberately tiny ResNet for fast training in tests.
func testSpec() models.ResNetSpec {
	return models.ResNetSpec{
		Name:         "test-resnet",
		InChannels:   2,
		StemChannels: 4,
		Channels:     []int{4, 8},
		Blocks:       []int{1, 1},
		Strides:      []int{1, 2},
	}
}

func testData(t *testing.T, seed int64) *data.Synth {
	t.Helper()
	s, err := data.Generate(data.SynthConfig{
		Classes: 6, Groups: 1, GroupSize: 3,
		ImgSize: 8, Channels: 2,
		TrainPerClass: 30, TestPerClass: 12,
		GroupSpread: 0.5, NoiseBase: 0.3, NoiseTail: 0.4, Jitter: 1,
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func buildA(t *testing.T, seed int64, classes int) *MEANet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := models.BuildResNet(rng, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildMEANetA(rng, b, 1, classes)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func buildB(t *testing.T, seed int64, classes int, combine CombineMode) *MEANet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := models.BuildResNet(rng, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildMEANetB(rng, b, 1, classes, combine)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func quickCfg(epochs int, seed int64) TrainConfig {
	cfg := DefaultTrainConfig(epochs, seed)
	cfg.Batch = 16
	cfg.LR.Initial = 0.05
	return cfg
}

func TestClassDictBijection(t *testing.T) {
	d, err := NewClassDict([]int{7, 2, 9})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumHard() != 3 {
		t.Fatalf("NumHard = %d, want 3", d.NumHard())
	}
	// Dense labels assigned in ascending original order.
	if d.ToHard[2] != 0 || d.ToHard[7] != 1 || d.ToHard[9] != 2 {
		t.Fatalf("ToHard = %v", d.ToHard)
	}
	for orig, hard := range d.ToHard {
		if d.FromHard[hard] != orig {
			t.Fatalf("FromHard does not invert ToHard for %d", orig)
		}
	}
	if !d.IsHard(7) || d.IsHard(3) {
		t.Fatal("IsHard membership wrong")
	}
}

func TestClassDictRejectsBadInput(t *testing.T) {
	if _, err := NewClassDict(nil); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := NewClassDict([]int{1, 1}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := NewClassDict([]int{-1}); err == nil {
		t.Fatal("negative label accepted")
	}
}

func TestClassDictBijectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(20)
		n := 1 + rng.Intn(k)
		d, err := SelectRandomClasses(rng, k, n)
		if err != nil {
			return false
		}
		if d.NumHard() != n {
			return false
		}
		for orig, hard := range d.ToHard {
			if d.FromHard[hard] != orig {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectHardClassesPicksLowPrecision(t *testing.T) {
	cm := metrics.NewConfusion(4)
	// Class 3 is always predicted correctly and rarely polluted; class 0 is
	// heavily polluted (low precision).
	cm.AddBatch(
		[]int{0, 0, 1, 1, 2, 2, 3, 3, 1, 2},
		[]int{0, 1, 0, 1, 0, 2, 3, 3, 0, 2},
	)
	d, err := SelectHardClasses(cm, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsHard(0) {
		t.Fatalf("lowest-precision class 0 not selected: %v", d.FromHard)
	}
	if d.IsHard(3) {
		t.Fatalf("highest-precision class 3 selected: %v", d.FromHard)
	}
}

func TestSelectHardClassesRange(t *testing.T) {
	cm := metrics.NewConfusion(3)
	if _, err := SelectHardClasses(cm, 0); err == nil {
		t.Fatal("nHard=0 accepted")
	}
	if _, err := SelectHardClasses(cm, 4); err == nil {
		t.Fatal("nHard>K accepted")
	}
}

func TestFilterHardDataRemapsLabels(t *testing.T) {
	s := testData(t, 1)
	d, err := NewClassDict([]int{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	hard := FilterHardData(s.Train, d)
	if hard.NumClasses != 3 {
		t.Fatalf("NumClasses = %d, want 3", hard.NumClasses)
	}
	if hard.N != 90 {
		t.Fatalf("N = %d, want 90", hard.N)
	}
	for _, y := range hard.Y {
		if y < 0 || y > 2 {
			t.Fatalf("label %d not remapped", y)
		}
	}
}

func TestBuildVariantsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b, err := models.BuildResNet(rng, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildMEANetA(rng, b, 1, 1); err == nil {
		t.Fatal("1-class model accepted")
	}
	if _, err := BuildMEANetA(rng, b, 2, 6); err == nil {
		t.Fatal("out-of-range split accepted")
	}
	if _, err := BuildMEANetB(rng, b, 0, 6, CombineSum); err == nil {
		t.Fatal("0-block extension accepted")
	}
	if _, err := BuildMEANetB(rng, b, 1, 6, CombineMode(99)); err == nil {
		t.Fatal("bad combine mode accepted")
	}
}

func TestMEANetForwardShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *MEANet
	}{
		{"A", buildA(t, 3, 6)},
		{"B/sum", buildB(t, 4, 6, CombineSum)},
		{"B/concat", buildB(t, 5, 6, CombineConcat)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			rng := rand.New(rand.NewSource(6))
			x := tensor.Randn(rng, 1, 3, 2, 8, 8)
			feat, logits := m.MainForward(x, false)
			if logits.Dim(0) != 3 || logits.Dim(1) != 6 {
				t.Fatalf("main logits shape %v", logits.Shape())
			}
			// Build an extension exit manually to exercise ExtForward.
			d, err := NewClassDict([]int{0, 1, 2})
			if err != nil {
				t.Fatal(err)
			}
			m.Dict = d
			m.ExtExit = models.NewExit(rng, "x", m.ExtOutChannels(), 3)
			ext, err := m.ExtForward(x, feat, false)
			if err != nil {
				t.Fatal(err)
			}
			if ext.Dim(0) != 3 || ext.Dim(1) != 3 {
				t.Fatalf("ext logits shape %v", ext.Shape())
			}
		})
	}
}

func TestExtForwardWithoutExitErrors(t *testing.T) {
	m := buildA(t, 7, 6)
	rng := rand.New(rand.NewSource(7))
	x := tensor.Randn(rng, 1, 2, 2, 8, 8)
	feat, _ := m.MainForward(x, false)
	if _, err := m.ExtForward(x, feat, false); err == nil {
		t.Fatal("ExtForward without exit should error")
	}
}

func TestTrainEdgeRequiresSelection(t *testing.T) {
	m := buildA(t, 8, 6)
	s := testData(t, 8)
	if err := TrainEdgeBlocks(m, s.Train, quickCfg(1, 8)); err == nil {
		t.Fatal("edge training without hard-class selection should error")
	}
}

// TestAlgorithm1Pipeline is the end-to-end reproduction of Algorithm 1 on a
// tiny workload: pretrain the main block, select hard classes on a held-out
// validation split, adapt the edge blocks on hard data only, and verify
// (a) the main block is bit-identical afterwards (it was frozen),
// (b) hard-class training accuracy improves substantially (Table II shape),
// (c) edge-only MEANet test accuracy does not regress (Table III shape).
func TestAlgorithm1Pipeline(t *testing.T) {
	s := testData(t, 11)
	m := buildA(t, 11, 6)
	rng := rand.New(rand.NewSource(11))
	val, trainSet := s.Train.Split(0.15, rng)

	if err := TrainMainBlock(m, trainSet, quickCfg(12, 11)); err != nil {
		t.Fatal(err)
	}
	cm, _, err := EvaluateMain(m, val, 16)
	if err != nil {
		t.Fatal(err)
	}
	dict, err := SelectHardClasses(cm, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.Dict = dict

	// Snapshot frozen state.
	snapshot := make([][]float32, 0)
	for _, p := range m.MainParams() {
		snapshot = append(snapshot, append([]float32(nil), p.Data.Data()...))
	}

	mainTrainHard, _, err := HardSubsetAccuracy(m, trainSet, 16)
	// ExtExit not built yet → expect error; build via training below.
	if err == nil {
		t.Fatal("HardSubsetAccuracy before edge training should error (no ext exit)")
	}

	if err := TrainEdgeBlocks(m, trainSet, quickCfg(15, 12)); err != nil {
		t.Fatal(err)
	}

	for i, p := range m.MainParams() {
		for j, v := range p.Data.Data() {
			if snapshot[i][j] != v {
				t.Fatalf("frozen main param %s changed at %d", p.Name, j)
			}
		}
	}

	mainTrainHard, meaTrainHard, err := HardSubsetAccuracy(m, trainSet, 16)
	if err != nil {
		t.Fatal(err)
	}
	if meaTrainHard <= mainTrainHard {
		t.Fatalf("edge adaptation did not improve hard-class train accuracy: main %.3f vs MEANet %.3f",
			mainTrainHard, meaTrainHard)
	}

	mainRep, err := Evaluate(m, s.Test, 16, Policy{UseCloud: false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Edge-only MEANet must not collapse relative to a main-only baseline.
	cmTest, _, err := EvaluateMain(m, s.Test, 16)
	if err != nil {
		t.Fatal(err)
	}
	if mainRep.Overall < cmTest.Accuracy()-0.05 {
		t.Fatalf("MEANet test accuracy %.3f collapsed vs main-only %.3f", mainRep.Overall, cmTest.Accuracy())
	}
	if mainRep.ExitCounts[ExitExtension] == 0 {
		t.Fatal("no instance took the extension path")
	}
}

func TestTrainMainBlockLearns(t *testing.T) {
	s := testData(t, 13)
	m := buildB(t, 13, 6, CombineSum)
	if err := TrainMainBlock(m, s.Train, quickCfg(10, 13)); err != nil {
		t.Fatal(err)
	}
	cm, _, err := EvaluateMain(m, s.Train, 16)
	if err != nil {
		t.Fatal(err)
	}
	if acc := cm.Accuracy(); acc < 0.5 {
		t.Fatalf("main block failed to learn: train accuracy %.3f", acc)
	}
}

func TestEstimateThresholdRangeOrdering(t *testing.T) {
	s := testData(t, 14)
	m := buildA(t, 14, 6)
	if err := TrainMainBlock(m, s.Train, quickCfg(10, 14)); err != nil {
		t.Fatal(err)
	}
	lo, hi, ok, err := EstimateThresholdRange(m, s.Test, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("degenerate entropy stats on this seed")
	}
	if lo >= hi {
		t.Fatalf("threshold range (%v, %v) not ordered", lo, hi)
	}
	if lo < 0 || hi > math.Log(6)+1e-9 {
		t.Fatalf("threshold range (%v, %v) outside entropy bounds", lo, hi)
	}
}

func TestInferCloudRouting(t *testing.T) {
	s := testData(t, 15)
	m := buildA(t, 15, 6)
	if err := TrainMainBlock(m, s.Train, quickCfg(6, 15)); err != nil {
		t.Fatal(err)
	}
	cloudCalls := 0
	oracle := func(x *tensor.Tensor) ([]int, error) {
		cloudCalls += x.Dim(0) // instances the cloud saw
		return make([]int, x.Dim(0)), nil
	}
	x, _ := s.Test.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})

	// Threshold 0 with cloud: every instance has entropy > 0 → all cloud.
	dec, err := m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: true}, protocol.RepRaw, oracle)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dec {
		if d.Exit != ExitCloud || d.Pred != 0 {
			t.Fatalf("expected cloud exit with oracle pred, got %+v", d)
		}
	}
	if cloudCalls != 8 {
		t.Fatalf("cloud called %d times, want 8", cloudCalls)
	}

	// Huge threshold: nothing goes to cloud.
	cloudCalls = 0
	dec, err = m.InferBatchedRep(x, Policy{Threshold: 100, UseCloud: true}, protocol.RepRaw, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if cloudCalls != 0 {
		t.Fatalf("cloud called %d times with huge threshold", cloudCalls)
	}
	for _, d := range dec {
		if d.Exit == ExitCloud {
			t.Fatal("instance exited at cloud despite huge threshold")
		}
	}

	// UseCloud=false ignores the cloud entirely.
	dec, err = m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: false}, protocol.RepRaw, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if cloudCalls != 0 {
		t.Fatal("cloud called with UseCloud=false")
	}
	_ = dec
}

func TestInferCloudFailureFallsBack(t *testing.T) {
	s := testData(t, 16)
	m := buildA(t, 16, 6)
	if err := TrainMainBlock(m, s.Train, quickCfg(6, 16)); err != nil {
		t.Fatal(err)
	}
	failing := func(x *tensor.Tensor) ([]int, error) {
		return nil, errors.New("cloud unreachable")
	}
	x, _ := s.Test.Batch([]int{0, 1, 2, 3})
	dec, err := m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: true}, protocol.RepRaw, failing)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dec {
		if d.Exit == ExitCloud {
			t.Fatal("failed cloud call still recorded a cloud exit")
		}
		if !d.CloudFailed {
			t.Fatal("CloudFailed not set on fallback")
		}
		if d.Pred < 0 || d.Pred >= 6 {
			t.Fatalf("fallback produced invalid prediction %d", d.Pred)
		}
	}
}

// TestInferBatchedOneCallAndPartialFailure pins the aggregated offload
// contract: all complex instances of a batch reach the cloud in ONE
// CloudBatchFunc call, and a reply that answers only part of the batch fails
// the whole batch.
func TestInferBatchedOneCallAndPartialFailure(t *testing.T) {
	s := testData(t, 21)
	m := buildA(t, 21, 6)
	if err := TrainMainBlock(m, s.Train, quickCfg(6, 21)); err != nil {
		t.Fatal(err)
	}
	x, _ := s.Test.Batch([]int{0, 1, 2, 3, 4, 5})

	calls := 0
	threes := func(sub *tensor.Tensor) ([]int, error) {
		calls++
		preds := make([]int, sub.Dim(0))
		for i := range preds {
			preds[i] = 3
		}
		return preds, nil
	}
	dec, err := m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: true}, protocol.RepRaw, threes)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("cloud batch called %d times for one input batch, want 1", calls)
	}
	for i, d := range dec {
		if d.Exit != ExitCloud || d.Pred != 3 || d.CloudFailed {
			t.Fatalf("instance %d should exit at cloud, got %+v", i, d)
		}
	}

	// A short result slice is a malformed response: the whole batch falls
	// back rather than misassigning predictions.
	short := func(sub *tensor.Tensor) ([]int, error) {
		return []int{1}, nil
	}
	dec, err = m.InferBatchedRep(x, Policy{Threshold: 0, UseCloud: true}, protocol.RepRaw, short)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dec {
		if d.Exit == ExitCloud || !d.CloudFailed {
			t.Fatalf("instance %d trusted a short cloud response: %+v", i, d)
		}
	}
}

func TestInferExtensionRoutingRespectsDict(t *testing.T) {
	s := testData(t, 17)
	m := buildA(t, 17, 6)
	if err := TrainMainBlock(m, s.Train, quickCfg(8, 17)); err != nil {
		t.Fatal(err)
	}
	cm, _, err := EvaluateMain(m, s.Train, 16)
	if err != nil {
		t.Fatal(err)
	}
	m.Dict, err = SelectHardClasses(cm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := TrainEdgeBlocks(m, s.Train, quickCfg(6, 17)); err != nil {
		t.Fatal(err)
	}
	dec, err := m.InferDataset(s.Test, 16, Policy{UseCloud: false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dec {
		switch d.Exit {
		case ExitExtension:
			if !m.Dict.IsHard(d.MainPred) {
				t.Fatal("easy-predicted instance routed to extension")
			}
			// The winning prediction must come from a plausible source.
			if d.ConfExt > d.ConfMain && !m.Dict.IsHard(d.Pred) {
				t.Fatal("extension won but final prediction is not a hard class")
			}
		case ExitMain:
			if m.Dict.IsHard(d.MainPred) {
				t.Fatal("hard-predicted instance exited at main")
			}
		}
	}
}

func TestTrainJointUpdatesAllParams(t *testing.T) {
	s := testData(t, 18)
	m := buildB(t, 18, 6, CombineSum)
	before := append([]float32(nil), m.Main.Params()[0].Data.Data()...)
	if err := TrainJoint(m, s.Train, quickCfg(2, 18), 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	changed := false
	for i, v := range m.Main.Params()[0].Data.Data() {
		if before[i] != v {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("joint optimization did not update the main block")
	}
	if m.Dict == nil || m.Dict.NumHard() != 6 {
		t.Fatal("joint training should install the identity dictionary")
	}
	if m.ExtExit == nil {
		t.Fatal("joint training should build an all-classes extension exit")
	}
}

func TestTrainJointConcatCombination(t *testing.T) {
	s := testData(t, 19)
	m := buildB(t, 19, 6, CombineConcat)
	if err := TrainJoint(m, s.Train, quickCfg(2, 19), 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
}

func TestTrainSeparateRuns(t *testing.T) {
	s := testData(t, 20)
	m := buildB(t, 20, 6, CombineSum)
	if err := TrainSeparate(m, s.Train, quickCfg(2, 20)); err != nil {
		t.Fatal(err)
	}
	cm, _, err := EvaluateMain(m, s.Train, 16)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Accuracy() < 1.0/6.0 {
		t.Fatalf("separate training produced worse-than-chance accuracy %.3f", cm.Accuracy())
	}
}

func TestTrainConfigValidation(t *testing.T) {
	s := testData(t, 21)
	m := buildA(t, 21, 6)
	bad := quickCfg(1, 21)
	bad.Epochs = 0
	if err := TrainMainBlock(m, s.Train, bad); err == nil {
		t.Fatal("zero epochs accepted")
	}
	bad = quickCfg(1, 21)
	bad.Batch = 0
	if err := TrainMainBlock(m, s.Train, bad); err == nil {
		t.Fatal("zero batch accepted")
	}
	bad = quickCfg(1, 21)
	bad.LR.Initial = 0
	if err := TrainMainBlock(m, s.Train, bad); err == nil {
		t.Fatal("zero LR accepted")
	}
}

func TestGatherSamples(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	g := gatherSamples(x, []int{2, 0})
	want := []float32{5, 6, 1, 2}
	for i, w := range want {
		if g.Data()[i] != w {
			t.Fatalf("gather[%d] = %v, want %v", i, g.Data()[i], w)
		}
	}
}

func TestDetectionAccuracyBounds(t *testing.T) {
	s := testData(t, 22)
	m := buildA(t, 22, 6)
	if err := TrainMainBlock(m, s.Train, quickCfg(8, 22)); err != nil {
		t.Fatal(err)
	}
	cm, _, err := EvaluateMain(m, s.Train, 16)
	if err != nil {
		t.Fatal(err)
	}
	m.Dict, err = SelectHardClasses(cm, 3)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := DetectionAccuracy(m, s.Test, 16)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("detection accuracy %v out of bounds", acc)
	}
	// Detection should beat coin flipping on a trained model.
	if acc < 0.5 {
		t.Fatalf("detection accuracy %.3f worse than chance", acc)
	}
}
