package edge

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// tinyTail builds a features tail over the test MEANet's main-block output
// (4 channels) and the partitioned in-process client that answers raw and
// feature uploads with bitwise-identical predictions.
func tinyPartitionedClient(t *testing.T, m *core.MEANet, seed int64, classes int) *InProcClient {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tail := &cloud.Tail{
		Body: nn.Identity{},
		Exit: models.NewExit(rng, "tinytail", m.MainOutChannels(), classes),
	}
	return &InProcClient{Model: cloud.Partitioned(m.Main, tail), Tail: tail}
}

func tinyMEANet(t *testing.T, seed int64) (*core.MEANet, *data.Synth) {
	t.Helper()
	s, err := data.Generate(data.SynthConfig{
		Classes: 6, Groups: 1, GroupSize: 3,
		ImgSize: 8, Channels: 2,
		TrainPerClass: 25, TestPerClass: 10,
		GroupSpread: 0.5, NoiseBase: 0.3, NoiseTail: 0.4, Jitter: 1,
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	b, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "edgetest", InChannels: 2, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, b, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultTrainConfig(6, seed)
	cfg.Batch = 16
	cfg.LR.Initial = 0.05
	if err := core.TrainMainBlock(m, s.Train, cfg); err != nil {
		t.Fatal(err)
	}
	cm, _, err := core.EvaluateMain(m, s.Train, 16)
	if err != nil {
		t.Fatal(err)
	}
	m.Dict, err = core.SelectHardClasses(cm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.TrainEdgeBlocks(m, s.Train, cfg); err != nil {
		t.Fatal(err)
	}
	return m, s
}

func tinyCloud(t *testing.T, seed int64, classes, channels int) *models.Classifier {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "cloudmodel", InChannels: channels, StemChannels: 8,
		Channels: []int{8, 16}, Blocks: []int{2, 2}, Strides: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return models.NewClassifier(rng, b, classes)
}

func testCost() *CostParams {
	return &CostParams{
		MainMACs:   1_000_000,
		ExtMACs:    500_000,
		Compute:    energy.EdgeGPUCIFAR(),
		WiFi:       energy.DefaultWiFi(),
		ImageBytes: 128,
	}
}

func TestInProcClientMatchesDirectInference(t *testing.T) {
	cls := tinyCloud(t, 1, 6, 2)
	client := &InProcClient{Model: cls}
	rng := rand.New(rand.NewSource(2))
	img := tensor.Randn(rng, 1, 2, 8, 8)
	pred, conf, err := client.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	batch := img.Reshape(1, 2, 8, 8)
	logits := cls.Logits(batch, false)
	want := logits.ArgMaxRows()[0]
	if pred != want {
		t.Fatalf("in-proc pred %d, direct %d", pred, want)
	}
	if conf <= 0 || conf > 1 {
		t.Fatalf("confidence %v out of (0,1]", conf)
	}
}

func TestInProcClientValidation(t *testing.T) {
	client := &InProcClient{}
	rng := rand.New(rand.NewSource(3))
	if _, _, err := client.Classify(tensor.Randn(rng, 1, 2, 8, 8)); err == nil {
		t.Fatal("nil model accepted")
	}
	client.Model = tinyCloud(t, 3, 6, 2)
	if _, _, err := client.Classify(tensor.Randn(rng, 1, 1, 2, 8, 8)); err == nil {
		t.Fatal("4-D input accepted")
	}
}

func TestRuntimeEdgeOnlyAccounting(t *testing.T) {
	m, s := tinyMEANet(t, 10)
	rt, err := NewRuntime(m, core.Policy{UseCloud: false}, nil, testCost())
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.Test.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if _, err := rt.Classify(x); err != nil {
		t.Fatal(err)
	}
	rep := rt.Report()
	if rep.N != 8 {
		t.Fatalf("N = %d, want 8", rep.N)
	}
	if rep.Exits[core.ExitCloud] != 0 || rep.BytesSent != 0 || rep.Energy.CommJ != 0 {
		t.Fatalf("edge-only runtime leaked cloud activity: %+v", rep)
	}
	if rep.Energy.ComputeJ <= 0 {
		t.Fatal("compute energy not accounted")
	}
}

func TestRuntimeCloudAccounting(t *testing.T) {
	m, s := tinyMEANet(t, 11)
	cloud := &InProcClient{Model: tinyCloud(t, 11, 6, 2)}
	rt, err := NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, cloud, testCost())
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.Test.Batch([]int{0, 1, 2, 3})
	dec, err := rt.Classify(x)
	if err != nil {
		t.Fatal(err)
	}
	rep := rt.Report()
	// Threshold 0: everything has positive entropy, so all go to cloud.
	if rep.Exits[core.ExitCloud] != 4 {
		t.Fatalf("cloud exits %d, want 4 (decisions %+v)", rep.Exits[core.ExitCloud], dec)
	}
	if rep.CloudFraction() != 1 {
		t.Fatalf("beta = %v, want 1", rep.CloudFraction())
	}
	if rep.BytesSent != 4*128 {
		t.Fatalf("bytes sent %d, want 512", rep.BytesSent)
	}
	if rep.Energy.CommJ <= 0 {
		t.Fatal("communication energy not accounted")
	}
	// Latency accounting: 4 uploads of 128 bytes at the paper's WiFi model.
	wantComm := 4 * energy.DefaultWiFi().UploadTime(128)
	if rep.LatencyComm != wantComm {
		t.Fatalf("comm latency %v, want %v", rep.LatencyComm, wantComm)
	}
	if rep.LatencyCompute <= 0 {
		t.Fatal("compute latency not accounted")
	}
}

type failingClient struct {
	calls      int // per-instance round trips
	batchCalls int // batched round trips
}

func (f *failingClient) Classify(*tensor.Tensor) (int, float64, error) {
	f.calls++
	return 0, 0, errors.New("cloud down")
}
func (f *failingClient) ClassifyBatch([]*tensor.Tensor) ([]int, []float64, error) {
	f.batchCalls++
	return nil, nil, errors.New("cloud down")
}
func (f *failingClient) Close() error { return nil }

// TestRuntimeCloudFailureFallback pins the partial-failure contract of the
// batched offload path: a cloud that errors on the ONE batched call must
// yield per-instance CloudFailed decisions with edge-fallback predictions —
// never a whole-batch Classify error — and every instance still pays its
// upload bytes and energy (the attempt transmitted).
func TestRuntimeCloudFailureFallback(t *testing.T) {
	m, s := tinyMEANet(t, 12)
	fc := &failingClient{}
	rt, err := NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, fc, testCost())
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.Test.Batch([]int{0, 1, 2})
	dec, err := rt.Classify(x)
	if err != nil {
		t.Fatal(err)
	}
	// Edge-only reference: the fallback predictions must match what the edge
	// would have decided with no cloud at all.
	edgeOnly, err := m.InferBatchedRep(x, core.Policy{UseCloud: false}, core.RepRaw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dec {
		if d.Exit == core.ExitCloud {
			t.Fatal("failed cloud still produced cloud exit")
		}
		if !d.CloudFailed {
			t.Fatalf("instance %d missing CloudFailed", i)
		}
		if d.Pred != edgeOnly[i].Pred || d.Exit != edgeOnly[i].Exit {
			t.Fatalf("instance %d fallback %d/%v, edge-only %d/%v",
				i, d.Pred, d.Exit, edgeOnly[i].Pred, edgeOnly[i].Exit)
		}
	}
	rep := rt.Report()
	if rep.CloudFailures != 3 {
		t.Fatalf("cloud failures %d, want 3", rep.CloudFailures)
	}
	// The whole batch failed in ONE round trip — not three serial ones.
	if fc.batchCalls != 1 || fc.calls != 0 {
		t.Fatalf("cloud saw %d batch + %d serial calls, want 1 + 0", fc.batchCalls, fc.calls)
	}
	// Failed uploads still cost transmission bytes and energy per instance.
	if rep.BytesSent != 3*testCost().ImageBytes {
		t.Fatalf("bytes sent %d, want %d", rep.BytesSent, 3*testCost().ImageBytes)
	}
	if rep.Energy.CommJ <= 0 {
		t.Fatal("failed uploads should still cost communication energy")
	}
	// And every instance was still classified at the edge.
	if rep.Exits[core.ExitMain]+rep.Exits[core.ExitExtension] != 3 {
		t.Fatalf("fallback exits wrong: %+v", rep.Exits)
	}
}

// countingClient wraps InProcClient and counts round trips, proving the
// runtime issues at most one cloud call per input batch.
type countingClient struct {
	InProcClient
	calls      int
	batchCalls int
	instances  int
}

func (c *countingClient) Classify(img *tensor.Tensor) (int, float64, error) {
	c.calls++
	return c.InProcClient.Classify(img)
}

func (c *countingClient) ClassifyBatch(imgs []*tensor.Tensor) ([]int, []float64, error) {
	c.batchCalls++
	c.instances += len(imgs)
	return c.InProcClient.ClassifyBatch(imgs)
}

// Infer intercepts the call the runtime makes (promoted from the embedded
// InProcClient otherwise).
func (c *countingClient) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	c.batchCalls++
	c.instances += req.Instances()
	return c.InProcClient.Infer(req)
}

// TestRuntimeBatchedOffloadOneRoundTrip: all complex instances of a batch
// share one ClassifyBatch call, and the predictions are bitwise identical to
// the serial per-instance path.
func TestRuntimeBatchedOffloadOneRoundTrip(t *testing.T) {
	m, s := tinyMEANet(t, 17)
	cc := &countingClient{InProcClient: InProcClient{Model: tinyCloud(t, 17, 6, 2)}}
	rt, err := NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, cc, testCost())
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.Test.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	dec, err := rt.Classify(x)
	if err != nil {
		t.Fatal(err)
	}
	if cc.batchCalls != 1 || cc.calls != 0 {
		t.Fatalf("one batch should cost one round trip, saw %d batch + %d serial", cc.batchCalls, cc.calls)
	}
	if cc.instances != 8 {
		t.Fatalf("batched call carried %d instances, want 8", cc.instances)
	}
	// Serial reference: per-instance offload through the same model.
	serial, err := m.InferBatchedRep(x, core.Policy{Threshold: 0, UseCloud: true}, core.RepRaw,
		func(sub *tensor.Tensor) ([]int, []float64, []error, error) {
			preds, confs := make([]int, sub.Dim(0)), make([]float64, sub.Dim(0))
			errs := make([]error, sub.Dim(0))
			for i := range preds {
				preds[i], confs[i], errs[i] = cc.InProcClient.Classify(sub.Sample(i))
			}
			return preds, confs, errs, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec {
		if dec[i].Pred != serial[i].Pred || dec[i].Exit != serial[i].Exit {
			t.Fatalf("instance %d: batched %d/%v, serial %d/%v",
				i, dec[i].Pred, dec[i].Exit, serial[i].Pred, serial[i].Exit)
		}
	}
}

// TestInProcClassifyBatchBitwise: the in-process batch call must agree
// bitwise with per-image Classify (same kernels, same accumulation order).
func TestInProcClassifyBatchBitwise(t *testing.T) {
	client := &InProcClient{Model: tinyCloud(t, 18, 6, 2)}
	rng := rand.New(rand.NewSource(18))
	imgs := make([]*tensor.Tensor, 5)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 1, 2, 8, 8)
	}
	preds, confs, err := client.ClassifyBatch(imgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range imgs {
		pred, conf, err := client.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
		if preds[i] != pred || confs[i] != conf {
			t.Fatalf("image %d: batch %d/%v, single %d/%v (must be bitwise identical)",
				i, preds[i], confs[i], pred, conf)
		}
	}
	if _, _, err := client.ClassifyBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, _, err := client.ClassifyBatch([]*tensor.Tensor{
		tensor.Randn(rng, 1, 2, 8, 8), tensor.Randn(rng, 1, 2, 4, 4),
	}); err == nil {
		t.Fatal("mixed-shape batch accepted")
	}
}

func TestRuntimeValidation(t *testing.T) {
	m, _ := tinyMEANet(t, 13)
	if _, err := NewRuntime(nil, core.Policy{}, nil, nil); err == nil {
		t.Fatal("nil MEANet accepted")
	}
	if _, err := NewRuntime(m, core.Policy{UseCloud: true}, nil, nil); err == nil {
		t.Fatal("cloud policy without client accepted")
	}
}

func TestRuntimeSetThresholdAndReset(t *testing.T) {
	m, s := tinyMEANet(t, 14)
	cloud := &InProcClient{Model: tinyCloud(t, 14, 6, 2)}
	rt, err := NewRuntime(m, core.Policy{Threshold: 100, UseCloud: true}, cloud, testCost())
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.Test.Batch([]int{0, 1})
	if _, err := rt.Classify(x); err != nil {
		t.Fatal(err)
	}
	if rt.Report().Exits[core.ExitCloud] != 0 {
		t.Fatal("threshold 100 should keep everything at the edge")
	}
	rt.SetThreshold(0)
	if _, err := rt.Classify(x); err != nil {
		t.Fatal(err)
	}
	if rt.Report().Exits[core.ExitCloud] != 2 {
		t.Fatalf("after lowering threshold, cloud exits %d, want 2", rt.Report().Exits[core.ExitCloud])
	}
	rt.Reset()
	rep := rt.Report()
	if rep.N != 0 || rep.BytesSent != 0 || len(rep.Exits) != 0 {
		t.Fatalf("Reset left state: %+v", rep)
	}
}

func TestOffloadModeParseAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want OffloadMode
	}{{"raw", OffloadRaw}, {"features", OffloadFeatures}, {"feat", OffloadFeatures}, {"auto", OffloadAuto}} {
		got, err := ParseOffloadMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseOffloadMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseOffloadMode("pixels"); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if OffloadRaw.String() != "raw" || OffloadFeatures.String() != "features" || OffloadAuto.String() != "auto" {
		t.Fatal("offload mode names wrong")
	}
}

// rawOnlyClient is a CloudClient without the features extension (no method
// promotion: the inner client is a named field, not embedded).
type rawOnlyClient struct{ inner InProcClient }

func (c *rawOnlyClient) Classify(img *tensor.Tensor) (int, float64, error) {
	return c.inner.Classify(img)
}
func (c *rawOnlyClient) ClassifyBatch(imgs []*tensor.Tensor) ([]int, []float64, error) {
	return c.inner.ClassifyBatch(imgs)
}
func (c *rawOnlyClient) Close() error { return nil }

func TestRuntimeSetOffloadModeValidation(t *testing.T) {
	m, _ := tinyMEANet(t, 20)
	inproc := tinyPartitionedClient(t, m, 20, 6) // feature-capable: it has a tail
	cost := testCost()
	cost.FeatureBytes = 64
	rt, err := NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, inproc, cost)
	if err != nil {
		t.Fatal(err)
	}
	if rt.OffloadMode() != OffloadRaw {
		t.Fatalf("default offload mode %v, want raw", rt.OffloadMode())
	}
	for _, mode := range []OffloadMode{OffloadRaw, OffloadFeatures, OffloadAuto} {
		if err := rt.SetOffloadMode(mode); err != nil {
			t.Fatalf("SetOffloadMode(%v) on feature-capable client: %v", mode, err)
		}
		if rt.OffloadMode() != mode {
			t.Fatalf("mode not applied: %v", rt.OffloadMode())
		}
	}
	if err := rt.SetOffloadMode(OffloadMode(42)); err == nil {
		t.Fatal("invalid mode accepted")
	}

	// A cost model without FeatureBytes cannot account feature uploads: the
	// forced features mode is rejected (auto degrades to raw instead).
	rtNoFeat, err := NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, inproc, testCost())
	if err != nil {
		t.Fatal(err)
	}
	if err := rtNoFeat.SetOffloadMode(OffloadFeatures); err == nil {
		t.Fatal("features mode accepted without CostParams.FeatureBytes")
	}
	if err := rtNoFeat.SetOffloadMode(OffloadAuto); err != nil {
		t.Fatalf("auto mode should stay available without FeatureBytes: %v", err)
	}

	// A transport without the features extension rejects features/auto.
	raw := &rawOnlyClient{inner: InProcClient{Model: tinyCloud(t, 20, 6, 2)}}
	if carries(asTransport(raw), protocol.RepFeatures) {
		t.Fatal("rawOnlyClient unexpectedly feature-capable")
	}
	rt2, err := NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, raw, testCost())
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.SetOffloadMode(OffloadFeatures); err == nil {
		t.Fatal("features mode accepted on a raw-only transport")
	}
}

// TestRuntimeOffloadModesBitwiseAndBytes is the in-process acceptance test of
// the tentpole: against a partitioned cloud (raw model = tail∘main),
// predictions are bitwise identical in raw, features and auto modes; only
// the modeled bytes and communication energy differ, and auto picks the
// cheaper representation.
func TestRuntimeOffloadModesBitwiseAndBytes(t *testing.T) {
	m, s := tinyMEANet(t, 21)
	client := tinyPartitionedClient(t, m, 21, 6)
	x, _ := s.Test.Batch([]int{0, 1, 2, 3, 4, 5})

	cost := testCost()
	cost.FeatureBytes = 64 // cheaper than ImageBytes (128) → auto picks features
	runMode := func(mode OffloadMode) ([]core.Decision, Report) {
		t.Helper()
		rt, err := NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, client, cost)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetOffloadMode(mode); err != nil {
			t.Fatal(err)
		}
		dec, err := rt.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		return dec, rt.Report()
	}

	rawDec, rawRep := runMode(OffloadRaw)
	featDec, featRep := runMode(OffloadFeatures)
	autoDec, autoRep := runMode(OffloadAuto)
	for i := range rawDec {
		if rawDec[i].Exit != core.ExitCloud {
			t.Fatalf("instance %d did not exit at cloud: %+v", i, rawDec[i])
		}
		if rawDec[i].Pred != featDec[i].Pred || rawDec[i].Pred != autoDec[i].Pred ||
			rawDec[i].Exit != featDec[i].Exit || rawDec[i].Exit != autoDec[i].Exit {
			t.Fatalf("instance %d diverged across modes: raw %+v, features %+v, auto %+v",
				i, rawDec[i], featDec[i], autoDec[i])
		}
	}

	if rawRep.BytesSent != 6*cost.ImageBytes || rawRep.RawUploads != 6 || rawRep.FeatureUploads != 0 {
		t.Fatalf("raw accounting wrong: %+v", rawRep)
	}
	if featRep.BytesSent != 6*cost.FeatureBytes || featRep.FeatureUploads != 6 || featRep.RawUploads != 0 {
		t.Fatalf("features accounting wrong: %+v", featRep)
	}
	if autoRep.BytesSent != featRep.BytesSent || autoRep.FeatureUploads != 6 {
		t.Fatalf("auto did not pick the cheaper features representation: %+v", autoRep)
	}
	if featRep.Energy.CommJ >= rawRep.Energy.CommJ {
		t.Fatalf("feature uploads should cost less comm energy: %v >= %v",
			featRep.Energy.CommJ, rawRep.Energy.CommJ)
	}

	// When features are the more expensive representation, auto flips to raw.
	cost.FeatureBytes = 4 * cost.ImageBytes
	expDec, expRep := runMode(OffloadAuto)
	if expRep.BytesSent != 6*cost.ImageBytes || expRep.RawUploads != 6 || expRep.FeatureUploads != 0 {
		t.Fatalf("auto should fall back to raw when features cost more: %+v", expRep)
	}
	for i := range expDec {
		if expDec[i].Pred != rawDec[i].Pred {
			t.Fatalf("auto(raw) instance %d pred %d, want %d", i, expDec[i].Pred, rawDec[i].Pred)
		}
	}
}

// TestRuntimeAutoDegradesToRaw: auto without a cost model (or without
// FeatureBytes) cannot compare the uploads and must behave exactly like raw.
func TestRuntimeAutoDegradesToRaw(t *testing.T) {
	m, s := tinyMEANet(t, 22)
	client := tinyPartitionedClient(t, m, 22, 6)
	rt, err := NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, client, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetOffloadMode(OffloadAuto); err != nil {
		t.Fatal(err)
	}
	x, _ := s.Test.Batch([]int{0, 1, 2})
	if _, err := rt.Classify(x); err != nil {
		t.Fatal(err)
	}
	rep := rt.Report()
	if rep.RawUploads != 3 || rep.FeatureUploads != 0 {
		t.Fatalf("auto without a cost model should upload raw: %+v", rep)
	}
}

func TestReportCloudFractionEmpty(t *testing.T) {
	var rep Report
	if rep.CloudFraction() != 0 {
		t.Fatal("empty report should have beta 0")
	}
}

// TestRuntimeSetThresholdClassifyRace hammers SetThreshold (and the Policy
// getter) against concurrent Classify calls. Classify must snapshot the
// whole policy under the runtime mutex before wiring the cloud path; the
// race detector (CI runs this suite with -race) catches any unlocked read
// of r.policy.
func TestRuntimeSetThresholdClassifyRace(t *testing.T) {
	m, s := tinyMEANet(t, 16)
	cloud := &InProcClient{Model: tinyCloud(t, 16, 6, 2)}
	rt, err := NewRuntime(m, core.Policy{Threshold: 0.5, UseCloud: true}, cloud, testCost())
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.Test.Batch([]int{0, 1, 2, 3})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			rt.SetThreshold(float64(i%3) * 0.5)
			_ = rt.Policy()
		}
	}()
	for i := 0; i < 25; i++ {
		if _, err := rt.Classify(x); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	rep := rt.Report()
	if rep.N != 25*4 {
		t.Fatalf("accounting lost instances under concurrent threshold updates: N=%d", rep.N)
	}
}

// TestRuntimeConcurrentClassify drives one runtime from several goroutines;
// accounting must stay consistent (run under -race in CI).
func TestRuntimeConcurrentClassify(t *testing.T) {
	m, s := tinyMEANet(t, 15)
	cloud := &InProcClient{Model: tinyCloud(t, 15, 6, 2)}
	rt, err := NewRuntime(m, core.Policy{Threshold: 0.5, UseCloud: true}, cloud, testCost())
	if err != nil {
		t.Fatal(err)
	}
	const workers, batches = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < batches; rep++ {
				x, _ := s.Test.Batch([]int{0, 1, 2, 3})
				if _, err := rt.Classify(x); err != nil {
					errs <- err
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
	rep := rt.Report()
	if rep.N != workers*batches*4 {
		t.Fatalf("accounting lost instances: N=%d, want %d", rep.N, workers*batches*4)
	}
	total := 0
	for _, c := range rep.Exits {
		total += c
	}
	if total != rep.N {
		t.Fatalf("exit counts %d do not sum to N %d", total, rep.N)
	}
}
