package meanet_test

// Benchmark harness: one testing.B benchmark per paper table and figure
// (regenerating the experiment at tiny scale and reporting its headline
// numbers as custom metrics), plus micro-benchmarks of the hot kernels.
//
//	go test -bench=. -benchmem
//
// Training of the shared systems happens once per process (cached in the
// experiment context); each benchmark iteration re-runs the measurement
// phase of its experiment.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/experiments"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/opt"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
)

// benchContext lazily builds the shared tiny-scale experiment context.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.Config{Scale: data.ScaleTiny, Seed: 1})
	})
	return benchCtx
}

func BenchmarkFig2ConfusionMatrix(b *testing.B) {
	ctx := benchContext(b)
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(ctx)
		if err != nil {
			b.Fatal(err)
		}
		acc = r.Confusion.Accuracy()
	}
	b.ReportMetric(100*acc, "main-acc-%")
}

func BenchmarkFig3ComplexityCategories(b *testing.B) {
	ctx := benchContext(b)
	var complexShare float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(ctx)
		if err != nil {
			b.Fatal(err)
		}
		complexShare = float64(r.ComplexN) / float64(r.EasyN+r.HardN+r.ComplexN)
	}
	b.ReportMetric(100*complexShare, "complex-%")
}

func BenchmarkFig5ErrorTypes(b *testing.B) {
	ctx := benchContext(b)
	var typeIV float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(ctx)
		if err != nil {
			b.Fatal(err)
		}
		typeIV = r.CIFAR.HardAsHard
	}
	b.ReportMetric(100*typeIV, "hard-as-hard-%")
}

func BenchmarkFig6TrainingMemory(b *testing.B) {
	ctx := benchContext(b)
	var saving float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(ctx)
		if err != nil {
			b.Fatal(err)
		}
		saving = 1 - r.Rows[0].OursMiB/r.Rows[0].JointMiB
	}
	b.ReportMetric(100*saving, "r32a-mem-saving-%")
}

func BenchmarkFig7ThresholdSweep(b *testing.B) {
	ctx := benchContext(b)
	var bestAcc float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		bestAcc = r.Series[0].Points[0].Accuracy // threshold 0 = all-cloud
	}
	b.ReportMetric(100*bestAcc, "allcloud-acc-%")
}

func BenchmarkFig8EnergySweep(b *testing.B) {
	ctx := benchContext(b)
	var edgeOnlyJ float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(ctx)
		if err != nil {
			b.Fatal(err)
		}
		edgeOnlyJ = r.CIFAR[0].TotalJ()
	}
	b.ReportMetric(edgeOnlyJ, "cifar-edgeonly-J")
}

func BenchmarkTableICostModel(b *testing.B) {
	ctx := benchContext(b)
	var edgeCloudJ float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableI(ctx)
		if err != nil {
			b.Fatal(err)
		}
		edgeCloudJ = r.Rows[2].ComputeJ + r.Rows[2].CommJ
	}
	b.ReportMetric(edgeCloudJ, "edgecloud-raw-J")
}

func BenchmarkTableIIHardAccuracy(b *testing.B) {
	ctx := benchContext(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableII(ctx)
		if err != nil {
			b.Fatal(err)
		}
		gain = r.Rows[0].TestMEA - r.Rows[0].TestMain
	}
	b.ReportMetric(100*gain, "hard-test-gain-pts")
}

func BenchmarkTableIIIOverallAccuracy(b *testing.B) {
	ctx := benchContext(b)
	var det float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableIII(ctx)
		if err != nil {
			b.Fatal(err)
		}
		det = r.Rows[0].Detection
	}
	b.ReportMetric(100*det, "detection-%")
}

func BenchmarkTableIVDetection(b *testing.B) {
	ctx := benchContext(b)
	var hardMinusRandom float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableIV(ctx)
		if err != nil {
			b.Fatal(err)
		}
		hardMinusRandom = r.Rows[0].Detection - r.Rows[1].Detection
	}
	b.ReportMetric(100*hardMinusRandom, "hard-vs-random-pts")
}

func BenchmarkTableVClassSelection(b *testing.B) {
	ctx := benchContext(b)
	var halfHardGain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableV(ctx)
		if err != nil {
			b.Fatal(err)
		}
		halfHardGain = r.Rows[0].TrainMEA - r.Rows[0].TrainMain
	}
	b.ReportMetric(100*halfHardGain, "half-hard-train-gain-pts")
}

func BenchmarkTableVIProfile(b *testing.B) {
	ctx := benchContext(b)
	var r32aTrained float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableVI(ctx)
		if err != nil {
			b.Fatal(err)
		}
		r32aTrained = r.Rows[0].TrainedMParam
	}
	b.ReportMetric(r32aTrained, "r32a-trained-Mparams")
}

func BenchmarkTableVIIPerImageCost(b *testing.B) {
	ctx := benchContext(b)
	var cifarEcpMilliJ float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableVII(ctx)
		if err != nil {
			b.Fatal(err)
		}
		cifarEcpMilliJ = 1000 * r.Rows[0].ComputeEnergyJ
	}
	b.ReportMetric(cifarEcpMilliJ, "cifar-Ecp-mJ")
}

func BenchmarkAblationCombine(b *testing.B) {
	ctx := benchContext(b)
	var sumVsMainOnly float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationCombine(ctx)
		if err != nil {
			b.Fatal(err)
		}
		sumVsMainOnly = r.Rows[0].TrainHard - r.Rows[2].TrainHard
	}
	b.ReportMetric(100*sumVsMainOnly, "adaptive-train-gain-pts")
}

func BenchmarkAblationOptimization(b *testing.B) {
	ctx := benchContext(b)
	var memRatio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationOptimization(ctx)
		if err != nil {
			b.Fatal(err)
		}
		memRatio = r.Rows[0].MemoryMiB / r.Rows[1].MemoryMiB
	}
	b.ReportMetric(memRatio, "blockwise/joint-mem")
}

// --- Micro-benchmarks of the hot paths ---

func benchmarkMatMul(b *testing.B, size int) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, size, size)
	y := tensor.Randn(rng, 1, size, size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
	b.SetBytes(int64(size * size * 4))
	flops := 2 * float64(size) * float64(size) * float64(size)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkMatMul128(b *testing.B) { benchmarkMatMul(b, 128) }

func BenchmarkMatMul512(b *testing.B) { benchmarkMatMul(b, 512) }

// BenchmarkMatMulConvTile times the plain matrix product at the eval conv's
// widest shape in edge-only: W[8,72] x cols[72,2304], one 16-image tile of
// group 1's 3x3 conv at 12x12, from a formed column matrix into a
// caller-owned buffer. BenchmarkConv2DTileProduct is the conv's own path.
func BenchmarkMatMulConvTile(b *testing.B) {
	const m, k, n = 8, 72, 16 * 12 * 12
	rng := rand.New(rand.NewSource(1))
	w := tensor.Randn(rng, 1, m, k)
	cols := tensor.Randn(rng, 1, k, n)
	out := make([]float32, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, w.Data(), cols.Data(), m, k, n)
	}
	b.ReportMetric(2*m*k*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkConv2DTileProduct is the same product as BenchmarkMatMulConvTile
// the way the eval conv now runs it: W[8,72] over the unfolds of 16 8x12x12
// images, packed with no column matrix from one zero-padded copy of the
// images, whose copy it times too.
func BenchmarkConv2DTileProduct(b *testing.B) {
	const m, images = 8, 16
	rng := rand.New(rand.NewSource(1))
	dims := tensor.NewConvDims(8, 12, 12, 3, 3, 1, 1)
	k, n := dims.ColRows(), images*dims.ColCols()
	w := tensor.Randn(rng, 1, m, k)
	x := tensor.Randn(rng, 1, images, 8, 12, 12)
	out := make([]float32, m*n)
	padded := make([]float32, images*dims.PaddedLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dims.MatMulUnfoldInto(out, w.Data(), x.Data(), padded, m, images)
	}
	b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	conv := nn.NewConv2D(rng, "b", 16, 32, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 8, 16, 16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

func BenchmarkConv2DTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	conv := nn.NewConv2D(rng, "b", 8, 16, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 8, 8, 12, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := conv.Forward(x, true)
		nn.ZeroGrads(conv.Params())
		conv.Backward(out)
	}
}

// edgeTrainStep returns one step of TrainEdgeBlocks on a seeded batch of the
// benchmark's 3x12x12 inputs: the gradients zeroed, core's EdgeTrainStep
// (the frozen main block's eval forward, the train-mode forward and backward
// of the adaptive and extension blocks and the extension exit), and the SGD
// update.
func edgeTrainStep(tb testing.TB, batch int) func() {
	tb.Helper()
	rng := rand.New(rand.NewSource(4))
	backbone, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
	if err != nil {
		tb.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 2, 20)
	if err != nil {
		tb.Fatal(err)
	}
	m.ExtExit = models.NewExit(rng, "bench.extexit", m.ExtOutChannels(), 10)
	m.FreezeMain()
	params := m.EdgeParams()
	sgd := opt.NewSGD(0.01, 0.9, 5e-4)
	x := tensor.Randn(rng, 1, batch, 3, 12, 12)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % 10
	}
	return func() {
		nn.ZeroGrads(params)
		if _, err := m.EdgeTrainStep(x, labels); err != nil {
			tb.Fatal(err)
		}
		sgd.Step(params)
	}
}

// BenchmarkMEANetTrainStep is one 16-image edgeTrainStep.
func BenchmarkMEANetTrainStep(b *testing.B) {
	step := edgeTrainStep(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "images/s")
}

func BenchmarkMEANetInferBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	backbone, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 2, 20)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 16, 3, 12, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.InferBatchedRep(x, core.Policy{UseCloud: false}, protocol.RepRaw, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "images/s")
}

// mixedBatch is the edge network of BenchmarkMEANetInferBatch with the
// extension path built, and its 16-image batch of the benchmark's 3x12x12
// inputs: an extension exit, and a hard-class set that the main exit
// predicts for part of the batch, so both of Algorithm 2's edge exits run
// on every call. It reports how many images take the extension exit.
func mixedBatch(tb testing.TB) (m *core.MEANet, x *tensor.Tensor, ext int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(4))
	backbone, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
	if err != nil {
		tb.Fatal(err)
	}
	m, err = core.BuildMEANetA(rng, backbone, 2, 20)
	if err != nil {
		tb.Fatal(err)
	}
	m.ExtExit = models.NewExit(rng, "bench.extexit", m.ExtOutChannels(), 10)
	x = tensor.Randn(rng, 1, 16, 3, 12, 12)
	// Untrained, the main exit gives every image the same label. Centring
	// its logits over the batch spreads them; then the hard classes are the
	// labels of the batch's first six images, padded to the extension
	// exit's ten with classes no image of the batch gets.
	_, logits := m.MainForward(x, false)
	bias := m.MainExit.Layers[1].(*nn.Linear).B.Data.Data()
	for c := range bias {
		var mean float32
		for i := 0; i < 16; i++ {
			mean += logits.Row(i)[c] / 16
		}
		bias[c] -= mean
	}
	_, logits = m.MainForward(x, false)
	preds := logits.ArgMaxRows()
	hard, predicted := []int{}, map[int]bool{}
	for i, p := range preds {
		if i < 6 && !slices.Contains(hard, p) {
			hard = append(hard, p)
		}
		predicted[p] = true
	}
	for c := 0; len(hard) < 10; c++ {
		if !predicted[c] {
			hard = append(hard, c)
		}
	}
	if m.Dict, err = core.NewClassDict(hard); err != nil {
		tb.Fatal(err)
	}
	dec, err := m.InferBatchedRep(x, core.Policy{UseCloud: false}, protocol.RepRaw, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for _, d := range dec {
		if d.Exit == core.ExitExtension {
			ext++
		}
	}
	if ext == 0 || ext == len(dec) {
		tb.Fatalf("%d of %d images take the extension exit, want part of the batch", ext, len(dec))
	}
	return m, x, ext
}

// BenchmarkMEANetInferBatchMixed is BenchmarkMEANetInferBatch on
// mixedBatch, so both of Algorithm 2's edge exits run in every iteration.
func BenchmarkMEANetInferBatchMixed(b *testing.B) {
	m, x, ext := mixedBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.InferBatchedRep(x, core.Policy{UseCloud: false}, protocol.RepRaw, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "images/s")
	b.ReportMetric(float64(ext), "ext-images/batch")
}

// partitionedCloud is the cloud's raw-upload model of a partitioned
// deployment, cloud.Partitioned over the edge network's main block and a
// deploy.BuildTailNet features tail, with a batch of the benchmark's
// 3x12x12 images.
func partitionedCloud(tb testing.TB, batch int) (cloud.Model, *tensor.Tensor) {
	tb.Helper()
	rng := rand.New(rand.NewSource(4))
	backbone, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
	if err != nil {
		tb.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 2, 20)
	if err != nil {
		tb.Fatal(err)
	}
	cls, err := deploy.BuildTailNet(rng, m.MainOutChannels(), 20)
	if err != nil {
		tb.Fatal(err)
	}
	tail := &cloud.Tail{Body: cls.Backbone, Exit: cls.Exit}
	return cloud.Partitioned(m.Main, tail), tensor.Randn(rng, 1, batch, 3, 12, 12)
}

// BenchmarkCloudPartitionedForward is the cloud forward of one offload-wan
// offload: a 4-image raw batch through partitionedCloud.
func BenchmarkCloudPartitionedForward(b *testing.B) {
	model, x := partitionedCloud(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Logits(x, false)
	}
	b.ReportMetric(float64(4*b.N)/b.Elapsed().Seconds(), "images/s")
}

func BenchmarkProtocolTensorRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.Randn(rng, 1, 3, 32, 32)
	b.Run("tensor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			enc := protocol.EncodeTensor(x)
			if _, err := protocol.DecodeTensor(enc); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(3 * 32 * 32 * 4))
	})
	// The same tensor as a whole MsgInfer payload: the header must cost
	// nothing payload-sized on either side.
	b.Run("MsgInfer", func(b *testing.B) {
		req := protocol.InferRequest{Rep: protocol.RepRaw, Tensor: x}
		for i := 0; i < b.N; i++ {
			enc, err := protocol.EncodeInfer(req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := protocol.DecodeInfer(enc); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(3 * 32 * 32 * 4))
	})
	// The whole wire path of one request, each buffer pooled and handed
	// back the way the TCP client and the server hand theirs back: encode,
	// frame, read the frame, decode into pooled floats, release.
	b.Run("frame", func(b *testing.B) {
		req := protocol.InferRequest{Rep: protocol.RepRaw, Tensor: x}
		floats := tensor.NewBufferPool(1<<18, 4, 1<<20)
		var wire bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			payload, err := protocol.AppendInfer(protocol.NewBuffer(protocol.InferWireSize(0, x.Shape()...)), req)
			if err != nil {
				b.Fatal(err)
			}
			err = protocol.WriteFrame(&wire, protocol.Frame{Type: protocol.MsgInfer, ID: uint64(i), Payload: payload})
			protocol.Recycle(payload)
			if err != nil {
				b.Fatal(err)
			}
			f, err := protocol.ReadFrame(&wire)
			if err != nil {
				b.Fatal(err)
			}
			got, err := protocol.DecodeInferWith(f.Payload, floats.Get)
			f.Release()
			if err != nil {
				b.Fatal(err)
			}
			floats.Put(got.Tensor.Data())
		}
		b.SetBytes(int64(3 * 32 * 32 * 4))
	})
}

func BenchmarkSyntheticGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := data.SynthC100(data.ScaleTiny, int64(i+1))
		if _, err := data.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkStr string

func BenchmarkRenderTables(b *testing.B) {
	ctx := benchContext(b)
	r, err := experiments.TableVI(ctx)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkStr = fmt.Sprint(r)
	}
}
