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
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/experiments"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/nn"
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

func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	conv := nn.NewConv2D(rng, "b", 16, 32, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 8, 16, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

func BenchmarkConv2DTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	conv := nn.NewConv2D(rng, "b", 8, 16, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 8, 8, 12, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := conv.Forward(x, true)
		nn.ZeroGrads(conv.Params())
		conv.Backward(out)
	}
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.InferBatchedRep(x, core.Policy{UseCloud: false}, core.RepRaw, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "images/s")
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
