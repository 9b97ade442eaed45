package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/meanet/meanet/internal/tensor"
)

// naiveConv2D is a straightforward 7-loop reference convolution.
func naiveConv2D(x, w *tensor.Tensor, bias []float32, stride, pad int) *tensor.Tensor {
	n, inC, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outC, k := w.Dim(0), w.Dim(2)
	oh := (h+2*pad-k)/stride + 1
	ow := (wd+2*pad-k)/stride + 1
	out := tensor.New(n, outC, oh, ow)
	for i := 0; i < n; i++ {
		for f := 0; f < outC; f++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float64
					for c := 0; c < inC; c++ {
						for ky := 0; ky < k; ky++ {
							sy := oy*stride + ky - pad
							if sy < 0 || sy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								sx := ox*stride + kx - pad
								if sx < 0 || sx >= wd {
									continue
								}
								s += float64(x.At(i, c, sy, sx)) * float64(w.At(f, c, ky, kx))
							}
						}
					}
					if bias != nil {
						s += float64(bias[f])
					}
					out.Set(float32(s), i, f, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	tests := []struct {
		name               string
		inC, outC, k, s, p int
		n, h, w            int
		bias               bool
	}{
		{"3x3s1p1", 3, 4, 3, 1, 1, 2, 8, 8, true},
		{"3x3s2p1", 2, 3, 3, 2, 1, 2, 7, 7, false},
		{"1x1s1p0", 4, 2, 1, 1, 0, 3, 5, 5, true},
		{"5x5s2p2", 1, 2, 5, 2, 2, 1, 9, 9, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(40))
			l := NewConv2D(rng, "c", tc.inC, tc.outC, tc.k, tc.s, tc.p, tc.bias)
			x := tensor.Randn(rng, 1, tc.n, tc.inC, tc.h, tc.w)
			got := l.Forward(x, false)
			var bias []float32
			if tc.bias {
				bias = l.B.Data.Data()
			}
			want := naiveConv2D(x, l.W.Data, bias, tc.s, tc.p)
			if !got.SameShape(want) {
				t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
			}
			for i := range want.Data() {
				if math.Abs(float64(got.Data()[i]-want.Data()[i])) > 1e-4 {
					t.Fatalf("element %d: %v vs naive %v", i, got.Data()[i], want.Data()[i])
				}
			}
		})
	}
}

func TestBatchNormTrainNormalizes(t *testing.T) {
	bn := NewBatchNorm2D("bn", 2)
	rng := rand.New(rand.NewSource(41))
	x := tensor.Randn(rng, 5, 4, 2, 6, 6)
	// Offset channel 1 so the input is clearly not normalized.
	for i := 0; i < 4; i++ {
		s := x.Sample(i).Sample(1)
		for j := range s.Data() {
			s.Data()[j] += 10
		}
	}
	out := bn.Forward(x, true)
	for c := 0; c < 2; c++ {
		var sum, sumSq float64
		cnt := 0
		for i := 0; i < 4; i++ {
			s := out.Sample(i).Sample(c)
			for _, v := range s.Data() {
				sum += float64(v)
				sumSq += float64(v) * float64(v)
				cnt++
			}
		}
		mean := sum / float64(cnt)
		variance := sumSq/float64(cnt) - mean*mean
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("channel %d mean %v, want ~0", c, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d var %v, want ~1", c, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm2D("bn", 1)
	bn.RunningMean[0] = 2
	bn.RunningVar[0] = 4
	x := tensor.FromSlice([]float32{4}, 1, 1, 1, 1)
	out := bn.Forward(x, false)
	// (4-2)/sqrt(4+eps) ≈ 1.
	if math.Abs(float64(out.Data()[0])-1) > 1e-3 {
		t.Fatalf("eval output %v, want ~1", out.Data()[0])
	}
}

func TestBatchNormEvalDoesNotMutateState(t *testing.T) {
	bn := NewBatchNorm2D("bn", 2)
	rng := rand.New(rand.NewSource(42))
	x := tensor.Randn(rng, 1, 2, 2, 3, 3)
	m0, v0 := bn.RunningMean[0], bn.RunningVar[0]
	bn.Forward(x, false)
	if bn.RunningMean[0] != m0 || bn.RunningVar[0] != v0 {
		t.Fatal("eval forward mutated running statistics")
	}
}

func TestEvalForwardIsConcurrencySafe(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	net := NewSequential("net",
		NewConv2D(rng, "c1", 1, 4, 3, 1, 1, false),
		NewBatchNorm2D("b1", 4),
		NewReLU(),
		NewResidualBlock(rng, "r1", 4, 8, 2),
		NewGlobalAvgPool(),
		NewLinear(rng, "fc", 8, 3),
	)
	x := tensor.Randn(rng, 1, 2, 1, 8, 8)
	want := net.Forward(x, false)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				got := net.Forward(x, false)
				for i := range want.Data() {
					if got.Data()[i] != want.Data()[i] {
						t.Errorf("concurrent eval forward diverged")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestGlobalAvgPoolShape(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	x := tensor.Randn(rng, 1, 3, 5, 4, 4)
	out := NewGlobalAvgPool().Forward(x, false)
	if out.Dims() != 2 || out.Dim(0) != 3 || out.Dim(1) != 5 {
		t.Fatalf("GAP shape %v, want [3 5]", out.Shape())
	}
	var s float64
	for _, v := range x.Sample(0).Sample(0).Data() {
		s += float64(v)
	}
	want := float32(s / 16)
	if math.Abs(float64(out.At(0, 0)-want)) > 1e-5 {
		t.Fatalf("GAP value %v, want %v", out.At(0, 0), want)
	}
}

func TestSoftmaxCrossEntropyUniformLoss(t *testing.T) {
	logits := tensor.New(2, 10)
	loss, _ := SoftmaxCrossEntropy(logits, []int{3, 7})
	if math.Abs(loss-math.Log(10)) > 1e-5 {
		t.Fatalf("uniform CE loss %v, want ln(10)", loss)
	}
}

func TestSoftmaxCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.New(1, 4)
	logits.Set(100, 0, 2)
	loss, grad := SoftmaxCrossEntropy(logits, []int{2})
	if loss > 1e-6 {
		t.Fatalf("confident correct loss %v, want ~0", loss)
	}
	if grad.MaxAbs() > 1e-6 {
		t.Fatalf("grad should vanish for perfect prediction, max %v", grad.MaxAbs())
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 5, 0,
		9, 1, 2,
		0, 0, 7,
	}, 3, 3)
	if got := Accuracy(logits, []int{1, 0, 0}); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("Accuracy = %v, want 2/3", got)
	}
}

func TestFreezeHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	l := NewLinear(rng, "fc", 3, 2)
	FreezeParams(l.Params())
	total, trainable := CountParams(l.Params())
	if total != 8 || trainable != 0 {
		t.Fatalf("after freeze: total %d trainable %d, want 8, 0", total, trainable)
	}
	UnfreezeParams(l.Params())
	_, trainable = CountParams(l.Params())
	if trainable != 8 {
		t.Fatalf("after unfreeze: trainable %d, want 8", trainable)
	}
}

func TestSequentialBackwardOrder(t *testing.T) {
	// f(x) = relu(2x) composed via two scale layers implemented as conv 1x1
	// would be overkill; instead verify a Sequential of two ReLUs behaves as
	// one ReLU (idempotent composition) in both directions.
	seq := NewSequential("s", NewReLU(), NewReLU())
	x := tensor.FromSlice([]float32{-1, 2, -3, 4}, 1, 1, 2, 2)
	out := seq.Forward(x, true)
	want := []float32{0, 2, 0, 4}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("seq forward[%d] = %v, want %v", i, out.Data()[i], w)
		}
	}
	dy := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	dx := seq.Backward(dy)
	wantG := []float32{0, 1, 0, 1}
	for i, w := range wantG {
		if dx.Data()[i] != w {
			t.Fatalf("seq backward[%d] = %v, want %v", i, dx.Data()[i], w)
		}
	}
}

func TestInvertedResidualSkipGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	withSkip := NewInvertedResidual(rng, "a", 4, 4, 1, 2)
	if !withSkip.UseSkip {
		t.Fatal("stride-1 equal-channel block should use skip")
	}
	noSkipStride := NewInvertedResidual(rng, "b", 4, 4, 2, 2)
	if noSkipStride.UseSkip {
		t.Fatal("stride-2 block must not use skip")
	}
	noSkipWidth := NewInvertedResidual(rng, "c", 4, 8, 1, 2)
	if noSkipWidth.UseSkip {
		t.Fatal("channel-changing block must not use skip")
	}
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	backwards := map[string]func(dy *tensor.Tensor){
		"conv":   func(dy *tensor.Tensor) { NewConv2D(rng, "c", 1, 1, 3, 1, 1, false).Backward(dy) },
		"bn":     func(dy *tensor.Tensor) { NewBatchNorm2D("b", 1).Backward(dy) },
		"relu":   func(dy *tensor.Tensor) { NewReLU().Backward(dy) },
		"linear": func(dy *tensor.Tensor) { NewLinear(rng, "f", 2, 2).Backward(dy) },
		// BackwardParams' first Conv2D skips the input gradient, not the check.
		"conv params": func(dy *tensor.Tensor) {
			NewSequential("s", NewConv2D(rng, "c", 1, 1, 3, 1, 1, false)).BackwardParams(dy)
		},
	}
	for name, backward := range backwards {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Backward without Forward should panic", name)
				}
			}()
			backward(tensor.New(1, 1, 2, 2))
		})
	}
}
