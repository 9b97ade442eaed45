package nn

import (
	"fmt"
	"math"

	"github.com/meanet/meanet/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW batch to zero mean and unit
// variance (training mode uses batch statistics and updates exponential
// running statistics; evaluation mode uses the running statistics and is
// read-only). A learned per-channel affine (gamma, beta) follows.
type BatchNorm2D struct {
	Gamma *Param // [C]
	Beta  *Param // [C]

	RunningMean []float32
	RunningVar  []float32
	Momentum    float64
	Eps         float64

	// Training caches: xhat's storage comes from the activation pool and
	// goes back at Backward.
	xhat   *tensor.Tensor
	invStd []float32
}

// NewBatchNorm2D builds a batch-norm layer for c channels with gamma=1,
// beta=0, running stats (0, 1), momentum 0.1 and eps 1e-5.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	g := NewParam(name+".gamma", tensor.Ones(c))
	b := NewParam(name+".beta", tensor.New(c))
	g.NoDecay, b.NoDecay = true, true
	rv := make([]float32, c)
	for i := range rv {
		rv[i] = 1
	}
	return &BatchNorm2D{
		Gamma:       g,
		Beta:        b,
		RunningMean: make([]float32, c),
		RunningVar:  rv,
		Momentum:    0.1,
		Eps:         1e-5,
	}
}

// Channels reports the number of normalized channels.
func (bn *BatchNorm2D) Channels() int { return bn.Gamma.Data.Numel() }

func (bn *BatchNorm2D) checkInput(x *tensor.Tensor) {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: BatchNorm2D expects NCHW input, got %v", x.Shape()))
	}
	if x.Dim(1) != bn.Channels() {
		panic(fmt.Sprintf("nn: BatchNorm2D has %d channels, input has %d", bn.Channels(), x.Dim(1)))
	}
}

// Forward normalizes x. Training mode computes batch statistics (biased
// variance, matching the normalization path of standard implementations)
// and updates the running statistics in place. The output is pooled (see
// the allocation rule on Layer).
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	bn.checkInput(x)
	out := Pooled(x.Shape()...)
	if train {
		bn.trainInto(x, out)
	} else {
		bn.evalInto(x, out)
	}
	return out
}

// forwardInPlace normalizes x, overwriting it; see the ownership rule on
// Layer.
func (bn *BatchNorm2D) forwardInPlace(x *tensor.Tensor, train bool) {
	bn.checkInput(x)
	if train {
		bn.trainInto(x, x)
	} else {
		bn.evalInto(x, x)
	}
}

// trainInto writes the train-mode normalization of x to out, which may be
// x: each channel's statistics are complete before any of its elements is
// written.
func (bn *BatchNorm2D) trainInto(x, out *tensor.Tensor) {
	n, cch := x.Dim(0), x.Dim(1)
	plane := x.Dim(2) * x.Dim(3)
	m := n * plane
	gamma, beta := bn.Gamma.Data.Data(), bn.Beta.Data.Data()

	xhat := Pooled(x.Shape()...)
	invStd := make([]float32, cch)
	tensor.ParFor(cch, func(c0, c1 int) {
		for c := c0; c < c1; c++ {
			var sum, sumSq float64
			for i := 0; i < n; i++ {
				src := x.Data()[(i*cch+c)*plane : (i*cch+c+1)*plane]
				for _, v := range src {
					sum += float64(v)
					sumSq += float64(v) * float64(v)
				}
			}
			mean := sum / float64(m)
			variance := sumSq/float64(m) - mean*mean
			if variance < 0 {
				variance = 0
			}
			inv := 1.0 / math.Sqrt(variance+bn.Eps)
			invStd[c] = float32(inv)
			g, b := gamma[c], beta[c]
			for i := 0; i < n; i++ {
				src := x.Data()[(i*cch+c)*plane : (i*cch+c+1)*plane]
				xh := xhat.Data()[(i*cch+c)*plane : (i*cch+c+1)*plane]
				dst := out.Data()[(i*cch+c)*plane : (i*cch+c+1)*plane]
				for j, v := range src {
					xv := float32((float64(v) - mean) * inv)
					xh[j] = xv
					dst[j] = g*xv + b
				}
			}
			bn.RunningMean[c] = float32((1-bn.Momentum)*float64(bn.RunningMean[c]) + bn.Momentum*mean)
			bn.RunningVar[c] = float32((1-bn.Momentum)*float64(bn.RunningVar[c]) + bn.Momentum*variance)
		}
	})
	bn.xhat = xhat
	bn.invStd = invStd
}

// evalInto writes the eval-mode normalization of x to out, which may be x.
func (bn *BatchNorm2D) evalInto(x, out *tensor.Tensor) {
	n, cch := x.Dim(0), x.Dim(1)
	plane := x.Dim(2) * x.Dim(3)
	gamma, beta := bn.Gamma.Data.Data(), bn.Beta.Data.Data()
	tensor.ParFor(cch, func(c0, c1 int) {
		for c := c0; c < c1; c++ {
			mean := bn.RunningMean[c]
			inv := float32(1.0 / math.Sqrt(float64(bn.RunningVar[c])+bn.Eps))
			g, b := gamma[c], beta[c]
			for i := 0; i < n; i++ {
				src := x.Data()[(i*cch+c)*plane : (i*cch+c+1)*plane]
				dst := out.Data()[(i*cch+c)*plane : (i*cch+c+1)*plane]
				for j, v := range src {
					dst[j] = g*(v-mean)*inv + b
				}
			}
		}
	})
}

// Backward implements the standard batch-norm gradient:
//
//	dx = gamma·invStd/m · (m·dy − Σdy − x̂·Σ(dy·x̂))
func (bn *BatchNorm2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := Pooled(dy.Shape()...)
	bn.backwardInto(dy, dx)
	return dx
}

// backwardInPlace is Backward overwriting dy; see the ownership rule on Layer.
func (bn *BatchNorm2D) backwardInPlace(dy *tensor.Tensor) { bn.backwardInto(dy, dy) }

// backwardInto writes Backward's result to dx, which may be dy: each
// channel's sums are complete before any of its elements is written. It
// hands the x̂ cache back to the activation pool.
func (bn *BatchNorm2D) backwardInto(dy, dx *tensor.Tensor) {
	if bn.xhat == nil {
		panic("nn: BatchNorm2D.Backward without prior Forward(train=true)")
	}
	n, cch := dy.Dim(0), dy.Dim(1)
	plane := dy.Dim(2) * dy.Dim(3)
	m := float64(n * plane)
	gamma := bn.Gamma.Data.Data()
	gGamma, gBeta := bn.Gamma.Grad.Data(), bn.Beta.Grad.Data()

	tensor.ParFor(cch, func(c0, c1 int) {
		for c := c0; c < c1; c++ {
			var sumDy, sumDyXhat float64
			for i := 0; i < n; i++ {
				d := dy.Data()[(i*cch+c)*plane : (i*cch+c+1)*plane]
				xh := bn.xhat.Data()[(i*cch+c)*plane : (i*cch+c+1)*plane]
				for j, v := range d {
					sumDy += float64(v)
					sumDyXhat += float64(v) * float64(xh[j])
				}
			}
			gGamma[c] += float32(sumDyXhat)
			gBeta[c] += float32(sumDy)
			scale := float64(gamma[c]) * float64(bn.invStd[c]) / m
			for i := 0; i < n; i++ {
				d := dy.Data()[(i*cch+c)*plane : (i*cch+c+1)*plane]
				xh := bn.xhat.Data()[(i*cch+c)*plane : (i*cch+c+1)*plane]
				dst := dx.Data()[(i*cch+c)*plane : (i*cch+c+1)*plane]
				for j, v := range d {
					dst[j] = float32(scale * (m*float64(v) - sumDy - float64(xh[j])*sumDyXhat))
				}
			}
		}
	})
	activations.Put(bn.xhat.Data())
	bn.xhat = nil
	bn.invStd = nil
}

// Params returns gamma and beta.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

var _ Layer = (*BatchNorm2D)(nil)
