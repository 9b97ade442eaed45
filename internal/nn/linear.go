package nn

import (
	"fmt"
	"math/rand"

	"github.com/meanet/meanet/internal/tensor"
)

// Linear is a fully-connected layer y = x Wᵀ + b over [N, inF] inputs.
// Weight layout is [outF, inF].
type Linear struct {
	W *Param
	B *Param

	lastX *tensor.Tensor // training cache
}

// NewLinear builds a fully-connected layer with Kaiming-normal weights and a
// zero bias.
func NewLinear(rng *rand.Rand, name string, inF, outF int) *Linear {
	b := NewParam(name+".bias", tensor.New(outF))
	b.NoDecay = true
	return &Linear{
		W: NewParam(name+".weight", tensor.KaimingLinear(rng, outF, inF)),
		B: b,
	}
}

// InFeatures reports the input width.
func (l *Linear) InFeatures() int { return l.W.Data.Dim(1) }

// OutFeatures reports the output width.
func (l *Linear) OutFeatures() int { return l.W.Data.Dim(0) }

// Forward computes x Wᵀ + b into a pooled output.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("nn: Linear expects [N, features] input, got %v", x.Shape()))
	}
	if x.Dim(1) != l.InFeatures() {
		panic(fmt.Sprintf("nn: Linear %s: input width %d, want %d", l.W.Name, x.Dim(1), l.InFeatures()))
	}
	n, inF, outF := x.Dim(0), l.InFeatures(), l.OutFeatures()
	out := Pooled(n, outF)
	tensor.MatMulNTInto(out.Data(), x.Data(), l.W.Data.Data(), n, inF, outF)
	bd := l.B.Data.Data()
	for r := 0; r < out.Dim(0); r++ {
		row := out.Row(r)
		for j := range row {
			row[j] += bd[j]
		}
	}
	if train {
		l.lastX = x
	}
	return out
}

// Backward accumulates dW = dyᵀx and db = Σdy, returning dx = dy W in
// pooled storage.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.lastX == nil {
		panic("nn: Linear.Backward without prior Forward(train=true)")
	}
	l.W.Grad.AddInPlace(tensor.MatMulTN(dy, l.lastX))
	gB := l.B.Grad.Data()
	for r := 0; r < dy.Dim(0); r++ {
		for j, v := range dy.Row(r) {
			gB[j] += v
		}
	}
	n, inF := dy.Dim(0), l.InFeatures()
	dx := Pooled(n, inF)
	tensor.MatMulInto(dx.Data(), dy.Data(), l.W.Data.Data(), n, l.OutFeatures(), inF)
	l.lastX = nil
	return dx
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

var _ Layer = (*Linear)(nil)
