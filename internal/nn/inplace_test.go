package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/meanet/meanet/internal/tensor"
)

// TestEvalForwardLeavesInputIntact pins the in-place rule's first half: the
// eval Forward of every Layer type — including the composites that run
// BN/ReLU/the residual add in place, and a Sequential that starts with a
// norm, as a partition stage cut after a conv does — leaves the tensor it
// was handed bit-identical.
func TestEvalForwardLeavesInputIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const c = 6
	bn := func(name string) *BatchNorm2D {
		b := NewBatchNorm2D(name, c)
		for i := range b.RunningMean {
			b.RunningMean[i] = float32(rng.NormFloat64())
			b.RunningVar[i] = float32(0.5 + rng.Float64())
		}
		b.Gamma.Data.CopyFrom(tensor.Randn(rng, 1, c))
		b.Beta.Data.CopyFrom(tensor.Randn(rng, 1, c))
		return b
	}
	image := []Layer{
		NewConv2D(rng, "conv", c, c, 3, 1, 1, true),
		bn("bn"),
		NewReLU(),
		NewReLU6(),
		NewDepthwiseConv2D(rng, "dw", c, 3, 1, 1),
		NewAvgPool2D(2, 2),
		NewMaxPool2D(2, 2),
		NewGlobalAvgPool(),
		NewFlatten(),
		Identity{},
		NewResidualBlock(rng, "res", c, c, 1),
		NewResidualBlock(rng, "resproj", c, 2*c, 2),
		&ResidualBlock{Body: NewSequential("empty"), Shortcut: Identity{}, act: NewReLU()},
		NewInvertedResidual(rng, "inv", c, c, 1, 2),
		NewInvertedResidual(rng, "invproj", c, 2*c, 2, 1),
		NewSequential("conv-bn-relu", NewConv2D(rng, "sc", c, c, 3, 1, 1, false), bn("sbn"), NewReLU()),
		NewSequential("bn-relu", bn("cut"), NewReLU()),
		NewSequential("relu-bn", NewReLU(), bn("late")),
		NewSequential("empty"),
	}
	x := tensor.Randn(rng, 1, 3, c, 8, 8)
	for _, l := range image {
		checkInputIntact(t, fmt.Sprintf("%T", l), l, x)
	}
	checkInputIntact(t, "*nn.Linear", NewLinear(rng, "fc", 10, 4), tensor.Randn(rng, 1, 3, 10))
}

func checkInputIntact(t *testing.T, name string, l Layer, x *tensor.Tensor) {
	t.Helper()
	before := x.Clone()
	l.Forward(x, false)
	requireBitwise(t, name+" input after eval Forward", x, before)
}

// TestInPlaceCompositesMatchUnitReplay pins the rule's second half: a
// Sequential whose BN and ReLU run in place on its conv's output, and a
// residual block adding and rectifying in place, give the bits of running
// each unit on its own (where every step allocates its output).
func TestInPlaceCompositesMatchUnitReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	conv := NewConv2D(rng, "conv", 4, 6, 3, 1, 1, false)
	norm := NewBatchNorm2D("bn", 6)
	for i := range norm.RunningMean {
		norm.RunningMean[i] = float32(rng.NormFloat64())
		norm.RunningVar[i] = float32(0.5 + rng.Float64())
	}
	relu := NewReLU()
	x := tensor.Randn(rng, 1, 5, 4, 9, 9)

	var h *tensor.Tensor = x
	for _, l := range []Layer{conv, norm, relu} {
		h = l.Forward(h, false)
	}
	requireBitwise(t, "conv-bn-relu", NewSequential("s", conv, norm, relu).Forward(x, false), h)

	blk := NewResidualBlock(rng, "res", 4, 6, 2)
	y := x
	for _, l := range blk.Body.Layers {
		y = l.Forward(y, false)
	}
	s := x
	for _, l := range blk.Shortcut.(*Sequential).Layers {
		s = l.Forward(s, false)
	}
	requireBitwise(t, "residual block", blk.Forward(x, false), NewReLU().Forward(tensor.Add(y, s), false))

	// The values where "keep v" and "write 0" could part: both zeros, NaN,
	// the infinities.
	edge := tensor.FromSlice([]float32{float32(math.Copysign(0, -1)), 0, float32(math.NaN()),
		float32(math.Inf(-1)), float32(math.Inf(1)), -1, 1}, 7)
	want := relu.Forward(edge, false)
	relu.evalInPlace(edge)
	requireBitwise(t, "ReLU in place", edge, want)
}
