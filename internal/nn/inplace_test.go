package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/meanet/meanet/internal/tensor"
)

// TestEvalForwardLeavesInputIntact pins the ownership rule's first half: the
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
// Sequential whose BN and ReLU run in place on its conv's output, a
// residual block adding and rectifying in place, and an inverted residual
// adding its skip in place give the bits of running each unit on its own
// (where every step allocates its output).
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

	inv := NewInvertedResidual(rng, "inv", 4, 4, 1, 2)
	randomizeNorms(rng, inv)
	z := x
	for _, l := range inv.Body.Layers {
		z = l.Forward(z, false)
	}
	requireBitwise(t, "inverted residual", inv.Forward(x, false), tensor.Add(z, x))

	// The values where "keep v" and "write 0" could part: both zeros, NaN,
	// the infinities.
	edge := tensor.FromSlice([]float32{float32(math.Copysign(0, -1)), 0, float32(math.NaN()),
		float32(math.Inf(-1)), float32(math.Inf(1)), -1, 1}, 7)
	want := relu.Forward(edge, false)
	relu.forwardInPlace(edge, false)
	requireBitwise(t, "ReLU in place", edge, want)
}

// TestTrainStepLeavesInputsIntact pins what a train-mode Forward that keeps
// its input for Backward (Conv2D unfolds it again there) relies on: no
// layer writes the tensor it was handed — the input in a train Forward, or
// the gradient in Backward, which a residual block hands to both branches.
func TestTrainStepLeavesInputsIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const c = 6
	layers := []Layer{
		NewConv2D(rng, "conv", c, c, 3, 1, 1, true),
		NewBatchNorm2D("bn", c),
		NewReLU(),
		NewReLU6(),
		NewDepthwiseConv2D(rng, "dw", c, 3, 1, 1),
		NewGlobalAvgPool(),
		NewFlatten(),
		Identity{},
		NewResidualBlock(rng, "res", c, c, 1),
		NewResidualBlock(rng, "resproj", c, 2*c, 2),
		NewInvertedResidual(rng, "inv", c, c, 1, 2),
		NewSequential("conv-bn-relu", NewConv2D(rng, "sc", c, c, 3, 1, 1, false), NewBatchNorm2D("sbn", c), NewReLU()),
		NewLinear(rng, "fc", c*8*8, 4),
	}
	x := tensor.Randn(rng, 1, 3, c, 8, 8)
	for _, l := range layers {
		name := fmt.Sprintf("%T", l)
		in := x
		if _, ok := l.(*Linear); ok {
			in = x.Reshape(3, c*8*8)
		}
		before := in.Clone()
		out := l.Forward(in, true)
		dy := tensor.Randn(rng, 1, out.Shape()...)
		dyBefore := dy.Clone()
		l.Backward(dy)
		requireBitwise(t, name+" input after train Forward and Backward", in, before)
		requireBitwise(t, name+" gradient after Backward", dy, dyBefore)
	}
}

// TestRectifierMaskStorageKeptAcrossSteps pins the rectifiers' train cache:
// the mask's storage outlives a step and grows only when a forward is
// longer than it, yet every step's Backward gates by that step's input
// alone — a position set by a longer earlier step never leaks into a
// shorter later one — and a spent mask still refuses a second Backward.
func TestRectifierMaskStorageKeptAcrossSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, tc := range []struct {
		name string
		l    interface {
			Layer
			gateOf() *gate
		}
		pass func(v float32) bool
	}{
		{"relu", reluGate{NewReLU()}, func(v float32) bool { return v > 0 }},
		{"relu6", relu6Gate{NewReLU6()}, func(v float32) bool { return v > 0 && v < 6 }},
	} {
		g := tc.l.gateOf()
		var first *bool
		for step, n := range []int{64, 16, 64, 128} {
			// Step 1 is all negative, so any position a step-0 mask left
			// set would pass a gradient it must not.
			x := tensor.Randn(rng, 4, 1, 1, 1, n)
			if step == 1 {
				for i, v := range x.Data() {
					x.Data()[i] = -float32(math.Abs(float64(v))) - 1
				}
			}
			tc.l.Forward(x, true)
			if step == 0 {
				first = &g.buf[0]
			}
			if grew := &g.buf[0] != first; grew != (n > 64) {
				t.Fatalf("%s step %d (n=%d): mask storage reallocated = %v", tc.name, step, n, grew)
			}
			dy := tensor.Randn(rng, 1, 1, 1, 1, n)
			dx := tc.l.Backward(dy)
			for i, v := range dx.Data() {
				want := float32(0)
				if tc.pass(x.Data()[i]) {
					want = dy.Data()[i]
				}
				if math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("%s step %d: dx[%d] = %v, want %v", tc.name, step, i, v, want)
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s step %d: second Backward on a spent mask did not panic", tc.name, step)
					}
				}()
				tc.l.Backward(dy)
			}()
		}
	}
	r := NewReLU()
	r.Forward(tensor.Randn(rng, 1, 1, 1, 1, 32), false)
	if r.mask != nil || r.buf != nil {
		t.Fatal("eval forward allocated a mask")
	}
}

type reluGate struct{ *ReLU }

func (r reluGate) gateOf() *gate { return &r.gate }

type relu6Gate struct{ *ReLU6 }

func (r relu6Gate) gateOf() *gate { return &r.gate }
