package nn

import (
	"fmt"
	"math/rand"

	"github.com/meanet/meanet/internal/tensor"
)

// ResidualBlock is the ResNet basic block: two 3x3 conv+BN stages with a
// skip connection and a trailing ReLU. When the block changes resolution or
// width, the shortcut is a 1x1 strided conv+BN projection.
type ResidualBlock struct {
	Body     *Sequential
	Shortcut Layer // Identity or projection Sequential
	act      *ReLU
}

// NewResidualBlock builds a basic residual block inC→outC with the given
// stride on the first convolution.
func NewResidualBlock(rng *rand.Rand, name string, inC, outC, stride int) *ResidualBlock {
	body := NewSequential(name+".body",
		NewConv2D(rng, name+".conv1", inC, outC, 3, stride, 1, false),
		NewBatchNorm2D(name+".bn1", outC),
		NewReLU(),
		NewConv2D(rng, name+".conv2", outC, outC, 3, 1, 1, false),
		NewBatchNorm2D(name+".bn2", outC),
	)
	var shortcut Layer = Identity{}
	if stride != 1 || inC != outC {
		shortcut = NewSequential(name+".shortcut",
			NewConv2D(rng, name+".proj", inC, outC, 1, stride, 0, false),
			NewBatchNorm2D(name+".projbn", outC),
		)
	}
	return &ResidualBlock{Body: body, Shortcut: shortcut, act: NewReLU()}
}

// Forward computes relu(body(x) + shortcut(x)). In eval mode, when the body
// produced its output itself (see Layer), the add and the ReLU run in place
// on that output.
func (b *ResidualBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	var y *tensor.Tensor
	owned := false
	if train {
		y = b.Body.Forward(x, true)
	} else {
		y, owned = b.Body.forwardEval(x)
	}
	s := b.Shortcut.Forward(x, train)
	if !y.SameShape(s) {
		panic(fmt.Sprintf("nn: residual branch shapes diverge: %v vs %v", y.Shape(), s.Shape()))
	}
	if !owned {
		return b.act.Forward(tensor.Add(y, s), train)
	}
	y.AddInPlace(s)
	b.act.evalInPlace(y)
	return y
}

// Backward routes the gradient through both branches and sums.
func (b *ResidualBlock) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dsum := b.act.Backward(dy)
	dxBody := b.Body.Backward(dsum)
	dxShort := b.Shortcut.Backward(dsum)
	return tensor.Add(dxBody, dxShort)
}

// Params returns the parameters of both branches.
func (b *ResidualBlock) Params() []*Param {
	return append(b.Body.Params(), b.Shortcut.Params()...)
}

// InvertedResidual is MobileNetV2's block: a pointwise expansion, a
// depthwise 3x3, and a linear pointwise projection, with a residual skip when
// the geometry allows (stride 1 and equal channel counts).
type InvertedResidual struct {
	Body    *Sequential
	UseSkip bool
}

// NewInvertedResidual builds an inverted-residual block inC→outC with the
// given stride and expansion ratio.
func NewInvertedResidual(rng *rand.Rand, name string, inC, outC, stride, expand int) *InvertedResidual {
	hidden := inC * expand
	body := NewSequential(name + ".body")
	if expand != 1 {
		body.Append(
			NewConv2D(rng, name+".expand", inC, hidden, 1, 1, 0, false),
			NewBatchNorm2D(name+".bn0", hidden),
			NewReLU6(),
		)
	}
	body.Append(
		NewDepthwiseConv2D(rng, name+".dw", hidden, 3, stride, 1),
		NewBatchNorm2D(name+".bn1", hidden),
		NewReLU6(),
		NewConv2D(rng, name+".project", hidden, outC, 1, 1, 0, false),
		NewBatchNorm2D(name+".bn2", outC),
	)
	return &InvertedResidual{Body: body, UseSkip: stride == 1 && inC == outC}
}

// Forward computes x + body(x) when the skip applies, body(x) otherwise.
func (b *InvertedResidual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := b.Body.Forward(x, train)
	if b.UseSkip {
		return tensor.Add(y, x)
	}
	return y
}

// Backward adds the skip gradient when the skip applies.
func (b *InvertedResidual) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := b.Body.Backward(dy)
	if b.UseSkip {
		return tensor.Add(dx, dy)
	}
	return dx
}

// Params returns the block's parameters.
func (b *InvertedResidual) Params() []*Param { return b.Body.Params() }

var (
	_ Layer = (*ResidualBlock)(nil)
	_ Layer = (*InvertedResidual)(nil)
)
