package nn

import (
	"fmt"
	"math"

	"github.com/meanet/meanet/internal/tensor"
)

// ReLU is the rectified linear activation max(x, 0).
type ReLU struct{ gate }

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(x, 0) elementwise to a pooled copy of x.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := pooledCopy(x)
	r.forwardInPlace(out, train)
	return out
}

// forwardInPlace applies max(x, 0) to x itself; see the ownership rule on
// Layer. Everything not above zero (negatives, both zeros, NaN) becomes +0.
// In train mode it caches which inputs were positive. One comparison per
// element (positive) selects both the value, all of its bits or none, and
// the mask: there is no branch on the sign, which half the activations
// would mispredict.
func (r *ReLU) forwardInPlace(x *tensor.Tensor, train bool) {
	d := x.Data()
	if !train {
		for i, v := range d {
			u := math.Float32bits(v)
			d[i] = math.Float32frombits(u & positive(u))
		}
		return
	}
	mask := r.start(len(d))[:len(d)]
	for i, v := range d {
		u := math.Float32bits(v)
		keep := positive(u)
		d[i] = math.Float32frombits(u & keep)
		mask[i] = keep != 0
	}
}

// positive is all 32 bits set when the float32 whose bits are u lies above
// zero, and none when it is a zero, negative or NaN: exactly then u-1, read
// as unsigned, lies below the bits of +Inf. It is integer arithmetic, with
// no branch and no float compare.
func positive(u uint32) uint32 {
	return uint32((int64(u-1) - 0x7f800000) >> 63)
}

// ReLU6 is the clipped rectifier min(max(x, 0), 6) used by MobileNetV2.
type ReLU6 struct{ gate }

// NewReLU6 returns a ReLU6 activation layer.
func NewReLU6() *ReLU6 { return &ReLU6{} }

// Forward applies min(max(x, 0), 6) elementwise to a pooled copy of x.
func (r *ReLU6) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := pooledCopy(x)
	r.forwardInPlace(out, train)
	return out
}

// forwardInPlace applies min(max(x, 0), 6) to x itself; see the ownership
// rule on Layer. In train mode it caches where the input lay strictly
// between 0 and 6 (NaN included: it passes through). Like ReLU it selects
// the value and the mask from its two comparisons without a branch.
func (r *ReLU6) forwardInPlace(x *tensor.Tensor, train bool) {
	const six = 0x40c00000 // the bits of float32(6)
	d := x.Data()
	var mask []bool
	if train {
		mask = r.start(len(d))[:len(d)]
	}
	for i, v := range d {
		low, high := ones(v <= 0), ones(v >= 6)
		d[i] = math.Float32frombits(math.Float32bits(v)&^(low|high) | six&high)
		if mask != nil {
			mask[i] = low|high == 0
		}
	}
}

// ones is all 32 bits set when b holds and none otherwise; the compiler
// forms it with a conditional move, not a branch.
func ones(b bool) uint32 {
	var m uint32
	if b {
		m = ^uint32(0)
	}
	return m
}

// gate is the rectifiers' train cache and Backward: the gradient passes
// where the forward's input lay in the linear region and is +0 elsewhere.
// The mask is taken from the input, never read back from the output, which
// its consumer may overwrite (the adaptive sum lands in the adaptive
// block's last ReLU output). Its storage outlives the step: the next train
// forward clears and refills it, and grows it only when it is too short.
type gate struct {
	mask []bool // nil outside a train step
	buf  []bool // the mask's storage, kept across steps
}

// start returns the mask a train forward of n elements fills, every
// element of it.
func (g *gate) start(n int) []bool {
	if cap(g.buf) < n {
		g.buf = make([]bool, n)
	}
	g.mask = g.buf[:n]
	return g.mask
}

// Backward gates the gradient by the mask.
func (g *gate) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := Pooled(dy.Shape()...)
	g.into(dy, dx)
	return dx
}

// backwardInPlace is Backward overwriting dy; see the ownership rule on Layer.
func (g *gate) backwardInPlace(dy *tensor.Tensor) { g.into(dy, dy) }

// into writes the gated dy to dx, which may be dy, and spends the mask.
func (g *gate) into(dy, dx *tensor.Tensor) {
	if g.mask == nil {
		panic("nn: rectifier Backward without prior Forward(train=true)")
	}
	mask, d, out := g.mask, dy.Data(), dx.Data()
	if len(d) != len(mask) || len(out) != len(mask) {
		panic(fmt.Sprintf("nn: rectifier Backward of %d gradients into %d, forward saw %d", len(d), len(out), len(mask)))
	}
	d, out = d[:len(mask)], out[:len(mask)]
	for i, m := range mask {
		out[i] = math.Float32frombits(math.Float32bits(d[i]) & ones(m))
	}
	g.mask = nil
}

// Params returns nil: a rectifier has no parameters.
func (*gate) Params() []*Param { return nil }

var (
	_ Layer = (*ReLU)(nil)
	_ Layer = (*ReLU6)(nil)
)
