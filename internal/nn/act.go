package nn

import "github.com/meanet/meanet/internal/tensor"

// ReLU is the rectified linear activation max(x, 0).
type ReLU struct{ gate }

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(x, 0) elementwise.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	r.forwardInPlace(out, train)
	return out
}

// forwardInPlace applies max(x, 0) to x itself; see the in-place rule on
// Layer. Everything not above zero (negatives, both zeros, NaN) becomes +0.
// In train mode it caches which inputs were positive.
func (r *ReLU) forwardInPlace(x *tensor.Tensor, train bool) {
	d := x.Data()
	mask := r.start(len(d), train)
	for i, v := range d {
		switch {
		case !(v > 0):
			d[i] = 0
		case train:
			mask[i] = true
		}
	}
}

// ReLU6 is the clipped rectifier min(max(x, 0), 6) used by MobileNetV2.
type ReLU6 struct{ gate }

// NewReLU6 returns a ReLU6 activation layer.
func NewReLU6() *ReLU6 { return &ReLU6{} }

// Forward applies min(max(x, 0), 6) elementwise.
func (r *ReLU6) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	r.forwardInPlace(out, train)
	return out
}

// forwardInPlace applies min(max(x, 0), 6) to x itself; see the in-place
// rule on Layer. In train mode it caches where the input lay strictly
// between 0 and 6 (NaN included: it passes through).
func (r *ReLU6) forwardInPlace(x *tensor.Tensor, train bool) {
	d := x.Data()
	mask := r.start(len(d), train)
	for i, v := range d {
		switch {
		case v <= 0:
			d[i] = 0
		case v >= 6:
			d[i] = 6
		case train:
			mask[i] = true
		}
	}
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

// start returns the cleared mask a train forward of n elements fills, nil
// in eval.
func (g *gate) start(n int, train bool) []bool {
	if !train {
		return nil
	}
	if cap(g.buf) < n {
		g.buf = make([]bool, n)
	}
	g.mask = g.buf[:n]
	clear(g.mask)
	return g.mask
}

// Backward gates the gradient by the mask.
func (g *gate) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := Pooled(dy.Shape()...)
	g.into(dy, dx)
	return dx
}

// backwardInPlace is Backward overwriting dy; see the in-place rule on Layer.
func (g *gate) backwardInPlace(dy *tensor.Tensor) { g.into(dy, dy) }

// into writes the gated dy to dx, which may be dy, and spends the mask.
func (g *gate) into(dy, dx *tensor.Tensor) {
	if g.mask == nil {
		panic("nn: rectifier Backward without prior Forward(train=true)")
	}
	out := dx.Data()
	for i, v := range dy.Data() {
		if g.mask[i] {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
	g.mask = nil
}

// Params returns nil: a rectifier has no parameters.
func (*gate) Params() []*Param { return nil }

var (
	_ Layer = (*ReLU)(nil)
	_ Layer = (*ReLU6)(nil)
)
