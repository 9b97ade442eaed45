package nn

import "github.com/meanet/meanet/internal/tensor"

// ReLU is the rectified linear activation max(x, 0).
type ReLU struct {
	mask []bool // training cache: which inputs were positive
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(x, 0) elementwise.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	var mask []bool
	if train {
		mask = make([]bool, x.Numel())
	}
	for i, v := range x.Data() {
		if v > 0 {
			out.Data()[i] = v
			if train {
				mask[i] = true
			}
		}
	}
	if train {
		r.mask = mask
	}
	return out
}

// evalInPlace applies max(x, 0) to x itself; see the in-place rule on
// Layer. Everything not above zero (negatives, both zeros, NaN) becomes +0,
// exactly as in Forward's zero-filled output.
func (r *ReLU) evalInPlace(x *tensor.Tensor) {
	d := x.Data()
	for i, v := range d {
		if !(v > 0) {
			d[i] = 0
		}
	}
}

// Backward gates the gradient by the positive mask.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic("nn: ReLU.Backward without prior Forward(train=true)")
	}
	dx := tensor.New(dy.Shape()...)
	for i, v := range dy.Data() {
		if r.mask[i] {
			dx.Data()[i] = v
		}
	}
	r.mask = nil
	return dx
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// ReLU6 is the clipped rectifier min(max(x, 0), 6) used by MobileNetV2.
type ReLU6 struct {
	mask []bool // true where 0 < x < 6
}

// NewReLU6 returns a ReLU6 activation layer.
func NewReLU6() *ReLU6 { return &ReLU6{} }

// Forward applies min(max(x, 0), 6) elementwise.
func (r *ReLU6) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	var mask []bool
	if train {
		mask = make([]bool, x.Numel())
	}
	for i, v := range x.Data() {
		switch {
		case v <= 0:
			// zero
		case v >= 6:
			out.Data()[i] = 6
		default:
			out.Data()[i] = v
			if train {
				mask[i] = true
			}
		}
	}
	if train {
		r.mask = mask
	}
	return out
}

// Backward passes gradient only through the linear region.
func (r *ReLU6) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic("nn: ReLU6.Backward without prior Forward(train=true)")
	}
	dx := tensor.New(dy.Shape()...)
	for i, v := range dy.Data() {
		if r.mask[i] {
			dx.Data()[i] = v
		}
	}
	r.mask = nil
	return dx
}

// Params returns nil: ReLU6 has no parameters.
func (r *ReLU6) Params() []*Param { return nil }

var (
	_ Layer = (*ReLU)(nil)
	_ Layer = (*ReLU6)(nil)
)
