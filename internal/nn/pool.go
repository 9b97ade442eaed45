package nn

import (
	"fmt"

	"github.com/meanet/meanet/internal/tensor"
)

// GlobalAvgPool reduces [N, C, H, W] to [N, C] by averaging each feature map.
type GlobalAvgPool struct {
	inShape []int
}

// NewGlobalAvgPool builds a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages each channel plane into a pooled [N, C] output.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool expects NCHW input, got %v", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := Pooled(n, c)
	plane := h * w
	inv := 1.0 / float64(plane)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			src := x.Data()[(i*c+ch)*plane : (i*c+ch+1)*plane]
			var s float64
			for _, v := range src {
				s += float64(v)
			}
			out.Data()[i*c+ch] = float32(s * inv)
		}
	}
	if train {
		p.inShape = x.Shape()
	}
	return out
}

// Backward broadcasts each channel gradient uniformly over its plane of a
// pooled input gradient.
func (p *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if p.inShape == nil {
		panic("nn: GlobalAvgPool.Backward without prior Forward(train=true)")
	}
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	plane := h * w
	inv := 1.0 / float32(plane)
	dx := Pooled(n, c, h, w)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			g := dy.Data()[i*c+ch] * inv
			dst := dx.Data()[(i*c+ch)*plane : (i*c+ch+1)*plane]
			for j := range dst {
				dst[j] = g
			}
		}
	}
	p.inShape = nil
	return dx
}

// Params returns nil: pooling has no parameters.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Flatten reshapes [N, ...] to [N, prod(...)].
type Flatten struct {
	inShape []int
}

// NewFlatten builds a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the leading dimension.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		f.inShape = x.Shape()
	}
	return x.Reshape(x.Dim(0), -1)
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if f.inShape == nil {
		panic("nn: Flatten.Backward without prior Forward(train=true)")
	}
	out := dy.Reshape(f.inShape...)
	f.inShape = nil
	return out
}

// Params returns nil: Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }

var (
	_ Layer = (*GlobalAvgPool)(nil)
	_ Layer = (*Flatten)(nil)
)
