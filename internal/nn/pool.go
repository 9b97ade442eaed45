package nn

import (
	"fmt"

	"github.com/meanet/meanet/internal/tensor"
)

// AvgPool2D averages non-overlapping (or strided) square windows of an NCHW
// tensor.
type AvgPool2D struct {
	K, Stride int

	inShape []int // training cache
}

// NewAvgPool2D builds an average-pooling layer with window k and the given
// stride (use stride == k for non-overlapping pooling).
func NewAvgPool2D(k, stride int) *AvgPool2D { return &AvgPool2D{K: k, Stride: stride} }

func poolGeom(x *tensor.Tensor, k, stride int) (n, c, h, w, oh, ow int) {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: pooling expects NCHW input, got %v", x.Shape()))
	}
	n, c, h, w = x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh = (h-k)/stride + 1
	ow = (w-k)/stride + 1
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: pooling window %d stride %d too large for %dx%d input", k, stride, h, w))
	}
	return n, c, h, w, oh, ow
}

// Forward averages each window.
func (p *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w, oh, ow := poolGeom(x, p.K, p.Stride)
	out := tensor.New(n, c, oh, ow)
	inv := 1.0 / float32(p.K*p.K)
	tensor.ParFor(n, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			for ch := 0; ch < c; ch++ {
				src := x.Data()[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
				dst := out.Data()[(i*c+ch)*oh*ow : (i*c+ch+1)*oh*ow]
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						var s float32
						for ky := 0; ky < p.K; ky++ {
							row := src[(oy*p.Stride+ky)*w+ox*p.Stride:]
							for kx := 0; kx < p.K; kx++ {
								s += row[kx]
							}
						}
						dst[oy*ow+ox] = s * inv
					}
				}
			}
		}
	})
	if train {
		p.inShape = x.Shape()
	}
	return out
}

// Backward spreads each output gradient uniformly over its window.
func (p *AvgPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if p.inShape == nil {
		panic("nn: AvgPool2D.Backward without prior Forward(train=true)")
	}
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	oh, ow := dy.Dim(2), dy.Dim(3)
	dx := tensor.New(n, c, h, w)
	inv := 1.0 / float32(p.K*p.K)
	tensor.ParFor(n, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			for ch := 0; ch < c; ch++ {
				src := dy.Data()[(i*c+ch)*oh*ow : (i*c+ch+1)*oh*ow]
				dst := dx.Data()[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						g := src[oy*ow+ox] * inv
						for ky := 0; ky < p.K; ky++ {
							row := dst[(oy*p.Stride+ky)*w+ox*p.Stride:]
							for kx := 0; kx < p.K; kx++ {
								row[kx] += g
							}
						}
					}
				}
			}
		}
	})
	p.inShape = nil
	return dx
}

// Params returns nil: pooling has no parameters.
func (p *AvgPool2D) Params() []*Param { return nil }

// MaxPool2D takes the maximum of square windows of an NCHW tensor.
type MaxPool2D struct {
	K, Stride int

	inShape []int
	argmax  []int32 // flat input index of each window maximum
}

// NewMaxPool2D builds a max-pooling layer with window k and the given stride.
func NewMaxPool2D(k, stride int) *MaxPool2D { return &MaxPool2D{K: k, Stride: stride} }

// Forward takes the max of each window, remembering argmax positions when
// training.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w, oh, ow := poolGeom(x, p.K, p.Stride)
	out := tensor.New(n, c, oh, ow)
	var argmax []int32
	if train {
		argmax = make([]int32, n*c*oh*ow)
	}
	tensor.ParFor(n, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			for ch := 0; ch < c; ch++ {
				base := (i*c + ch) * h * w
				src := x.Data()[base : base+h*w]
				obase := (i*c + ch) * oh * ow
				dst := out.Data()[obase : obase+oh*ow]
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						bestIdx := (oy*p.Stride)*w + ox*p.Stride
						best := src[bestIdx]
						for ky := 0; ky < p.K; ky++ {
							for kx := 0; kx < p.K; kx++ {
								idx := (oy*p.Stride+ky)*w + ox*p.Stride + kx
								if src[idx] > best {
									best, bestIdx = src[idx], idx
								}
							}
						}
						dst[oy*ow+ox] = best
						if train {
							argmax[obase+oy*ow+ox] = int32(base + bestIdx)
						}
					}
				}
			}
		}
	})
	if train {
		p.inShape = x.Shape()
		p.argmax = argmax
	}
	return out
}

// Backward routes each output gradient to its window's argmax.
func (p *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if p.argmax == nil {
		panic("nn: MaxPool2D.Backward without prior Forward(train=true)")
	}
	dx := tensor.New(p.inShape...)
	for i, g := range dy.Data() {
		dx.Data()[p.argmax[i]] += g
	}
	p.inShape = nil
	p.argmax = nil
	return dx
}

// Params returns nil: pooling has no parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool reduces [N, C, H, W] to [N, C] by averaging each feature map.
type GlobalAvgPool struct {
	inShape []int
}

// NewGlobalAvgPool builds a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages each channel plane.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool expects NCHW input, got %v", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := tensor.New(n, c)
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

// Backward broadcasts each channel gradient uniformly over its plane.
func (p *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if p.inShape == nil {
		panic("nn: GlobalAvgPool.Backward without prior Forward(train=true)")
	}
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	plane := h * w
	inv := 1.0 / float32(plane)
	dx := tensor.New(n, c, h, w)
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
	_ Layer = (*AvgPool2D)(nil)
	_ Layer = (*MaxPool2D)(nil)
	_ Layer = (*GlobalAvgPool)(nil)
	_ Layer = (*Flatten)(nil)
)
