package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/meanet/meanet/internal/tensor"
)

// DepthwiseConv2D convolves each input channel with its own single filter —
// the spatial half of MobileNetV2's depthwise-separable convolution.
// Weight layout is [C, kh, kw].
type DepthwiseConv2D struct {
	W      *Param
	Stride int
	Pad    int

	lastX *tensor.Tensor // training cache
	dims  tensor.ConvDims
}

// NewDepthwiseConv2D builds a depthwise convolution over c channels with
// Kaiming-normal weights (fan-in = kh*kw per channel).
func NewDepthwiseConv2D(rng *rand.Rand, name string, c, k, stride, pad int) *DepthwiseConv2D {
	std := math.Sqrt(2.0 / float64(k*k))
	return &DepthwiseConv2D{
		W:      NewParam(name+".weight", tensor.Randn(rng, std, c, k, k)),
		Stride: stride,
		Pad:    pad,
	}
}

// Channels reports the number of channels (== number of filters).
func (d *DepthwiseConv2D) Channels() int { return d.W.Data.Dim(0) }

// Kernel reports the (square) kernel size.
func (d *DepthwiseConv2D) Kernel() int { return d.W.Data.Dim(1) }

// Forward applies the per-channel convolution to an NCHW batch.
func (d *DepthwiseConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: DepthwiseConv2D expects NCHW input, got %v", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c != d.Channels() {
		panic(fmt.Sprintf("nn: DepthwiseConv2D %s: input has %d channels, want %d", d.W.Name, c, d.Channels()))
	}
	k := d.Kernel()
	geo := tensor.NewConvDims(1, h, w, k, k, d.Stride, d.Pad)
	out := tensor.New(n, c, geo.OutH, geo.OutW)
	tensor.ParFor(n*c, func(idx0, idx1 int) {
		for idx := idx0; idx < idx1; idx++ {
			ch := idx % c
			src := x.Data()[idx*h*w : (idx+1)*h*w]
			dst := out.Data()[idx*geo.OutH*geo.OutW : (idx+1)*geo.OutH*geo.OutW]
			ker := d.W.Data.Data()[ch*k*k : (ch+1)*k*k]
			for oy := 0; oy < geo.OutH; oy++ {
				for ox := 0; ox < geo.OutW; ox++ {
					var s float32
					for ky := 0; ky < k; ky++ {
						sy := oy*d.Stride + ky - d.Pad
						if sy < 0 || sy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							sx := ox*d.Stride + kx - d.Pad
							if sx < 0 || sx >= w {
								continue
							}
							s += src[sy*w+sx] * ker[ky*k+kx]
						}
					}
					dst[oy*geo.OutW+ox] = s
				}
			}
		}
	})
	if train {
		d.lastX = x
		d.dims = geo
	}
	return out
}

// Backward accumulates per-channel filter gradients and returns dX.
// Parallelised over channels so each worker touches disjoint gradient state.
func (d *DepthwiseConv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if d.lastX == nil {
		panic("nn: DepthwiseConv2D.Backward without prior Forward(train=true)")
	}
	x := d.lastX
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	k := d.Kernel()
	geo := d.dims
	dx := tensor.New(n, c, h, w)
	tensor.ParFor(c, func(ch0, ch1 int) {
		for ch := ch0; ch < ch1; ch++ {
			gW := d.W.Grad.Data()[ch*k*k : (ch+1)*k*k]
			ker := d.W.Data.Data()[ch*k*k : (ch+1)*k*k]
			for i := 0; i < n; i++ {
				idx := i*c + ch
				src := x.Data()[idx*h*w : (idx+1)*h*w]
				g := dy.Data()[idx*geo.OutH*geo.OutW : (idx+1)*geo.OutH*geo.OutW]
				dst := dx.Data()[idx*h*w : (idx+1)*h*w]
				for oy := 0; oy < geo.OutH; oy++ {
					for ox := 0; ox < geo.OutW; ox++ {
						gv := g[oy*geo.OutW+ox]
						if gv == 0 {
							continue
						}
						for ky := 0; ky < k; ky++ {
							sy := oy*d.Stride + ky - d.Pad
							if sy < 0 || sy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								sx := ox*d.Stride + kx - d.Pad
								if sx < 0 || sx >= w {
									continue
								}
								gW[ky*k+kx] += src[sy*w+sx] * gv
								dst[sy*w+sx] += ker[ky*k+kx] * gv
							}
						}
					}
				}
			}
		}
	})
	d.lastX = nil
	return dx
}

// Params returns the depthwise filter bank.
func (d *DepthwiseConv2D) Params() []*Param { return []*Param{d.W} }

var _ Layer = (*DepthwiseConv2D)(nil)
