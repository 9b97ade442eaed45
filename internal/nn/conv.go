package nn

import (
	"fmt"
	"math/rand"

	"github.com/meanet/meanet/internal/tensor"
)

// Conv2D is a standard 2-D convolution over NCHW tensors, implemented as a
// matrix product of the weights with the input's unfold (im2col). Weight
// layout is [outC, inC, kh, kw]. The forward, in both modes, convolves a
// tile of images with one product that packs the unfold straight from the
// images and never forms it; Backward keeps the per-image Im2Col products
// and the per-worker dW reduction the layer has always used, so training
// stays bit-identical at a given worker count.
type Conv2D struct {
	W      *Param
	B      *Param // nil when the convolution has no bias (conv+BN idiom)
	Stride int
	Pad    int

	// Training caches (valid between Forward(train=true) and Backward): the
	// input, which Backward unfolds again one image at a time, and its
	// geometry.
	x    *tensor.Tensor
	dims tensor.ConvDims
}

// NewConv2D builds a convolution with Kaiming-normal weights. bias selects
// whether an additive per-filter bias is learned (convs followed by batch
// norm conventionally have none).
func NewConv2D(rng *rand.Rand, name string, inC, outC, k, stride, pad int, bias bool) *Conv2D {
	c := &Conv2D{
		W:      NewParam(name+".weight", tensor.KaimingConv(rng, outC, inC, k, k)),
		Stride: stride,
		Pad:    pad,
	}
	if bias {
		c.B = NewParam(name+".bias", tensor.New(outC))
		c.B.NoDecay = true
	}
	return c
}

// OutChannels reports the number of output feature maps.
func (c *Conv2D) OutChannels() int { return c.W.Data.Dim(0) }

// InChannels reports the number of input feature maps.
func (c *Conv2D) InChannels() int { return c.W.Data.Dim(1) }

// Kernel reports the (square) kernel size.
func (c *Conv2D) Kernel() int { return c.W.Data.Dim(2) }

// Forward computes the convolution of an NCHW batch, one tile of images at a
// time in both modes. Training caches a reference to x, not its unfold, so x
// must stay unmodified until Backward.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: Conv2D expects NCHW input, got %v", x.Shape()))
	}
	n, inC, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if inC != c.InChannels() {
		panic(fmt.Sprintf("nn: Conv2D %s: input has %d channels, want %d", c.W.Name, inC, c.InChannels()))
	}
	k := c.Kernel()
	dims := tensor.NewConvDims(inC, h, w, k, k, c.Stride, c.Pad)
	out := tensor.New(n, c.OutChannels(), dims.OutH, dims.OutW)
	c.forwardTiles(x, out, dims)
	if train {
		c.x, c.dims = x, dims
	}
	return out
}

// convTileFloats caps each conv workspace at 256 Ki floats (1 MiB).
// The forward convolves a tile of whole images with one product,
// tensor.ConvDims.MatMulUnfoldInto, whose packer reads the images straight
// into the GEMM's panels, so no [K, t*oH*oW] unfold (K = inC*kh*kw) is ever
// formed. The product lands in one [outC, t*oH*oW] result, so the weights
// are packed once per tile rather than once per image and the GEMM sees
// wide operands; the tile t (convTile) is the most images whose results
// fit under the cap — 1 MiB keeps the working set cache-sized and every
// shared buffer a constant size whatever batch a caller sends — and at
// least one image: a single image larger than the cap gets an exact-size
// buffer that is never kept. The backward takes one workspace per kernel
// worker, holding the worker's partial dW and one image's dW product,
// unfold and unfold gradient (2·outC·K + 2·K·oH·oW floats), under the same
// rule.
const convTileFloats = 256 << 10

// convWorkspaceBufs caps the workspaces the shared list retains: the
// forward's result and one per backward worker, for a few layers or models
// running at once. It retains at most 8 MiB.
const convWorkspaceBufs = 8

// convWorkspaces holds the forward's result matrices and the backward's
// per-worker scratch. They live here rather than on the layer because eval
// Forward runs concurrently on one shared model.
var convWorkspaces = tensor.NewFreeList(convTileFloats, convWorkspaceBufs)

// takeWorkspace returns a buffer of size floats. It comes from
// convWorkspaces, and keep is true, when it fits under convTileFloats; the
// caller hands a kept buffer back with convWorkspaces.Put.
func takeWorkspace(size int) (ws []float32, keep bool) {
	if size > convTileFloats {
		return make([]float32, size), false
	}
	return convWorkspaces.Get()[:size], true
}

// convTile is the number of whole images whose [outC, oH*oW] results fit
// together under convTileFloats, 0 when one image's alone exceeds it.
func convTile(outC int, dims tensor.ConvDims) int {
	return convTileFloats / (outC * dims.ColCols())
}

// forwardTiles is the convolution of x into out, one tile of images at a
// time. Each output column of a product depends only on its own unfold
// column and the weights, so out is bitwise what a per-image product gives.
func (c *Conv2D) forwardTiles(x, out *tensor.Tensor, dims tensor.ConvDims) {
	n := x.Dim(0)
	if n == 0 {
		return
	}
	outC, plane := c.OutChannels(), dims.ColCols()
	tile := min(n, max(1, convTile(outC, dims)))
	res, keep := takeWorkspace(outC * tile * plane)
	inSize, outSize := x.Numel()/n, outC*plane
	xd, od, wd := x.Data(), out.Data(), c.W.Data.Data()
	var bias []float32
	if c.B != nil {
		bias = c.B.Data.Data()
	}
	for i0 := 0; i0 < n; i0 += tile {
		t := min(tile, n-i0)
		ld := t * plane
		dims.MatMulUnfoldInto(res, wd, xd[i0*inSize:(i0+t)*inSize], outC, t)
		// Scatter the [outC, t*plane] result into the images' NCHW
		// outputs, adding the bias. It moves a few kB per image: serial, it
		// costs less than a fork.
		for j := 0; j < t; j++ {
			dst := od[(i0+j)*outSize : (i0+j+1)*outSize]
			for f := 0; f < outC; f++ {
				src := res[f*ld+j*plane : f*ld+(j+1)*plane]
				seg := dst[f*plane : (f+1)*plane]
				if bias == nil {
					copy(seg, src)
					continue
				}
				bv := bias[f]
				for p, v := range src {
					seg[p] = v + bv
				}
			}
		}
	}
	if keep {
		convWorkspaces.Put(res)
	}
}

// Backward accumulates dW (and dB) and returns dX.
//
// The batch splits into one contiguous chunk of images per kernel worker,
// the chunks tensor.ParFor forks. A worker takes one shared workspace and, image by image, unfolds x_i
// again, forms dy_i @ cols_iᵀ on its own and adds it to the worker's partial
// dW, sums dy_i's planes into its partial dB, and folds Wᵀ @ dy_i into dx_i.
// The partials are then added to the gradients in worker order. That is the
// summation order of the per-image products this layer has always formed,
// so the trained weights do not depend on the forward's tiling; they do
// depend on the worker count. A worker left without images takes no
// workspace and its all-zero partial dW is skipped: adding it could only
// have turned a -0 gradient (unreachable from ZeroGrads' +0) into +0.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if c.x == nil {
		panic("nn: Conv2D.Backward without prior Forward(train=true)")
	}
	x, dims := c.x, c.dims
	c.x = nil // release the cache
	n := x.Dim(0)
	outC, rows, plane := c.OutChannels(), dims.ColRows(), dims.ColCols()
	inSize, outSize, wSize := dims.InC*dims.InH*dims.InW, outC*plane, outC*rows
	dx := tensor.New(n, dims.InC, dims.InH, dims.InW)
	xd, dyd, dxd, wd := x.Data(), dy.Data(), dx.Data(), c.W.Data.Data()

	workers := max(1, min(tensor.Parallelism(), n))
	chunk := (n + workers - 1) / workers
	partials := make([][]float32, workers)
	kept := make([][]float32, workers)
	var dBs []float64
	if c.B != nil {
		dBs = make([]float64, workers*outC)
	}
	tensor.ParFor(n, func(start, end int) {
		wkr := start / chunk // ParFor's chunks are these workers'
		ws, keep := takeWorkspace(2*wSize + 2*rows*plane)
		dW, prod := ws[:wSize], ws[wSize:2*wSize]
		cols, dcols := ws[2*wSize:2*wSize+rows*plane], ws[2*wSize+rows*plane:]
		clear(dW)
		for i := start; i < end; i++ {
			dyi := dyd[i*outSize : (i+1)*outSize] // [outC, plane]
			dims.Im2Col(xd[i*inSize:(i+1)*inSize], cols)
			tensor.MatMulNTInto(prod, dyi, cols, outC, plane, rows)
			for j, v := range prod {
				dW[j] += v
			}
			if dBs != nil {
				dB := dBs[wkr*outC : (wkr+1)*outC]
				for f := range dB {
					var s float64
					for _, v := range dyi[f*plane : (f+1)*plane] {
						s += float64(v)
					}
					dB[f] += s
				}
			}
			tensor.MatMulTNInto(dcols, wd, dyi, rows, outC, plane)
			dims.Col2Im(dcols, dxd[i*inSize:(i+1)*inSize])
		}
		partials[wkr] = dW
		if keep {
			kept[wkr] = ws
		}
	})

	gW := c.W.Grad.Data()
	for wkr, dW := range partials {
		for j, v := range dW {
			gW[j] += v
		}
		if kept[wkr] != nil {
			convWorkspaces.Put(kept[wkr])
		}
		if dBs != nil {
			gB := c.B.Grad.Data()
			for f, v := range dBs[wkr*outC : (wkr+1)*outC] {
				gB[f] += float32(v)
			}
		}
	}
	return dx
}

// Params returns the weight (and bias, if present).
func (c *Conv2D) Params() []*Param {
	if c.B == nil {
		return []*Param{c.W}
	}
	return []*Param{c.W, c.B}
}

var _ Layer = (*Conv2D)(nil)
