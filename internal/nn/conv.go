package nn

import (
	"fmt"
	"math/rand"

	"github.com/meanet/meanet/internal/tensor"
)

// Conv2D is a standard 2-D convolution over NCHW tensors, implemented as a
// matrix product of the weights with the input's unfold (im2col). Weight
// layout is [outC, inC, kh, kw]. No path forms the unfold: every product
// packs its blocks straight from the images or the gradients, and a padded
// convolution's products read the images from one zero-bordered copy in
// the layer's workspace, so no packer tests for the padding. The forward,
// in both modes, convolves a tile of images with one product; Backward
// forms the input gradient a tile of images at a time with one Wᵀ·dy
// product, and keeps the per-image dW products and the per-worker dW
// reduction the layer has always used, so training stays bit-identical at
// a given worker count. A caller that drops the input gradient reaches the
// backward without it through Sequential.BackwardParams.
type Conv2D struct {
	W      *Param
	B      *Param // nil when the convolution has no bias (conv+BN idiom)
	Stride int
	Pad    int

	// Training caches (valid between Forward(train=true) and Backward): the
	// input, whose unfold Backward's dW products read one image at a time,
	// and its geometry.
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
// must stay unmodified until Backward. The output's storage comes from the
// activation pool (see the allocation rule on Layer); every element is
// overwritten, so what it held before never shows.
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
	outC := c.OutChannels()
	out := Pooled(n, outC, dims.OutH, dims.OutW)
	if train {
		c.x, c.dims = x, dims
	}
	c.forwardTiles(x, out, dims)
	return out
}

// convTileFloats caps each conv workspace at 256 Ki floats (1 MiB).
// The forward convolves a tile of whole images with one product,
// tensor.ConvDims.MatMulUnfoldInto, whose packer reads the images straight
// into the GEMM's panels, so no [K, t*oH*oW] unfold (K = inC*kh*kw) is ever
// formed. The product lands in one [outC, t*oH*oW] result, so the weights
// are packed once per tile rather than once per image and the GEMM sees
// wide operands. A padded convolution's workspace also holds the tile's
// images copied once with their zero border, [t, inC, H+2P, W+2P]
// (PaddedLen floats per image), which the packer reads. The tile t
// (convTile) is the most images whose results and padded copies fit under
// the cap — 1 MiB keeps the working set cache-sized and every pooled
// workspace one size whatever batch a caller sends — and at least one
// image: a single image larger than the cap gets an exact-size buffer,
// which the pool allocates and never keeps. The backward takes one
// workspace per kernel worker, holding the worker's partial dW, one image's
// dW product, that image's padded copy and the unfold gradients of a tile
// of its images (2·outC·K + PaddedLen + t·K·oH·oW floats), under the same
// rule: its tile (backwardTile) is the most images that fit, at least one.
// Without an input gradient to form it holds the first three alone.
const convTileFloats = 256 << 10

// convWorkspaceBufs caps the workspaces the shared pool retains: the
// forward's result and one per backward worker, for a few layers or models
// running at once. It retains at most 8 MiB.
const convWorkspaceBufs = 8

// convWorkspaces holds the forward's result matrices and the backward's
// per-worker scratch, every one convTileFloats long. They live here rather
// than on the layer because eval Forward runs concurrently on one shared
// model.
var convWorkspaces = tensor.NewBufferPool(convTileFloats, convWorkspaceBufs, convWorkspaceBufs*convTileFloats*4)

// takeWorkspace returns a buffer of size floats from convWorkspaces, which
// the caller hands back with convWorkspaces.Put.
func takeWorkspace(size int) []float32 {
	return convWorkspaces.Get(max(size, convTileFloats))[:size]
}

// activationBufs and activationBytes cap what the activation pool retains.
// Inside a module an eval forward holds about four conv outputs at once (a
// residual block's input, its two body convs and its projection), each
// layer's of its own length, for each kernel worker's forward, and a train
// step its cached activations until Backward. At the module boundary core
// hands back each chunk's main features, the extension path's gathers, its
// combined input and extension output, and a train step's gradients, so a
// mixed edge batch cycles about twice as many distinct lengths through the
// pool as its blocks alone. With 16 buffers the extension path's hand-backs
// filled the pool and its oldest-first eviction dropped the main block's
// buffers, so a 16-image batch with 8 images on the extension path
// allocated 199 kB, more than the 117 kB it allocated when nothing crossed
// a module boundary; with 32 no request missed. Every exit's pooling and
// linear outputs come from the pool too, and an edge that shares its
// process with a cloud server (the in-process serving tests, the benchmark's
// offload-wan) cycles the server's lengths as well, while the logits the
// server replies with never come back: with 32 buffers such a process kept
// the pool full, eviction dropped conv outputs, and which ones depended on
// the order the kernel workers handed theirs back, so the same stream
// allocated 2.09 to 2.31 kB per image from one run to the next. With 64 it
// settles at about 55 and evicts nothing. The count only lets the pool hold
// more distinct lengths at once: no buffer longer than convTileFloats is
// kept, and never more than 8 MiB in all.
const (
	activationBufs  = 64
	activationBytes = 8 << 20
)

// activations holds the layer outputs, BN caches and input gradients that a
// layer or composite handed back once nothing could read them (the
// ownership rule on Layer); the next request of a similar size, in either
// mode, is served from there.
var activations = tensor.NewBufferPool(convTileFloats, activationBufs, activationBytes)

// convTile is the number of whole images whose [outC, oH*oW] results and
// padded copies fit together under convTileFloats, 0 when one image's
// result and copy alone exceed it.
func convTile(outC int, dims tensor.ConvDims) int {
	return convTileFloats / (outC*dims.ColCols() + dims.PaddedLen())
}

// forwardTiles is the convolution of x into out, one tile of images at a
// time, each tile's images padded once into the workspace beside its
// result. Each output column of a product depends only on its own unfold
// column and the weights, so out is bitwise what a per-image product gives.
func (c *Conv2D) forwardTiles(x, out *tensor.Tensor, dims tensor.ConvDims) {
	n := x.Dim(0)
	if n == 0 {
		return
	}
	outC, plane := c.OutChannels(), dims.ColCols()
	tile := min(n, max(1, convTile(outC, dims)))
	ws := takeWorkspace((outC*plane + dims.PaddedLen()) * tile)
	res, padded := ws[:outC*tile*plane], ws[outC*tile*plane:]
	inSize, outSize := x.Numel()/n, outC*plane
	xd, od, wd := x.Data(), out.Data(), c.W.Data.Data()
	var bias []float32
	if c.B != nil {
		bias = c.B.Data.Data()
	}
	for i0 := 0; i0 < n; i0 += tile {
		t := min(tile, n-i0)
		ld := t * plane
		dims.MatMulUnfoldInto(res, wd, xd[i0*inSize:(i0+t)*inSize], padded, outC, t)
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
	convWorkspaces.Put(ws)
}

// Backward accumulates dW (and dB) and returns dX, whose storage comes from
// the activation pool and is cleared image by image before the fold adds
// into it.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return c.backward(dy, true)
}

// backwardTile is the number of whole images whose [K, oH*oW] unfold
// gradients (K = inC*kh*kw) fit beside a worker's partial dW, one image's
// dW product and one padded image under convTileFloats, at least one.
func backwardTile(outC int, dims tensor.ConvDims) int {
	rows := dims.ColRows()
	return max(1, (convTileFloats-2*outC*rows-dims.PaddedLen())/(rows*dims.ColCols()))
}

// backward is Backward, forming the input gradient only when wantDX is
// set: without it there is no dX buffer, no Wᵀ·dy product and no fold, and
// backward returns nil.
//
// The batch splits into one contiguous chunk of images per kernel worker,
// the chunks tensor.ParFor forks. A worker takes one shared workspace and
// walks its chunk a tile of images at a time (backwardTile; the whole
// chunk when there is no dX to form). Image by image, it forms dy_i @
// unfold(x_i)ᵀ, packed from x_i's padded copy in the workspace (from x_i
// itself when there is no padding), on its own and adds it to the worker's
// partial dW, and sums dy_i's planes into its partial dB; then
// one product Wᵀ @ [dy_0 … dy_{t-1}], packed straight from dy, forms the
// tile's unfold gradients side by side, and each is folded into its
// image's dx. Each column of that product is the per-image product's, sum
// for sum, so dx does not depend on the tile. The partials are then added
// to the gradients in worker order. That is the summation order of the
// per-image products this layer has always formed, so the trained weights
// do not depend on the forward's tiling or the backward's; they do depend
// on the worker count. A worker left without images takes no workspace
// and its all-zero partial dW is skipped: adding it could only have turned
// a -0 gradient (unreachable from ZeroGrads' +0) into +0.
func (c *Conv2D) backward(dy *tensor.Tensor, wantDX bool) *tensor.Tensor {
	if c.x == nil {
		panic("nn: Conv2D.Backward without prior Forward(train=true)")
	}
	x, dims := c.x, c.dims
	c.x = nil // release the cache
	n := x.Dim(0)
	outC, rows, plane := c.OutChannels(), dims.ColRows(), dims.ColCols()
	inSize, outSize, wSize := dims.InC*dims.InH*dims.InW, outC*plane, outC*rows
	var dx *tensor.Tensor
	var dxd []float32
	if wantDX {
		dx = Pooled(n, dims.InC, dims.InH, dims.InW)
		dxd = dx.Data()
	}
	xd, dyd, wd := x.Data(), dy.Data(), c.W.Data.Data()

	workers := max(1, min(tensor.Parallelism(), n))
	chunk := (n + workers - 1) / workers
	partials := make([][]float32, workers)
	var dBs []float64
	if c.B != nil {
		dBs = make([]float64, workers*outC)
	}
	tensor.ParFor(n, func(start, end int) {
		wkr := start / chunk // ParFor's chunks are these workers'
		tile, colsSize := end-start, 0
		if wantDX {
			tile = min(tile, backwardTile(outC, dims))
			colsSize = tile * rows * plane
		}
		padSize := dims.PaddedLen()
		ws := takeWorkspace(2*wSize + padSize + colsSize)
		dW, prod := ws[:wSize], ws[wSize:2*wSize]
		padded, dcols := ws[2*wSize:2*wSize+padSize], ws[2*wSize+padSize:]
		clear(dW)
		for i0 := start; i0 < end; i0 += tile {
			t := min(tile, end-i0)
			for i := i0; i < i0+t; i++ {
				dyi := dyd[i*outSize : (i+1)*outSize] // [outC, plane]
				dims.WeightGradInto(prod, dyi, xd[i*inSize:(i+1)*inSize], padded, outC)
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
			}
			if !wantDX {
				continue
			}
			dims.UnfoldGradInto(dcols, wd, dyd[i0*outSize:(i0+t)*outSize], outC, t)
			for j := 0; j < t; j++ {
				dxi := dxd[(i0+j)*inSize : (i0+j+1)*inSize]
				clear(dxi)
				dims.Col2ImStrided(dcols[j*plane:], t*plane, dxi)
			}
		}
		partials[wkr] = dW
	})

	gW := c.W.Grad.Data()
	for wkr, dW := range partials {
		for j, v := range dW {
			gW[j] += v
		}
		convWorkspaces.Put(dW) // dW spans its workspace; nil for an idle worker
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
