package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/meanet/meanet/internal/tensor"
)

// Conv2D is a standard 2-D convolution over NCHW tensors, implemented as
// im2col followed by a matrix product. Weight layout is [outC, inC, kh, kw].
type Conv2D struct {
	W      *Param
	B      *Param // nil when the convolution has no bias (conv+BN idiom)
	Stride int
	Pad    int

	// Training caches (valid between Forward(train=true) and Backward).
	dims     tensor.ConvDims
	batch    int
	cols     []float32 // im2col of the whole batch, [N][colRows*colCols]
	outShape []int
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

// Forward computes the convolution of an NCHW batch.
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
	out := tensor.New(n, outC, dims.OutH, dims.OutW)
	if !train {
		c.forwardTiles(x, out, dims)
		return out
	}

	colLen := dims.ColRows() * dims.ColCols()
	cols := make([]float32, n*colLen)
	w2d := c.W.Data.Reshape(outC, dims.ColRows())
	forEachSample(n, func(i int) {
		buf := cols[i*colLen : (i+1)*colLen]
		dims.Im2Col(x.Sample(i).Data(), buf)
		colsT := tensor.FromSlice(buf, dims.ColRows(), dims.ColCols())
		res := tensor.MatMul(w2d, colsT) // [outC, oHW]
		outSample := out.Sample(i)
		copy(outSample.Data(), res.Data())
		if c.B != nil {
			bd := c.B.Data.Data()
			od := outSample.Data()
			plane := dims.OutH * dims.OutW
			for f := 0; f < outC; f++ {
				bv := bd[f]
				seg := od[f*plane : (f+1)*plane]
				for j := range seg {
					seg[j] += bv
				}
			}
		}
	})

	c.dims = dims
	c.batch = n
	c.cols = cols
	c.outShape = out.Shape()
	return out
}

// convTileFloats caps each eval-conv workspace at 256 Ki floats (1 MiB).
// The eval forward convolves a tile of whole images with one GEMM: their
// unfolds sit side by side in one [K, t*oH*oW] column matrix (K =
// inC*kh*kw) and the product lands in one [outC, t*oH*oW] result, so the
// weights are packed once per tile rather than once per image and the GEMM
// sees wide operands. The tile t is the most images for which both matrices
// fit under the cap — 1 MiB keeps the working set cache-sized and every
// pooled buffer a constant size whatever batch a caller sends — and at
// least one image: a single image larger than the cap gets exact-size
// buffers that are never pooled.
const convTileFloats = 256 << 10

// convWorkspaces pools the eval conv's column and result matrices. They live
// here rather than on the layer because eval Forward runs concurrently on
// one shared model.
var convWorkspaces = sync.Pool{New: func() any { return new([convTileFloats]float32) }}

// takeWorkspace returns a buffer of size floats, pooled (non-nil handle)
// when it fits under convTileFloats.
func takeWorkspace(size int) ([]float32, *[convTileFloats]float32) {
	if size > convTileFloats {
		return make([]float32, size), nil
	}
	ws := convWorkspaces.Get().(*[convTileFloats]float32)
	return ws[:size], ws
}

// forwardTiles is the eval convolution of x into out, one tile of images at
// a time. Each output column of a GEMM depends only on its own unfold
// column and the weights, so out is bitwise what a per-image product gives.
func (c *Conv2D) forwardTiles(x, out *tensor.Tensor, dims tensor.ConvDims) {
	n := x.Dim(0)
	if n == 0 {
		return
	}
	outC, rows, plane := c.OutChannels(), dims.ColRows(), dims.ColCols()
	tile := min(n, max(1, convTileFloats/(max(rows, outC)*plane)))
	cols, colsWS := takeWorkspace(rows * tile * plane)
	res, resWS := takeWorkspace(outC * tile * plane)
	inSize, outSize := x.Numel()/n, outC*plane
	xd, od, wd := x.Data(), out.Data(), c.W.Data.Data()
	var bias []float32
	if c.B != nil {
		bias = c.B.Data.Data()
	}
	for i0 := 0; i0 < n; i0 += tile {
		t := min(tile, n-i0)
		ld := t * plane
		forEachSample(t, func(j int) {
			img := i0 + j
			dims.Im2ColInto(xd[img*inSize:(img+1)*inSize], cols[j*plane:], ld)
		})
		tensor.MatMulInto(res, wd, cols, outC, rows, ld)
		forEachSample(t, func(j int) {
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
		})
	}
	if colsWS != nil {
		convWorkspaces.Put(colsWS)
	}
	if resWS != nil {
		convWorkspaces.Put(resWS)
	}
}

// Backward accumulates dW (and dB) and returns dX.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if c.cols == nil {
		panic("nn: Conv2D.Backward without prior Forward(train=true)")
	}
	dims := c.dims
	n := c.batch
	outC := c.OutChannels()
	colLen := dims.ColRows() * dims.ColCols()
	w2d := c.W.Data.Reshape(outC, dims.ColRows())
	dx := tensor.New(n, dims.InC, dims.InH, dims.InW)

	// Worker-local dW accumulators avoid contention; merged afterwards.
	workers := tensor.Parallelism()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	dWs := make([]*tensor.Tensor, workers)
	dBs := make([][]float64, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for wkr := 0; wkr < workers; wkr++ {
		start, end := wkr*chunk, (wkr+1)*chunk
		if end > n {
			end = n
		}
		if start >= end {
			dWs[wkr] = tensor.New(outC, dims.ColRows())
			dBs[wkr] = make([]float64, outC)
			continue
		}
		wg.Add(1)
		go func(wkr, start, end int) {
			defer wg.Done()
			dW := tensor.New(outC, dims.ColRows())
			dB := make([]float64, outC)
			for i := start; i < end; i++ {
				dyS := tensor.FromSlice(dy.Sample(i).Data(), outC, dims.ColCols())
				colsT := tensor.FromSlice(c.cols[i*colLen:(i+1)*colLen], dims.ColRows(), dims.ColCols())
				// dW += dy_i @ cols_iᵀ
				dW.AddInPlace(tensor.MatMulNT(dyS, colsT))
				if c.B != nil {
					for f := 0; f < outC; f++ {
						var s float64
						for _, v := range dyS.Row(f) {
							s += float64(v)
						}
						dB[f] += s
					}
				}
				// dcols = Wᵀ @ dy_i ; dx_i = col2im(dcols)
				dcols := tensor.MatMulTN(w2d, dyS)
				dims.Col2Im(dcols.Data(), dx.Sample(i).Data())
			}
			dWs[wkr] = dW
			dBs[wkr] = dB
		}(wkr, start, end)
	}
	wg.Wait()

	gW := c.W.Grad.Reshape(outC, dims.ColRows())
	for _, dW := range dWs {
		gW.AddInPlace(dW)
	}
	if c.B != nil {
		gB := c.B.Grad.Data()
		for _, dB := range dBs {
			for f, v := range dB {
				gB[f] += float32(v)
			}
		}
	}
	c.cols = nil // release the cache
	return dx
}

// Params returns the weight (and bias, if present).
func (c *Conv2D) Params() []*Param {
	if c.B == nil {
		return []*Param{c.W}
	}
	return []*Param{c.W, c.B}
}

// forEachSample runs body(i) for each sample index in parallel.
func forEachSample(n int, body func(i int)) {
	workers := tensor.Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			for i := s; i < e; i++ {
				body(i)
			}
		}(start, end)
	}
	wg.Wait()
}

var _ Layer = (*Conv2D)(nil)
