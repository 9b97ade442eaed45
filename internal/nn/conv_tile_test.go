package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/meanet/meanet/internal/tensor"
)

// requireBitwise fails unless got and want hold the same bits.
func requireBitwise(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i, v := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("%s: element %d = %x, want %x", label, i, math.Float32bits(got.Data()[i]), math.Float32bits(v))
		}
	}
}

// TestConvEvalTilesMatchPerImageBitwise walks the eval convolution across
// its tile boundaries — no images, one, a tile short, a full tile, one over,
// and two tiles plus a ragged tail — and requires the tiled forward to equal
// the per-image train-mode forward bit for bit. Geometries cover stride 1
// and 2, pad 0 and 1, with and without bias, and one image whose result
// alone is too large for the shared workspace; the tile is convTile's, the
// one forwardTiles uses.
func TestConvEvalTilesMatchPerImageBitwise(t *testing.T) {
	geoms := []struct {
		name           string
		inC, outC, k   int
		size           int
		strides, pads  []int
		singleOversize bool
	}{
		{name: "3x3", inC: 4, outC: 32, k: 3, size: 20, strides: []int{1, 2}, pads: []int{0, 1}},
		{name: "1x1-wide", inC: 2, outC: 24, k: 1, size: 20, strides: []int{1, 2}, pads: []int{0, 1}},
		{name: "oversize", inC: 2, outC: 32, k: 3, size: 96, strides: []int{1}, pads: []int{1}, singleOversize: true},
	}
	rng := rand.New(rand.NewSource(28))
	for _, g := range geoms {
		for _, stride := range g.strides {
			for _, pad := range g.pads {
				for _, bias := range []bool{false, true} {
					conv := NewConv2D(rng, "tile", g.inC, g.outC, g.k, stride, pad, bias)
					if bias {
						conv.B.Data.CopyFrom(tensor.Randn(rng, 1, g.outC))
					}
					dims := tensor.NewConvDims(g.inC, g.size, g.size, g.k, g.k, stride, pad)
					tile := convTile(g.outC, dims)
					ns := []int{0, 1, tile - 1, tile, tile + 1, 2*tile + 3}
					if g.singleOversize {
						if tile != 0 {
							t.Fatalf("%s: %d result floats per image fit the %d-float workspace",
								g.name, g.outC*dims.ColCols(), convTileFloats)
						}
						ns = []int{1, 2}
					}
					for _, n := range ns {
						if n < 0 {
							continue
						}
						label := fmt.Sprintf("%s stride %d pad %d bias %v tile %d N %d", g.name, stride, pad, bias, tile, n)
						x := tensor.Randn(rng, 1, n, g.inC, g.size, g.size)
						requireBitwise(t, label, conv.Forward(x, false), conv.Forward(x, true))
					}
				}
			}
		}
	}
}

// perImageConv is a reference train step's output and accumulated gradients.
type perImageConv struct {
	out, dx, gW, gB *tensor.Tensor
}

// referenceConvStep is the per-image train step Conv2D once ran: each image
// unfolded into its own matrix and multiplied on its own, the bias added
// after; in the backward, per-worker partial gradients formed from fresh
// per-image products over contiguous image chunks, then added to the
// gradients (starting at gW0, gB0) in worker order, idle workers included.
func referenceConvStep(c *Conv2D, x, dy, gW0, gB0 *tensor.Tensor, workers int) perImageConv {
	n := x.Dim(0)
	outC, k := c.OutChannels(), c.Kernel()
	dims := tensor.NewConvDims(x.Dim(1), x.Dim(2), x.Dim(3), k, k, c.Stride, c.Pad)
	rows, plane := dims.ColRows(), dims.ColCols()
	w2d := c.W.Data.Reshape(outC, rows)
	ref := perImageConv{
		out: tensor.New(n, outC, dims.OutH, dims.OutW),
		dx:  tensor.New(x.Shape()...),
		gW:  gW0.Clone(),
	}
	cols := make([]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		cols[i] = tensor.New(rows, plane)
		dims.Im2Col(x.Sample(i).Data(), cols[i].Data())
		od := ref.out.Sample(i).Data()
		copy(od, tensor.MatMul(w2d, cols[i]).Data())
		if c.B != nil {
			for f, bv := range c.B.Data.Data() {
				for j := f * plane; j < (f+1)*plane; j++ {
					od[j] += bv
				}
			}
		}
	}

	workers = max(1, min(workers, n))
	chunk := (n + workers - 1) / workers
	gW := ref.gW.Reshape(outC, rows)
	if c.B != nil {
		ref.gB = gB0.Clone()
	}
	for wkr := 0; wkr < workers; wkr++ {
		dW := tensor.New(outC, rows)
		dB := make([]float64, outC)
		for i := wkr * chunk; i < min((wkr+1)*chunk, n); i++ {
			dyi := tensor.FromSlice(dy.Sample(i).Data(), outC, plane)
			dW.AddInPlace(tensor.MatMulNT(dyi, cols[i]))
			for f := range dB {
				var s float64
				for _, v := range dyi.Row(f) {
					s += float64(v)
				}
				dB[f] += s
			}
			dims.Col2ImStrided(tensor.MatMulTN(w2d, dyi).Data(), plane, ref.dx.Sample(i).Data())
		}
		gW.AddInPlace(dW)
		if ref.gB != nil {
			for f, v := range dB {
				ref.gB.Data()[f] += float32(v)
			}
		}
	}
	return ref
}

// TestConvMatchesPerImageReference walks the train-mode convolution across
// the forward's tile boundaries — no images, one, a tile short, a full tile,
// one over, two tiles plus a ragged tail (the tile is convTile's, the one
// forwardTiles uses), and a single image whose result alone is too large
// for the shared workspace — and across the backward's — a tile short, a
// full tile and one over (backwardTile's, per worker), and a single image
// whose unfold gradient alone is too large for the workspace — at 1, 2 and
// 3 kernel workers (3 leaves a worker idle at some sizes), and requires the
// output, the input gradient and the accumulated weight and bias gradients
// to equal referenceConvStep bit for bit. Geometries cover stride 1 and 2, pad 0 and 1, with and without bias;
// the gradients start from non-zero values, so the order the worker
// partials are added in is pinned too.
func TestConvMatchesPerImageReference(t *testing.T) {
	geoms := []struct {
		name                   string
		inC, outC, k           int
		size                   int
		strides, pads          []int
		backwardTiles          bool // also walk backwardTile's boundaries (the 1x1 rows' are over a thousand images)
		singleOversize         bool
		singleOversizeBackward bool
	}{
		{name: "3x3", inC: 4, outC: 32, k: 3, size: 20, strides: []int{1, 2}, pads: []int{0, 1}, backwardTiles: true},
		{name: "1x1-wide", inC: 2, outC: 24, k: 1, size: 20, strides: []int{1, 2}, pads: []int{0, 1}},
		{name: "oversize", inC: 2, outC: 32, k: 3, size: 96, strides: []int{1}, pads: []int{1}, singleOversize: true},
		{name: "oversize-backward", inC: 4, outC: 8, k: 3, size: 96, strides: []int{1}, pads: []int{1}, singleOversizeBackward: true},
	}
	defer tensor.SetParallelism(tensor.Parallelism())
	rng := rand.New(rand.NewSource(29))
	for _, g := range geoms {
		for _, stride := range g.strides {
			for _, pad := range g.pads {
				for _, bias := range []bool{false, true} {
					conv := NewConv2D(rng, "train", g.inC, g.outC, g.k, stride, pad, bias)
					if bias {
						conv.B.Data.CopyFrom(tensor.Randn(rng, 1, g.outC))
					}
					dims := tensor.NewConvDims(g.inC, g.size, g.size, g.k, g.k, stride, pad)
					tile, btile := convTile(g.outC, dims), backwardTile(g.outC, dims)
					ns := []int{0, 1, tile - 1, tile, tile + 1, 2*tile + 3}
					if g.backwardTiles {
						// The tile is the most images whose workspace fits the cap:
						// two dW matrices, one padded image and t unfold gradients.
						ws := func(t int) int {
							return 2*g.outC*dims.ColRows() + dims.PaddedLen() + t*dims.ColRows()*dims.ColCols()
						}
						if ws(btile) > convTileFloats || ws(btile+1) <= convTileFloats {
							t.Fatalf("%s stride %d pad %d: backward tile %d takes %d floats, %d one more; cap %d",
								g.name, stride, pad, btile, ws(btile), ws(btile+1), convTileFloats)
						}
						ns = append(ns, btile-1, btile, btile+1)
					}
					if g.singleOversize {
						if tile != 0 {
							t.Fatalf("%s: %d result floats per image fit the %d-float workspace",
								g.name, g.outC*dims.ColCols(), convTileFloats)
						}
						ns = []int{1, 2}
					}
					if g.singleOversizeBackward {
						if cols := dims.ColRows() * dims.ColCols(); cols <= convTileFloats {
							t.Fatalf("%s: one image's %d-float unfold gradient fits the %d-float workspace",
								g.name, cols, convTileFloats)
						}
						ns = []int{1, 2}
					}
					slices.Sort(ns)
					for _, n := range slices.Compact(ns) {
						if n < 0 {
							continue
						}
						x := tensor.Randn(rng, 1, n, g.inC, g.size, g.size)
						dy := tensor.Randn(rng, 1, n, g.outC, dims.OutH, dims.OutW)
						gW0 := tensor.Randn(rng, 1, conv.W.Data.Shape()...)
						gB0 := tensor.Randn(rng, 1, g.outC)
						for _, workers := range []int{1, 2, 3} {
							label := fmt.Sprintf("%s stride %d pad %d bias %v tiles %d/%d N %d workers %d",
								g.name, stride, pad, bias, tile, btile, n, workers)
							tensor.SetParallelism(workers)
							want := referenceConvStep(conv, x, dy, gW0, gB0, workers)
							conv.W.Grad.CopyFrom(gW0)
							if bias {
								conv.B.Grad.CopyFrom(gB0)
							}
							requireBitwise(t, label+" output", conv.Forward(x, true), want.out)
							requireBitwise(t, label+" dx", conv.Backward(dy), want.dx)
							requireBitwise(t, label+" dW", conv.W.Grad, want.gW)
							if bias {
								requireBitwise(t, label+" dB", conv.B.Grad, want.gB)
							}
						}
					}
				}
			}
		}
	}
}

// TestConvStaleWorkspacesKeepBits fills every buffer convWorkspaces can
// retain with NaN before each eval forward, train forward and backward, so
// the padded copies of a tile's images and of each image the backward
// reads land on stale NaN: their zero border must be written, not assumed.
// The output, the input gradient and the weight and bias gradients must
// keep referenceConvStep's bits. Geometries cover pad 1 and 2, stride 1
// and 2, 3x3 and 5x5 kernels and non-square images, at 1 and 2 kernel
// workers.
func TestConvStaleWorkspacesKeepBits(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	nan := float32(math.NaN())
	poison := func() {
		held := make([][]float32, convWorkspaceBufs)
		for i := range held {
			held[i] = takeWorkspace(convTileFloats)
			for j := range held[i] {
				held[i][j] = nan
			}
		}
		for _, ws := range held {
			convWorkspaces.Put(ws)
		}
	}
	rng := rand.New(rand.NewSource(44))
	for _, g := range []struct{ inC, outC, k, stride, pad, h, w, n int }{
		{3, 8, 3, 1, 1, 12, 12, 16}, {8, 16, 3, 2, 1, 13, 9, 5}, {4, 6, 5, 1, 2, 9, 7, 3}, {8, 8, 3, 2, 2, 6, 11, 4},
	} {
		conv := NewConv2D(rng, "stale", g.inC, g.outC, g.k, g.stride, g.pad, true)
		conv.B.Data.CopyFrom(tensor.Randn(rng, 1, g.outC))
		dims := tensor.NewConvDims(g.inC, g.h, g.w, g.k, g.k, g.stride, g.pad)
		x := tensor.Randn(rng, 1, g.n, g.inC, g.h, g.w)
		dy := tensor.Randn(rng, 1, g.n, g.outC, dims.OutH, dims.OutW)
		gW0, gB0 := tensor.Randn(rng, 1, conv.W.Data.Shape()...), tensor.Randn(rng, 1, g.outC)
		for _, workers := range []int{1, 2} {
			tensor.SetParallelism(workers)
			label := fmt.Sprintf("%+v workers %d", g, workers)
			want := referenceConvStep(conv, x, dy, gW0, gB0, workers)
			conv.W.Grad.CopyFrom(gW0)
			conv.B.Grad.CopyFrom(gB0)
			poison()
			requireBitwise(t, label+" eval output", conv.Forward(x, false), want.out)
			poison()
			requireBitwise(t, label+" train output", conv.Forward(x, true), want.out)
			poison()
			requireBitwise(t, label+" dx", conv.Backward(dy), want.dx)
			requireBitwise(t, label+" dW", conv.W.Grad, want.gW)
			requireBitwise(t, label+" dB", conv.B.Grad, want.gB)
		}
	}
}

// TestConvConcurrentMixedShapesShareWorkspaces runs convolutions of mixed
// geometries from 8 goroutines at once at 2 kernel workers: eval forwards
// on shared layers, and train steps on layers each goroutine owns, so the
// shared workspaces and pack buffers change hands between products of
// different shapes. Every output and gradient must equal the same step run
// alone. Run it under -race.
func TestConvConcurrentMixedShapesShareWorkspaces(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(2)
	geoms := []struct{ inC, outC, k, stride, pad, size, n int }{
		{3, 8, 3, 1, 1, 12, 16}, {8, 16, 3, 2, 1, 12, 5}, {16, 32, 1, 1, 0, 6, 9}, {4, 6, 5, 1, 2, 9, 3},
	}
	type step struct{ out, dx, gW *tensor.Tensor }
	const goroutines, rounds = 8, 3
	rng := rand.New(rand.NewSource(31))
	shared := make([]*Conv2D, len(geoms))   // the eval layers, also the references
	layers := make([][]*Conv2D, goroutines) // [goroutine][geometry], the train layers
	xs, dys := make([]*tensor.Tensor, len(geoms)), make([]*tensor.Tensor, len(geoms))
	want := make([]step, len(geoms))
	for i, g := range geoms {
		proto := NewConv2D(rng, "mixed", g.inC, g.outC, g.k, g.stride, g.pad, i%2 == 0)
		shared[i] = proto
		dims := tensor.NewConvDims(g.inC, g.size, g.size, g.k, g.k, g.stride, g.pad)
		xs[i] = tensor.Randn(rng, 1, g.n, g.inC, g.size, g.size)
		dys[i] = tensor.Randn(rng, 1, g.n, g.outC, dims.OutH, dims.OutW)
		for gr := range layers {
			c := &Conv2D{W: NewParam("mixed.weight", proto.W.Data.Clone()), Stride: g.stride, Pad: g.pad}
			if proto.B != nil {
				c.B = NewParam("mixed.bias", proto.B.Data.Clone())
			}
			layers[gr] = append(layers[gr], c)
		}
		out := proto.Forward(xs[i], true)
		want[i] = step{out: out, dx: proto.Backward(dys[i]), gW: proto.W.Grad.Clone()}
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			check := func(label string, i int, got, want *tensor.Tensor) bool {
				for e, w := range want.Data() {
					if math.Float32bits(got.Data()[e]) != math.Float32bits(w) {
						errs <- fmt.Sprintf("goroutine %d geometry %d %s: element %d = %v, want %v", gr, i, label, e, got.Data()[e], w)
						return false
					}
				}
				return true
			}
			for r := 0; r < rounds; r++ {
				for j := range geoms {
					i := (j + gr) % len(geoms)
					if !check("eval output", i, shared[i].Forward(xs[i], false), want[i].out) {
						return
					}
					c := layers[gr][i]
					ZeroGrads(c.Params())
					if !check("train output", i, c.Forward(xs[i], true), want[i].out) ||
						!check("dx", i, c.Backward(dys[i]), want[i].dx) ||
						!check("dW", i, c.W.Grad, want[i].gW) {
						return
					}
				}
			}
		}(gr)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestConvWorkspacesStayBounded runs eval forwards and train steps at 2
// kernel workers, on ordinary tiles and on one image too large for a
// workspace, from more goroutines than convWorkspaces retains buffers, and
// hands back twice that many workspaces at once. The pool must then hold at
// most convWorkspaceBufs buffers, every one convTileFloats long: the
// oversize image's exact-size buffers were never kept.
func TestConvWorkspacesStayBounded(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(2)
	geoms := []struct{ inC, outC, k, size, n int }{
		{3, 8, 3, 12, 16}, {16, 32, 1, 6, 9}, {2, 32, 3, 96, 1},
	}
	rng := rand.New(rand.NewSource(38))
	var wg sync.WaitGroup
	for gr := 0; gr < 2*convWorkspaceBufs; gr++ {
		g := geoms[gr%len(geoms)]
		conv := NewConv2D(rng, "bound", g.inC, g.outC, g.k, 1, g.k/2, true)
		x := tensor.Randn(rng, 1, g.n, g.inC, g.size, g.size)
		dy := tensor.Randn(rng, 1, g.n, g.outC, g.size, g.size)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				conv.Forward(x, false)
				conv.Forward(x, true)
				conv.Backward(dy)
			}
		}()
	}
	wg.Wait()
	flood := make([][]float32, 2*convWorkspaceBufs)
	for i := range flood {
		flood[i] = takeWorkspace(convTileFloats)
	}
	for _, ws := range flood {
		convWorkspaces.Put(ws)
	}
	held := convWorkspaces.Bytes()
	if held == 0 || held > convWorkspaceBufs*convTileFloats*4 || held%(convTileFloats*4) != 0 {
		t.Fatalf("workspace pool holds %d bytes: want a positive multiple of %d, at most %d",
			held, convTileFloats*4, convWorkspaceBufs*convTileFloats*4)
	}
}
