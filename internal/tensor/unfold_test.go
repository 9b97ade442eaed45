package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// unfoldTile is the column matrix MatMulUnfoldInto never forms: the Im2Col
// of each of t images placed side by side in one [ColRows, t*ColCols].
func unfoldTile(d ConvDims, x []float32, t int) []float32 {
	rows, plane, inSize := d.ColRows(), d.ColCols(), d.InC*d.InH*d.InW
	cols := make([]float32, rows*t*plane)
	one := make([]float32, rows*plane)
	for j := 0; j < t; j++ {
		d.Im2Col(x[j*inSize:(j+1)*inSize], one)
		for r := 0; r < rows; r++ {
			copy(cols[r*t*plane+j*plane:], one[r*plane:(r+1)*plane])
		}
	}
	return cols
}

// nanFilled returns n floats of NaN: scratch a product must overwrite
// wherever it reads.
func nanFilled(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(math.NaN())
	}
	return s
}

// requireSameBits fails unless got[:len(want)] holds want's bits.
func requireSameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i, w := range want {
		if math.Float32bits(got[i]) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", label, i, got[i], w)
		}
	}
}

// convGeoms returns the square geometries of every kernel, stride, pad,
// channel count and size given (skipping kernels larger than the padded
// image), then the extra ones: the conv tests' grid plus the shapes a
// square grid misses.
func convGeoms(ks, strides, pads, inCs, sizes []int, extra ...ConvDims) []ConvDims {
	var geoms []ConvDims
	for _, k := range ks {
		for _, stride := range strides {
			for _, pad := range pads {
				for _, inC := range inCs {
					for _, size := range sizes {
						if size+2*pad >= k {
							geoms = append(geoms, NewConvDims(inC, size, size, k, k, stride, pad))
						}
					}
				}
			}
		}
	}
	return append(geoms, extra...)
}

// oddConvGeoms are the padded geometries a square grid misses: images
// taller than wide and wider than tall, and odd sizes under stride 2,
// whose last window stops short of the bottom and right padding.
var oddConvGeoms = []ConvDims{
	NewConvDims(3, 13, 9, 3, 3, 2, 1),
	NewConvDims(8, 7, 12, 3, 3, 1, 1),
	NewConvDims(3, 9, 13, 5, 5, 1, 2),
	NewConvDims(8, 11, 5, 3, 3, 2, 2),
}

// TestMatMulUnfoldMatchesIm2ColBitwise pins the packed-from-image product
// against the unfold it replaces: Im2Col of each image side by side, then
// MatMulInto. Geometries cover 1x1, 3x3 and 5x5 kernels, stride 1 and 2,
// pad 0, 1 and 2, non-square images and odd sizes under stride 2, unfold
// heights K on both sides of the 64-deep k block, products whose t*oH*oW
// crosses the 256-wide column block and ragged ones a single panel wide,
// and weight rows that leave a ragged row panel and that outnumber the
// column panels (the row-split branch), at 1, 2, 3 and 8 workers. out and
// the padded scratch start as NaN, and the float past the product must
// stay NaN.
func TestMatMulUnfoldMatchesIm2ColBitwise(t *testing.T) {
	defer SetParallelism(Parallelism())
	rng := rand.New(rand.NewSource(31))
	cases := 0
	// K = inC*k*k: 3, 8, 27, 72, 75, 200
	for _, d := range convGeoms([]int{1, 3, 5}, []int{1, 2}, []int{0, 1, 2}, []int{3, 8}, []int{5, 12}, oddConvGeoms...) {
		inSize := d.InC * d.InH * d.InW
		for _, imgs := range []int{1, 3, 16} {
			x := Randn(rng, 1, imgs*inSize).Data()
			cols := unfoldTile(d, x, imgs)
			for _, m := range []int{5, 33} {
				w := Randn(rng, 1, m*d.ColRows()).Data()
				n := imgs * d.ColCols()
				want := make([]float32, m*n)
				MatMulInto(want, w, cols, m, d.ColRows(), n)
				for _, workers := range []int{1, 2, 3, 8} {
					SetParallelism(workers)
					out := nanFilled(m*n + 1)
					d.MatMulUnfoldInto(out, w, x, nanFilled(imgs*d.PaddedLen()), m, imgs)
					label := fmt.Sprintf("%+v images %d m %d workers %d", d, imgs, m, workers)
					requireSameBits(t, label, out, want)
					if !math.IsNaN(float64(out[m*n])) {
						t.Fatalf("%s: wrote past out[:m*n]", label)
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d products", cases)
}

// TestGemmShapesSplitInvariance runs every gemmShapes product through the
// three matmul forms at 1, 2, 3 and 8 workers and requires the reference
// bits each time, whichever way the product splits: over column panels
// when there are gemmColsPerWorker per worker, else over row panels. It
// also requires that the shapes drive both branches at some worker count.
func TestGemmShapesSplitInvariance(t *testing.T) {
	defer SetParallelism(Parallelism())
	rng := rand.New(rand.NewSource(32))
	splits := map[string]int{}
	for _, dims := range gemmShapes {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		want := refGemm(a, b).Data()
		aT, bT := Transpose2D(a), Transpose2D(b)
		for _, workers := range []int{1, 2, 3, 8} {
			SetParallelism(workers)
			if m*k*n > gemmSmall && workers > 1 {
				if (n+gemmNR-1)/gemmNR >= gemmColsPerWorker*workers {
					splits["columns"]++
				} else {
					splits["rows"]++
				}
			}
			label := fmt.Sprintf("%v workers %d", dims, workers)
			requireSameBits(t, "MatMul "+label, MatMul(a, b).Data(), want)
			requireSameBits(t, "MatMulNT "+label, MatMulNT(a, bT).Data(), want)
			requireSameBits(t, "MatMulTN "+label, MatMulTN(aT, b).Data(), want)
		}
	}
	if splits["columns"] == 0 || splits["rows"] == 0 {
		t.Fatalf("forked blocked products split %v: want both branches exercised", splits)
	}
}

// TestConcurrentProductsSharePackBuffers runs mixed-shape products — the
// three strided forms and the packed-from-image convolution — from 8
// goroutines at once at 2 workers each, so the shared pack buffers change
// hands between products of different shapes, and requires every result to
// equal the same product computed alone. Run it under -race.
func TestConcurrentProductsSharePackBuffers(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(2)
	rng := rand.New(rand.NewSource(33))
	type job struct {
		run  func(out []float32)
		size int // floats of out the product writes
		want []float32
	}
	var jobs []job
	for _, dims := range [][3]int{{8, 72, 2304}, {288, 32, 9}, {128, 128, 128}, {72, 8, 144}, {13, 200, 301}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 1, m, k).Data()
		b := Randn(rng, 1, k, n).Data()
		// The same slices read as a [m,k] or [k,m] and b as [k,n] or [n,k].
		jobs = append(jobs,
			job{run: func(out []float32) { MatMulInto(out, a, b, m, k, n) }, size: m * n},
			job{run: func(out []float32) { MatMulNTInto(out, a, b, m, k, n) }, size: m * n},
			job{run: func(out []float32) { MatMulTNInto(out, a, b, m, k, n) }, size: m * n})
	}
	for _, g := range []struct{ inC, size, k, stride, pad, m, imgs int }{
		{8, 12, 3, 1, 1, 8, 16}, {16, 6, 3, 2, 1, 32, 5}, {3, 9, 5, 1, 2, 33, 2},
	} {
		d := NewConvDims(g.inC, g.size, g.size, g.k, g.k, g.stride, g.pad)
		x := Randn(rng, 1, g.imgs*g.inC*g.size*g.size).Data()
		w := Randn(rng, 1, g.m*d.ColRows()).Data()
		m, imgs := g.m, g.imgs
		jobs = append(jobs, job{run: func(out []float32) {
			d.MatMulUnfoldInto(out, w, x, make([]float32, imgs*d.PaddedLen()), m, imgs)
		}, size: m * imgs * d.ColCols()})
	}
	longest := 0
	for i := range jobs {
		jobs[i].want = make([]float32, jobs[i].size)
		jobs[i].run(jobs[i].want)
		longest = max(longest, jobs[i].size)
	}

	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]float32, longest)
			for r := 0; r < rounds; r++ {
				for i := range jobs {
					jb := jobs[(i+g)%len(jobs)]
					jb.run(out)
					for e, w := range jb.want {
						if math.Float32bits(out[e]) != math.Float32bits(w) {
							errs <- fmt.Sprintf("goroutine %d job %d element %d = %v, want %v", g, (i+g)%len(jobs), e, out[e], w)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPackBuffersStayBounded runs blocked products of mixed shapes from
// more goroutines than packBufs retains buffers, hands back twice that many
// pack buffers at once, and then requires the pool to hold at most
// gemmPackBufs buffers, every one packFloats long. A warm Get and Put of a
// pack buffer must allocate nothing.
func TestPackBuffersStayBounded(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(2)
	rng := rand.New(rand.NewSource(38))
	shapes := [][3]int{{8, 72, 2304}, {288, 32, 9}, {128, 128, 128}, {13, 200, 301}}
	var wg sync.WaitGroup
	for g := 0; g < 2*gemmPackBufs; g++ {
		dims := shapes[g%len(shapes)]
		m, k, n := dims[0], dims[1], dims[2]
		a, b := Randn(rng, 1, m, k).Data(), Randn(rng, 1, k, n).Data()
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float32, m*n)
			for r := 0; r < 4; r++ {
				MatMulInto(out, a, b, m, k, n)
				MatMulNTInto(out, a, b, m, k, n)
				MatMulTNInto(out, a, b, m, k, n)
			}
		}()
	}
	wg.Wait()
	flood := make([][]float32, 2*gemmPackBufs)
	for i := range flood {
		flood[i] = packBufs.Get(packFloats)
	}
	for _, b := range flood {
		packBufs.Put(b)
	}
	held := packBufs.Bytes()
	if held == 0 || held > gemmPackBufs*packFloats*4 || held%(packFloats*4) != 0 {
		t.Fatalf("pack pool holds %d bytes: want a positive multiple of %d, at most %d",
			held, packFloats*4, gemmPackBufs*packFloats*4)
	}
	if allocs := testing.AllocsPerRun(100, func() { packBufs.Put(packBufs.Get(packFloats)) }); allocs != 0 {
		t.Fatalf("a warm pack buffer Get and Put allocates %v times, want 0", allocs)
	}
}

// TestConvGradProductsMatchReferencesBitwise pins the two products of a
// convolution's backward against the per-image references they replace.
// UnfoldGradInto over a tile of t images must give, in image j's column
// block, the bits of MatMulTNInto of the weights and that image's gradient
// alone, and Col2ImStrided of that block must fold the bits it folds from
// the per-image matrix (rows ColCols apart) onto the same starting image; WeightGradInto must
// give the bits of Im2Col followed by MatMulNTInto. Geometries cover 1x1
// and 3x3 kernels, stride 1 and 2, pad 0 and 1, one image and ragged tiles
// whose columns cross image boundaries inside a panel, output channels on
// both sides of the 64-deep k block, and products both below and above
// gemmSmall, at 1 and 2 workers. Outputs start as NaN, and
// the float past each product must stay NaN.
func TestConvGradProductsMatchReferencesBitwise(t *testing.T) {
	defer SetParallelism(Parallelism())
	rng := rand.New(rand.NewSource(43))
	sizes := map[string]int{}
	// K = 3, 8, 27, 72, and 27, 72, 75, 72 for the odd shapes
	for _, d := range convGeoms([]int{1, 3}, []int{1, 2}, []int{0, 1}, []int{3, 8}, []int{5, 12}, oddConvGeoms...) {
		rows, plane, inSize := d.ColRows(), d.ColCols(), d.InC*d.InH*d.InW
		for _, m := range []int{4, 72} { // output channels, the dx product's k: one k block or two
			w := Randn(rng, 1, m*rows).Data()
			for _, tile := range []int{1, 3} {
				x := Randn(rng, 1, tile*inSize).Data()
				dy := Randn(rng, 1, tile*m*plane).Data()
				start := Randn(rng, 1, tile*inSize).Data() // the fold accumulates onto it
				// The per-image references: each image's unfold gradient,
				// its fold onto start, and its weight gradient.
				wantCols := make([][]float32, tile)
				wantDX := make([][]float32, tile)
				wantDW := make([][]float32, tile)
				for j := range wantDX {
					dyj := dy[j*m*plane : (j+1)*m*plane]
					wantCols[j] = make([]float32, rows*plane)
					MatMulTNInto(wantCols[j], w, dyj, rows, m, plane)
					wantDX[j] = append([]float32(nil), start[j*inSize:(j+1)*inSize]...)
					d.Col2ImStrided(wantCols[j], plane, wantDX[j])
					cols := make([]float32, rows*plane)
					d.Im2Col(x[j*inSize:(j+1)*inSize], cols)
					wantDW[j] = make([]float32, m*rows)
					MatMulNTInto(wantDW[j], dyj, cols, m, plane, rows)
				}
				if rows*m*tile*plane > gemmSmall {
					sizes["dx above gemmSmall"]++
				} else {
					sizes["dx below gemmSmall"]++
				}
				if m*plane*rows > gemmSmall {
					sizes["dW above gemmSmall"]++
				} else {
					sizes["dW below gemmSmall"]++
				}
				for _, workers := range []int{1, 2} {
					SetParallelism(workers)
					label := fmt.Sprintf("%+v m %d tile %d workers %d", d, m, tile, workers)
					n := tile * plane
					dcols := nanFilled(rows*n + 1)
					d.UnfoldGradInto(dcols, w, dy, m, tile)
					if !math.IsNaN(float64(dcols[rows*n])) {
						t.Fatalf("%s: UnfoldGradInto wrote past out[:ColRows*t*ColCols]", label)
					}
					for j := 0; j < tile; j++ {
						for r := 0; r < rows; r++ {
							requireSameBits(t, fmt.Sprintf("%s: image %d unfold gradient row %d", label, j, r),
								dcols[r*n+j*plane:r*n+(j+1)*plane], wantCols[j][r*plane:(r+1)*plane])
						}
						dx := append([]float32(nil), start[j*inSize:(j+1)*inSize]...)
						d.Col2ImStrided(dcols[j*plane:], n, dx)
						requireSameBits(t, fmt.Sprintf("%s: image %d folded gradient", label, j), dx, wantDX[j])

						dW := nanFilled(m*rows + 1)
						d.WeightGradInto(dW, dy[j*m*plane:(j+1)*m*plane], x[j*inSize:(j+1)*inSize], nanFilled(d.PaddedLen()), m)
						requireSameBits(t, fmt.Sprintf("%s: image %d weight gradient", label, j), dW, wantDW[j])
						if !math.IsNaN(float64(dW[m*rows])) {
							t.Fatalf("%s: WeightGradInto wrote past out[:m*ColRows]", label)
						}
					}
				}
			}
		}
	}
	for _, s := range []string{"dx below gemmSmall", "dx above gemmSmall", "dW below gemmSmall", "dW above gemmSmall"} {
		if sizes[s] == 0 {
			t.Fatalf("no product %s: sizes %v", s, sizes)
		}
	}
	t.Logf("products by size: %v", sizes)
}
