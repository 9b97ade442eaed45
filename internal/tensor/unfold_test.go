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

// requireSameBits fails unless got[:len(want)] holds want's bits.
func requireSameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i, w := range want {
		if math.Float32bits(got[i]) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", label, i, got[i], w)
		}
	}
}

// TestMatMulUnfoldMatchesIm2ColBitwise pins the packed-from-image product
// against the unfold it replaces: Im2Col of each image side by side, then
// MatMulInto. Geometries cover 1x1, 3x3 and 5x5 kernels, stride 1 and 2,
// pad 0, 1 and 2, unfold heights K on both sides of the 64-deep k block,
// products whose t*oH*oW crosses the 256-wide column block and ragged ones
// a single panel wide, and weight rows that leave a ragged row panel and
// that outnumber the column panels (the row-split branch), at 1, 2, 3 and
// 8 workers. out starts as NaN, and the float past the product must stay
// NaN.
func TestMatMulUnfoldMatchesIm2ColBitwise(t *testing.T) {
	defer SetParallelism(Parallelism())
	rng := rand.New(rand.NewSource(31))
	cases := 0
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, inC := range []int{3, 8} { // K = inC*k*k: 3, 8, 27, 72, 75, 200
					for _, size := range []int{5, 12} {
						if size+2*pad < k {
							continue
						}
						d := NewConvDims(inC, size, size, k, k, stride, pad)
						for _, imgs := range []int{1, 3, 16} {
							x := Randn(rng, 1, imgs*inC*size*size).Data()
							cols := unfoldTile(d, x, imgs)
							for _, m := range []int{5, 33} {
								w := Randn(rng, 1, m*d.ColRows()).Data()
								n := imgs * d.ColCols()
								want := make([]float32, m*n)
								MatMulInto(want, w, cols, m, d.ColRows(), n)
								for _, workers := range []int{1, 2, 3, 8} {
									SetParallelism(workers)
									out := make([]float32, m*n+1)
									for i := range out {
										out[i] = float32(math.NaN())
									}
									d.MatMulUnfoldInto(out, w, x, m, imgs)
									label := fmt.Sprintf("k %d stride %d pad %d inC %d size %d images %d m %d workers %d",
										k, stride, pad, inC, size, imgs, m, workers)
									requireSameBits(t, label, out, want)
									if !math.IsNaN(float64(out[m*n])) {
										t.Fatalf("%s: wrote past out[:m*n]", label)
									}
									cases++
								}
							}
						}
					}
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

// TestConcurrentProductsShareFreeList runs mixed-shape products — the
// three strided forms and the packed-from-image convolution — from 8
// goroutines at once at 2 workers each, so the shared pack buffers change
// hands between products of different shapes, and requires every result to
// equal the same product computed alone. Run it under -race.
func TestConcurrentProductsShareFreeList(t *testing.T) {
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
		jobs = append(jobs, job{run: func(out []float32) { d.MatMulUnfoldInto(out, w, x, m, imgs) }, size: m * imgs * d.ColCols()})
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
