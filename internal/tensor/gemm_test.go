package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refGemm is the ascending-k float32 reference every kernel path must match
// bitwise: the blocked kernel, the small-product fallbacks and any worker
// split all accumulate over k in the same order, so exact equality — not a
// tolerance — is the contract (the cloud micro-batching path depends on it
// for batched-vs-unbatched determinism).
func refGemm(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

// gemmShapes exercises ragged micro-tiles (m, n not multiples of the 4x4
// register tile), k spans crossing the 64-deep packed block, and n spans
// crossing the 256-wide B block, on both sides of the small-product cutoff.
// The last three rows are the eval conv's tile products on the edge network:
// W[outC, inC*9] x cols[inC*9, images*oH*oW] for 16 images at 12x12, 6x6 and
// 3x3.
var gemmShapes = [][3]int{
	{1, 1, 1}, {3, 5, 2}, {4, 4, 4}, {5, 7, 6},
	{31, 33, 29}, {32, 32, 32}, {64, 64, 64},
	{65, 66, 67}, {128, 128, 128}, {13, 200, 301},
	{100, 65, 260}, {4, 300, 257},
	{8, 72, 2304}, {16, 144, 576}, {32, 288, 144},
}

func TestBlockedGemmMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range gemmShapes {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		want := refGemm(a, b)
		got := MatMul(a, b)
		for i, w := range want.Data() {
			if got.Data()[i] != w {
				t.Fatalf("MatMul %v: element %d = %v, want %v (bitwise)", dims, i, got.Data()[i], w)
			}
		}
	}
}

func TestBlockedGemmTransposedVariantsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range gemmShapes {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		want := refGemm(a, b)
		gotNT := MatMulNT(a, Transpose2D(b))
		gotTN := MatMulTN(Transpose2D(a), b)
		for i, w := range want.Data() {
			if gotNT.Data()[i] != w {
				t.Fatalf("MatMulNT %v: element %d = %v, want %v (bitwise)", dims, i, gotNT.Data()[i], w)
			}
			if gotTN.Data()[i] != w {
				t.Fatalf("MatMulTN %v: element %d = %v, want %v (bitwise)", dims, i, gotTN.Data()[i], w)
			}
		}
	}
}

// TestGemmParallelismInvariance pins the worker-count independence the
// batching server relies on: the same product must be bitwise identical
// whether computed serially or split over row panels.
func TestGemmParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := Randn(rng, 1, 70, 130)
	b := Randn(rng, 1, 130, 90)
	orig := Parallelism()
	defer SetParallelism(orig)
	SetParallelism(1)
	serial := MatMul(a, b)
	SetParallelism(8)
	parallel := MatMul(a, b)
	for i, w := range serial.Data() {
		if parallel.Data()[i] != w {
			t.Fatalf("element %d differs across parallelism: %v vs %v", i, parallel.Data()[i], w)
		}
	}
}

// TestGemmRowsIndependentOfBatch pins the property the micro-batching path
// needs end to end: row i of A @ B only depends on row i of A, bitwise, no
// matter how many other rows ride along in the product (batch-of-1 takes the
// small-product fallback, batch-of-64 the blocked kernel).
func TestGemmRowsIndependentOfBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const batch, k, n = 64, 80, 50
	big := Randn(rng, 1, batch, k)
	w := Randn(rng, 1, k, n)
	all := MatMul(big, w)
	for i := 0; i < batch; i += 17 {
		row := FromSlice(append([]float32(nil), big.Row(i)...), 1, k)
		solo := MatMul(row, w)
		for j, v := range solo.Data() {
			if all.Row(i)[j] != v {
				t.Fatalf("row %d col %d: batched %v, solo %v", i, j, all.Row(i)[j], v)
			}
		}
	}
}

func TestGemmAgainstFloat64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := Randn(rng, 1, 96, 96)
	b := Randn(rng, 1, 96, 96)
	got := MatMul(a, b)
	for i := 0; i < 96; i++ {
		for j := 0; j < 96; j++ {
			var s float64
			for p := 0; p < 96; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			if d := math.Abs(float64(got.At(i, j)) - s); d > 1e-3 {
				t.Fatalf("(%d,%d): %v vs float64 %v", i, j, got.At(i, j), s)
			}
		}
	}
}
