package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if got := x.Numel(); got != 24 {
		t.Fatalf("Numel() = %d, want 24", got)
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if x.Dims() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("shape accessors wrong: %v", x.Shape())
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer mustPanic(t, "FromSlice")
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRowMajorOrder(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if got := x.Data()[5]; got != 7 {
		t.Fatalf("row-major offset wrong: data[5]=%v, want 7", got)
	}
	if got := x.At(1, 2); got != 7 {
		t.Fatalf("At(1,2)=%v, want 7", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape must share storage; got copy semantics")
	}
	z := x.Reshape(-1, 2)
	if z.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Dim(0))
	}
}

func TestReshapeBadShapePanics(t *testing.T) {
	x := New(2, 3)
	defer mustPanic(t, "Reshape")
	x.Reshape(4, 2)
}

func TestSampleView(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 2, 2, 2)
	s := x.Sample(1)
	if s.Dims() != 2 || s.At(1, 1) != 8 {
		t.Fatalf("Sample(1) wrong: shape %v last %v", s.Shape(), s.At(1, 1))
	}
	s.Set(0, 0, 0)
	if x.At(1, 0, 0) != 0 {
		t.Fatal("Sample should be a view into the parent")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	tests := []struct {
		name string
		got  *Tensor
		want []float32
	}{
		{"Add", Add(a, b), []float32{11, 22, 33, 44}},
		{"Sub", Sub(b, a), []float32{9, 18, 27, 36}},
		{"Scale", Scale(a, 2), []float32{2, 4, 6, 8}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			for i, w := range tc.want {
				if tc.got.Data()[i] != w {
					t.Fatalf("%s[%d] = %v, want %v", tc.name, i, tc.got.Data()[i], w)
				}
			}
		})
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	a.AddInPlace(FromSlice([]float32{3, 4}, 2))
	a.ScaleInPlace(2)
	want := []float32{8, 12}
	for i, w := range want {
		if a.Data()[i] != w {
			t.Fatalf("chained in-place result[%d] = %v, want %v", i, a.Data()[i], w)
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer mustPanic(t, "Add")
	Add(New(2, 2), New(2, 3))
}

func TestSumMean(t *testing.T) {
	x := FromSlice([]float32{3, -1, 4, 1}, 4)
	if got := x.Sum(); got != 7 {
		t.Fatalf("Sum = %v, want 7", got)
	}
	if got := x.Mean(); got != 1.75 {
		t.Fatalf("Mean = %v, want 1.75", got)
	}
}

func TestArgMaxRows(t *testing.T) {
	x := FromSlice([]float32{0, 5, 1, 9, 2, 3}, 2, 3)
	got := x.ArgMaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v, want [1 0]", got)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			out.Set(float32(s), i, j)
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}, {33, 17, 5}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		for i := range want.Data() {
			if math.Abs(float64(got.Data()[i]-want.Data()[i])) > 1e-4 {
				t.Fatalf("MatMul %v: element %d = %v, want %v", dims, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, k, n := 6, 4, 5
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)
	// a @ b == (aᵀ)ᵀ @ b == MatMulTN(aᵀ, b) and == MatMulNT(a, bᵀ).
	want := MatMul(a, b)
	gotTN := MatMulTN(Transpose2D(a), b)
	gotNT := MatMulNT(a, Transpose2D(b))
	for i := range want.Data() {
		if math.Abs(float64(gotTN.Data()[i]-want.Data()[i])) > 1e-4 {
			t.Fatalf("MatMulTN mismatch at %d", i)
		}
		if math.Abs(float64(gotNT.Data()[i]-want.Data()[i])) > 1e-4 {
			t.Fatalf("MatMulNT mismatch at %d", i)
		}
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := Randn(rng, 1, m, n)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(1, i, i)
		}
		got := MatMul(a, id)
		for i := range a.Data() {
			if math.Abs(float64(got.Data()[i]-a.Data()[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTranspose2DInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(10)
		n := 1 + rng.Intn(10)
		a := Randn(rng, 1, m, n)
		b := Transpose2D(Transpose2D(a))
		for i := range a.Data() {
			if a.Data()[i] != b.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(5)
		cols := 1 + rng.Intn(10)
		x := Randn(rng, 3, rows, cols)
		p := Softmax(x)
		for r := 0; r < rows; r++ {
			var s float64
			for _, v := range p.Row(r) {
				if v < 0 || v > 1 {
					return false
				}
				s += float64(v)
			}
			if math.Abs(s-1) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 1, 3)
	y := FromSlice([]float32{101, 102, 103}, 1, 3)
	px, py := Softmax(x), Softmax(y)
	for i := range px.Data() {
		if math.Abs(float64(px.Data()[i]-py.Data()[i])) > 1e-6 {
			t.Fatalf("softmax not shift invariant at %d: %v vs %v", i, px.Data()[i], py.Data()[i])
		}
	}
}

func TestSoftmaxLargeLogitsStable(t *testing.T) {
	x := FromSlice([]float32{1000, 999, -1000}, 1, 3)
	p := Softmax(x)
	for i, v := range p.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflow at %d: %v", i, v)
		}
	}
	if p.At(0, 0) <= p.At(0, 1) {
		t.Fatal("softmax ordering lost")
	}
}

func TestEntropyBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(10)
		logits := make([]float32, k)
		for i := range logits {
			logits[i] = float32(rng.NormFloat64() * 3)
		}
		p := SoftmaxRow(logits)
		h := Entropy(p)
		return h >= -1e-9 && h <= math.Log(float64(k))+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEntropyExtremes(t *testing.T) {
	if h := Entropy([]float32{1, 0, 0, 0}); h != 0 {
		t.Fatalf("one-hot entropy = %v, want 0", h)
	}
	u := []float32{0.25, 0.25, 0.25, 0.25}
	if h := Entropy(u); math.Abs(h-math.Log(4)) > 1e-6 {
		t.Fatalf("uniform entropy = %v, want ln4", h)
	}
}

func TestConcatAndSplitChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 2, 3, 4, 4)
	b := Randn(rng, 1, 2, 2, 4, 4)
	c := ConcatChannels(a, b)
	if c.Dim(1) != 5 {
		t.Fatalf("concat channels = %d, want 5", c.Dim(1))
	}
	ga, gb := SplitChannels(c, 3)
	for i := range a.Data() {
		if ga.Data()[i] != a.Data()[i] {
			t.Fatal("SplitChannels does not invert ConcatChannels (first part)")
		}
	}
	for i := range b.Data() {
		if gb.Data()[i] != b.Data()[i] {
			t.Fatal("SplitChannels does not invert ConcatChannels (second part)")
		}
	}
}

// TestIm2ColMatchesDirectPatchExtraction verifies the unfolding against a
// straightforward triple-loop patch reader on a small case.
func TestIm2ColMatchesDirectPatchExtraction(t *testing.T) {
	d := NewConvDims(2, 4, 4, 3, 3, 1, 1)
	rng := rand.New(rand.NewSource(4))
	img := Randn(rng, 1, 2, 4, 4)
	cols := make([]float32, d.ColRows()*d.ColCols())
	d.Im2Col(img.Data(), cols)
	colAt := func(c, ky, kx, oy, ox int) float32 {
		row := (c*d.KH+ky)*d.KW + kx
		col := oy*d.OutW + ox
		return cols[row*d.ColCols()+col]
	}
	for c := 0; c < d.InC; c++ {
		for oy := 0; oy < d.OutH; oy++ {
			for ox := 0; ox < d.OutW; ox++ {
				for ky := 0; ky < d.KH; ky++ {
					for kx := 0; kx < d.KW; kx++ {
						sy := oy*d.Stride + ky - d.Pad
						sx := ox*d.Stride + kx - d.Pad
						var want float32
						if sy >= 0 && sy < d.InH && sx >= 0 && sx < d.InW {
							want = img.At(c, sy, sx)
						}
						if got := colAt(c, ky, kx, oy, ox); got != want {
							t.Fatalf("im2col[%d,%d,%d,%d,%d] = %v, want %v", c, ky, kx, oy, ox, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCol2ImIsAdjointOfIm2Col verifies the defining adjoint identity
// <Im2Col(x), y> == <x, Col2ImStrided(y)> for random x, y across geometries —
// exactly the property backpropagation through convolution relies on. The
// strided row reads y as columns [off, off+ColCols()) of a wider matrix
// whose rows are ld apart, through Col2ImStrided, the way a convolution's
// backward folds one image of a tile.
func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	geoms := []struct {
		d       ConvDims
		ld, off int // 0: y is its own [ColRows, ColCols] matrix, rows ColCols apart
	}{
		{d: NewConvDims(1, 5, 5, 3, 3, 1, 0)},
		{d: NewConvDims(3, 8, 8, 3, 3, 1, 1)},
		{d: NewConvDims(2, 7, 9, 3, 3, 2, 1)},
		{d: NewConvDims(4, 6, 6, 1, 1, 1, 0)},
		{d: NewConvDims(2, 9, 9, 5, 5, 2, 2)},
		{d: NewConvDims(2, 7, 9, 3, 3, 2, 1), ld: 3 * 20, off: 20}, // image 1 of a 3-image tile
	}
	rng := rand.New(rand.NewSource(5))
	for gi, g := range geoms {
		d := g.d
		x := Randn(rng, 1, d.InC, d.InH, d.InW)
		y := Randn(rng, 1, d.ColRows(), d.ColCols())
		cx := make([]float32, d.ColRows()*d.ColCols())
		d.Im2Col(x.Data(), cx)
		iy := make([]float32, d.InC*d.InH*d.InW)
		if g.ld == 0 {
			d.Col2ImStrided(y.Data(), d.ColCols(), iy)
		} else {
			wide := Randn(rng, 1, d.ColRows(), g.ld).Data()
			for r := 0; r < d.ColRows(); r++ {
				copy(wide[r*g.ld+g.off:], y.Row(r))
			}
			d.Col2ImStrided(wide[g.off:], g.ld, iy)
		}
		var lhs, rhs float64
		for i := range cx {
			lhs += float64(cx[i]) * float64(y.Data()[i])
		}
		for i := range iy {
			rhs += float64(x.Data()[i]) * float64(iy[i])
		}
		if math.Abs(lhs-rhs) > 1e-3*(1+math.Abs(lhs)) {
			t.Fatalf("geometry %d: adjoint identity violated: %v vs %v", gi, lhs, rhs)
		}
	}
}

func TestConvDimsOutputSize(t *testing.T) {
	tests := []struct {
		inH, inW, k, s, p, oH, oW int
	}{
		{32, 32, 3, 1, 1, 32, 32},
		{32, 32, 3, 2, 1, 16, 16},
		{7, 7, 7, 1, 0, 1, 1},
		{8, 8, 1, 1, 0, 8, 8},
	}
	for _, tc := range tests {
		d := NewConvDims(1, tc.inH, tc.inW, tc.k, tc.k, tc.s, tc.p)
		if d.OutH != tc.oH || d.OutW != tc.oW {
			t.Fatalf("conv %dx%d k%d s%d p%d: out %dx%d, want %dx%d",
				tc.inH, tc.inW, tc.k, tc.s, tc.p, d.OutH, d.OutW, tc.oH, tc.oW)
		}
	}
}

func TestSetParallelismSerialMatchesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Randn(rng, 1, 15, 11)
	b := Randn(rng, 1, 11, 13)
	par := MatMul(a, b)
	old := Parallelism()
	SetParallelism(1)
	defer SetParallelism(old)
	ser := MatMul(a, b)
	for i := range par.Data() {
		if par.Data()[i] != ser.Data()[i] {
			t.Fatal("parallel and serial MatMul disagree")
		}
	}
}

func mustPanic(t *testing.T, op string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s: expected panic", op)
	}
}
