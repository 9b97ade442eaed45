package tensor

import "fmt"

// MatMul returns the matrix product a @ b for a [m,k] and b [k,n].
// Rows of the output are computed in parallel.
func MatMul(a, b *Tensor) *Tensor {
	m, k := mustMatrix("MatMul lhs", a)
	k2, n := mustMatrix("MatMul rhs", b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	gemmNN(a.data, b.data, out.data, m, k, n)
	return out
}

// MatMulInto overwrites out with a @ b for row-major a [m,k], b [k,n] and
// out [m,n], given as flat slices (each at least that long). It is MatMul
// for a caller that owns the result buffer, such as a pooled workspace, and
// produces the same bits.
func MatMulInto(out, a, b []float32, m, k, n int) {
	into("MatMulInto", gemmNN, out, a, b, m, k, n)
}

// MatMulNTInto overwrites out [m,n] with a @ bᵀ for row-major a [m,k] and
// b [n,k]: MatMulNT into a caller-owned buffer, with the same bits.
func MatMulNTInto(out, a, b []float32, m, k, n int) {
	into("MatMulNTInto", gemmNT, out, a, b, m, k, n)
}

// MatMulTNInto overwrites out [m,n] with aᵀ @ b for row-major a [k,m] and
// b [k,n]: MatMulTN into a caller-owned buffer, with the same bits.
func MatMulTNInto(out, a, b []float32, m, k, n int) {
	into("MatMulTNInto", gemmTN, out, a, b, m, k, n)
}

// into checks the slice lengths of an m x k x n product, zeroes out[:m*n]
// and runs gemm on it, as the allocating forms do on a fresh tensor.
func into(op string, gemm func(a, b, out []float32, m, k, n int), out, a, b []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(out) < m*n {
		panic(fmt.Sprintf("tensor: %s m %d k %d n %d with slice lengths a %d, b %d, out %d",
			op, m, k, n, len(a), len(b), len(out)))
	}
	out = out[:m*n]
	clear(out)
	gemm(a[:m*k], b[:k*n], out, m, k, n)
}

// MatMulNT returns a @ bᵀ for a [m,k] and b [n,k].
func MatMulNT(a, b *Tensor) *Tensor {
	m, k := mustMatrix("MatMulNT lhs", a)
	n, k2 := mustMatrix("MatMulNT rhs", b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulNT inner dims %v x %v^T", a.shape, b.shape))
	}
	out := New(m, n)
	gemmNT(a.data, b.data, out.data, m, k, n)
	return out
}

// MatMulTN returns aᵀ @ b for a [k,m] and b [k,n].
func MatMulTN(a, b *Tensor) *Tensor {
	k, m := mustMatrix("MatMulTN lhs", a)
	k2, n := mustMatrix("MatMulTN rhs", b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTN inner dims %v^T x %v", a.shape, b.shape))
	}
	out := New(m, n)
	gemmTN(a.data, b.data, out.data, m, k, n)
	return out
}

// gemmNN computes out[m,n] = a[m,k] @ b[k,n]. Large products go through the
// blocked, panel-packed kernel in gemm.go; tiny ones use an ikj loop whose
// inner loop streams contiguously through b and out. Both accumulate over k
// in ascending order, so the paths agree bitwise.
func gemmNN(a, b, out []float32, m, k, n int) {
	if m*k*n > gemmSmall {
		gemmBlocked(a, k, 1, stridedB(b, n, 1), out, m, k, n)
		return
	}
	ParFor(m, func(rs, re int) {
		for i := rs; i < re; i++ {
			ar := a[i*k : (i+1)*k]
			or := out[i*n : (i+1)*n]
			for p, av := range ar {
				br := b[p*n : (p+1)*n]
				for j, bv := range br {
					or[j] += av * bv
				}
			}
		}
	})
}

// gemmNT computes out[m,n] = a[m,k] @ b[n,k]ᵀ. Rows of a and b are both
// contiguous, so the small-product fallback uses the dot-product form.
func gemmNT(a, b, out []float32, m, k, n int) {
	if m*k*n > gemmSmall {
		gemmBlocked(a, k, 1, stridedB(b, 1, k), out, m, k, n)
		return
	}
	ParFor(m, func(rs, re int) {
		for i := rs; i < re; i++ {
			ar := a[i*k : (i+1)*k]
			or := out[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				br := b[j*k : (j+1)*k]
				var s float32
				for p, av := range ar {
					s += av * br[p]
				}
				or[j] = s
			}
		}
	})
}

// gemmTN computes out[m,n] = a[k,m]ᵀ @ b[k,n]; the small-product fallback
// accumulates rank-1 updates, parallelised over output rows (columns of a).
func gemmTN(a, b, out []float32, m, k, n int) {
	if m*k*n > gemmSmall {
		gemmBlocked(a, 1, m, stridedB(b, n, 1), out, m, k, n)
		return
	}
	ParFor(m, func(rs, re int) {
		for i := rs; i < re; i++ {
			or := out[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				av := a[p*m+i]
				br := b[p*n : (p+1)*n]
				for j, bv := range br {
					or[j] += av * bv
				}
			}
		}
	})
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	m, n := mustMatrix("Transpose2D", a)
	out := New(n, m)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		for j, v := range row {
			out.data[j*m+i] = v
		}
	}
	return out
}

func mustMatrix(op string, t *Tensor) (int, int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s expects a matrix, got shape %v", op, t.shape))
	}
	return t.shape[0], t.shape[1]
}
