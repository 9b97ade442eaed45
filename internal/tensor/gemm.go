package tensor

import "sync"

// Cache-blocked GEMM in the Goto/BLIS style, shared by the three matmul
// variants (NN, NT, TN). The operand layouts differ only in their element
// strides, so one blocked driver serves all three:
//
//	for each column block of B (gemmNC wide):
//	  for each k block (gemmKC deep):
//	    pack the B block into panels of gemmNR contiguous columns
//	    parfor over row panels of A (gemmMR rows each):
//	      pack the A panel, then run the register-tiled micro-kernel
//	      against every packed B panel
//
// Packing makes the micro-kernel's loads contiguous regardless of operand
// orientation, and the gemmMR x gemmNR register tile keeps the C
// accumulators resident in registers across the whole k block. On amd64 the
// micro-kernel is four-wide SSE assembly (see gemm_amd64.s); elsewhere a
// pure-Go version with the same accumulation order is used.
//
// The only fork is the parfor over row panels of A, once per (column block,
// k block): each worker owns whole gemmMR-row stripes of C, so no two
// workers ever write the same element. The B block is packed serially
// before the fork and read by every worker.
//
// The pack panels are constant-size buffers from sync.Pools (one B panel per
// product, one A panel per worker), sized for the largest block rather than
// for the operands, so a product allocates nothing in steady state however
// often it runs and however large its operands are.
//
// Accumulation order over k is ascending everywhere — identical to the
// naive small-product kernels and independent of worker count, block
// boundaries and row grouping — so results are bitwise identical across
// batch sizes and parallelism settings. The cloud micro-batching layer
// relies on this to return the same predictions batched or not.

const (
	gemmMR = 4   // micro-tile rows (C rows resident in registers)
	gemmNR = 8   // micro-tile cols (two 4-wide vectors per C row)
	gemmKC = 64  // k extent of a packed B block
	gemmNC = 256 // column extent of a packed B block

	// gemmSmall is the multiply-add count below which the naive kernels
	// win: packing costs more than it saves once operands fit in L1.
	gemmSmall = 32 * 1024
)

// Pools of pack panels, sized for a full block.
var (
	aPanels = sync.Pool{New: func() any { return new([gemmKC * gemmMR]float32) }}
	bPanels = sync.Pool{New: func() any { return new([gemmKC * gemmNC]float32) }}
)

// gemmBlocked computes out[m,n] += A @ B where A(i,p) = a[i*ars+p*acs] and
// B(p,j) = b[p*brs+j*bcs]. out must be row-major [m,n] and zero-initialised
// (or hold a partial sum to accumulate onto).
func gemmBlocked(a []float32, ars, acs int, b []float32, brs, bcs int, out []float32, m, k, n int) {
	nPanels := (m + gemmMR - 1) / gemmMR
	bPanel := bPanels.Get().(*[gemmKC * gemmNC]float32)
	defer bPanels.Put(bPanel)
	bBuf := bPanel[:]
	// One closure for the whole product: it reads the block coordinates
	// below, which parfor's wait orders before the next block's writes.
	var jc, nb, nPanelsB, pc, kb int
	rowPanels := func(ps, pe int) {
		aPanel := aPanels.Get().(*[gemmKC * gemmMR]float32)
		defer aPanels.Put(aPanel)
		aBuf := aPanel[:kb*gemmMR]
		for pi := ps; pi < pe; pi++ {
			i0 := pi * gemmMR
			rows := min(gemmMR, m-i0)
			packA(aBuf, a, ars, acs, i0, rows, pc, kb)
			cBase := i0*n + jc
			for jp := 0; jp < nPanelsB; jp++ {
				j0 := jp * gemmNR
				cols := min(gemmNR, nb-j0)
				bp := bBuf[jp*kb*gemmNR : (jp+1)*kb*gemmNR]
				if rows == gemmMR && cols == gemmNR {
					micro4x8(&aBuf[0], &bp[0], kb, &out[cBase+j0], n)
				} else {
					microEdge(aBuf, bp, kb, out[cBase+j0:], n, rows, cols)
				}
			}
		}
	}
	for jc = 0; jc < n; jc += gemmNC {
		nb = min(gemmNC, n-jc)
		nPanelsB = (nb + gemmNR - 1) / gemmNR
		for pc = 0; pc < k; pc += gemmKC {
			kb = min(gemmKC, k-pc)
			packB(bBuf, b, brs, bcs, pc, kb, jc, nb)
			parfor(nPanels, rowPanels)
		}
	}
}

// packA interleaves an A panel of `rows` rows and kb columns into dst as
// [kb][gemmMR], zero-padding missing rows so the micro-kernel never
// branches on row count mid-loop.
func packA(dst, a []float32, ars, acs int, i0, rows, p0, kb int) {
	for p := 0; p < kb; p++ {
		base := (p0 + p) * acs
		d := dst[p*gemmMR : p*gemmMR+gemmMR]
		for r := 0; r < rows; r++ {
			d[r] = a[(i0+r)*ars+base]
		}
		for r := rows; r < gemmMR; r++ {
			d[r] = 0
		}
	}
}

// packB lays a kb x nb block of B out as ceil(nb/gemmNR) panels, each
// [kb][gemmNR], zero-padding the ragged final panel.
func packB(dst, b []float32, brs, bcs int, p0, kb, j0, nb int) {
	nPanels := (nb + gemmNR - 1) / gemmNR
	for jp := 0; jp < nPanels; jp++ {
		cols := min(gemmNR, nb-jp*gemmNR)
		panel := dst[jp*kb*gemmNR:]
		for p := 0; p < kb; p++ {
			base := (p0+p)*brs + (j0+jp*gemmNR)*bcs
			d := panel[p*gemmNR : p*gemmNR+gemmNR]
			for c := 0; c < cols; c++ {
				d[c] = b[base+c*bcs]
			}
			for c := cols; c < gemmNR; c++ {
				d[c] = 0
			}
		}
	}
}

// microEdge handles ragged tiles at the right and bottom borders. Same
// ascending-k mul-then-add accumulation as micro4x8, so border elements
// match the interior bitwise.
func microEdge(ap, bp []float32, kb int, c []float32, ldc, rows, cols int) {
	for r := 0; r < rows; r++ {
		cr := c[r*ldc : r*ldc+cols]
		for j := 0; j < cols; j++ {
			s := cr[j]
			for p := 0; p < kb; p++ {
				s += ap[p*gemmMR+r] * bp[p*gemmNR+j]
			}
			cr[j] = s
		}
	}
}
