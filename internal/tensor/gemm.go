package tensor

// Cache-blocked GEMM in the Goto/BLIS style, shared by the three matmul
// variants (NN, NT, TN) and the convolution's unfolded product. The operand
// layouts differ only in how a block of B is read, so one blocked routine
// serves all of them, with B given as a packer that writes a block straight
// into the panel layout:
//
//	fork once: each worker takes a sub-rectangle of C (below)
//	  for each column block of its columns (gemmNC wide):
//	    for each k block (gemmKC deep), in ascending order:
//	      pack the B block into panels of gemmNR contiguous columns
//	      for each row panel of its rows (gemmMR rows each):
//	        pack the A panel, then run the register-tiled micro-kernel
//	        against every packed B panel
//
// Packing makes the micro-kernel's loads contiguous regardless of operand
// orientation, and the gemmMR x gemmNR register tile keeps the C
// accumulators resident in registers across the whole k block. On amd64 the
// micro-kernel is four-wide SSE assembly (see gemm_amd64.s); elsewhere a
// pure-Go version with the same accumulation order is used. A strided
// matrix's packer is packB; a convolution's (ConvDims.MatMulUnfoldInto)
// reads the images themselves, so the unfold is never formed.
//
// A product forks exactly once. When C has at least gemmColsPerWorker
// column panels per worker, the workers split the column panels, each
// packing its own B blocks and all of A; otherwise (tall, narrow products
// such as a convolution's input gradient Wᵀ @ dy) they split the row panels,
// each packing its own A panels and all of B. Every worker owns whole
// panels of C, so no two write the same element.
//
// Each worker takes one pack buffer, an A panel and a B block, from a shared
// FreeList sized for the largest block rather than for the operands, so a
// product allocates only its fork's bookkeeping however often it runs and
// however large its operands are.
//
// Accumulation order over k is ascending everywhere — identical to the
// naive small-product kernels and independent of worker count, split,
// block boundaries and row grouping — so results are bitwise identical
// across batch sizes and parallelism settings. The cloud micro-batching
// layer relies on this to return the same predictions batched or not.

const (
	gemmMR = 4   // micro-tile rows (C rows resident in registers)
	gemmNR = 8   // micro-tile cols (two 4-wide vectors per C row)
	gemmKC = 64  // k extent of a packed B block
	gemmNC = 256 // column extent of a packed B block

	// gemmSmall is the multiply-add count below which the naive kernels
	// win: packing costs more than it saves once operands fit in L1.
	gemmSmall = 32 * 1024

	// gemmColsPerWorker is the fewest column panels per worker for which a
	// product splits over columns rather than rows: below it, a column
	// split would leave workers idle or hand each a sliver of B while all
	// of them re-pack the whole of A.
	gemmColsPerWorker = 4

	// gemmPackBufs caps the pack buffers the shared list retains: one per
	// worker of every product in flight, with room for the nested forks of
	// a convolution's backward and a few concurrent callers. It retains at
	// most 16 × 65 KiB ≈ 1.0 MiB.
	gemmPackBufs = 16
)

// packBufs hands each worker of a product one buffer: an A panel
// [gemmKC][gemmMR] followed by a B block, gemmNC/gemmNR panels
// [gemmKC][gemmNR].
var packBufs = NewFreeList(gemmKC*gemmMR+gemmKC*gemmNC, gemmPackBufs)

// bPacker writes rows [p0, p0+kb) and columns [j0, j0+nb) of a GEMM's B
// operand into dst as ceil(nb/gemmNR) panels, each [kb][gemmNR], with the
// ragged final panel zero-padded. gemmBlocked calls it from several workers
// at once, for disjoint or identical blocks, so it must only read B.
type bPacker func(dst []float32, p0, kb, j0, nb int)

// stridedB is the packer of a strided B, B(p,j) = b[p*brs+j*bcs].
func stridedB(b []float32, brs, bcs int) bPacker {
	return func(dst []float32, p0, kb, j0, nb int) { packB(dst, b, brs, bcs, p0, kb, j0, nb) }
}

// gemmBlocked computes out[m,n] += A @ B where A(i,p) = a[i*ars+p*acs] and
// B is written into panels by pack. out must be row-major [m,n] and
// zero-initialised (or hold a partial sum to accumulate onto).
func gemmBlocked(a []float32, ars, acs int, pack bPacker, out []float32, m, k, n int) {
	rowPanels := (m + gemmMR - 1) / gemmMR
	colPanels := (n + gemmNR - 1) / gemmNR
	if colPanels >= gemmColsPerWorker*maxWorkers {
		ParFor(colPanels, func(s, e int) {
			gemmRect(a, ars, acs, pack, out, n, k, 0, m, s*gemmNR, min(e*gemmNR, n))
		})
		return
	}
	ParFor(rowPanels, func(s, e int) {
		gemmRect(a, ars, acs, pack, out, n, k, s*gemmMR, min(e*gemmMR, m), 0, n)
	})
}

// gemmRect is one worker's share of gemmBlocked: rows [i0, i1) and columns
// [j0, j1) of the [m,n] product out (ldc = n), over all k. i0 and j0 fall on
// panel boundaries, so the ragged panels are those of the whole product.
func gemmRect(a []float32, ars, acs int, pack bPacker, out []float32, n, k, i0, i1, j0, j1 int) {
	buf := packBufs.Get()
	defer packBufs.Put(buf)
	aBuf, bBuf := buf[:gemmKC*gemmMR], buf[gemmKC*gemmMR:]
	for jc := j0; jc < j1; jc += gemmNC {
		nb := min(gemmNC, j1-jc)
		nPanelsB := (nb + gemmNR - 1) / gemmNR
		for pc := 0; pc < k; pc += gemmKC {
			kb := min(gemmKC, k-pc)
			pack(bBuf, pc, kb, jc, nb)
			for i := i0; i < i1; i += gemmMR {
				rows := min(gemmMR, i1-i)
				packA(aBuf, a, ars, acs, i, rows, pc, kb)
				cBase := i*n + jc
				for jp := 0; jp < nPanelsB; jp++ {
					j := jp * gemmNR
					cols := min(gemmNR, nb-j)
					bp := bBuf[jp*kb*gemmNR : (jp+1)*kb*gemmNR]
					if rows == gemmMR && cols == gemmNR {
						micro4x8(&aBuf[0], &bp[0], kb, &out[cBase+j], n)
					} else {
						microEdge(aBuf, bp, kb, out[cBase+j:], n, rows, cols)
					}
				}
			}
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
