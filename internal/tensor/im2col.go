package tensor

import "fmt"

// ConvDims describes a 2-D convolution geometry shared by im2col/col2im and
// the convolution layers built on top of them.
type ConvDims struct {
	InC, InH, InW int // input channels and spatial size
	KH, KW        int // kernel size
	Stride, Pad   int // symmetric stride and zero padding
	OutH, OutW    int // derived output spatial size
}

// NewConvDims validates and derives the output geometry for a convolution.
func NewConvDims(inC, inH, inW, kh, kw, stride, pad int) ConvDims {
	if stride < 1 {
		panic(fmt.Sprintf("tensor: conv stride %d < 1", stride))
	}
	if pad < 0 {
		panic(fmt.Sprintf("tensor: conv pad %d < 0", pad))
	}
	outH := (inH+2*pad-kh)/stride + 1
	outW := (inW+2*pad-kw)/stride + 1
	if outH < 1 || outW < 1 {
		panic(fmt.Sprintf("tensor: conv output %dx%d invalid for in %dx%d k %dx%d s %d p %d",
			outH, outW, inH, inW, kh, kw, stride, pad))
	}
	return ConvDims{InC: inC, InH: inH, InW: inW, KH: kh, KW: kw, Stride: stride, Pad: pad, OutH: outH, OutW: outW}
}

// ColRows returns the number of rows of the im2col matrix (inC*kh*kw).
func (d ConvDims) ColRows() int { return d.InC * d.KH * d.KW }

// ColCols returns the number of columns of the im2col matrix (outH*outW).
func (d ConvDims) ColCols() int { return d.OutH * d.OutW }

// Im2Col unfolds one image [C,H,W] into a matrix [C*kh*kw, outH*outW] so
// convolution becomes a single matrix product weight[F, C*kh*kw] @ cols.
// src is the image data; dst must have length ColRows()*ColCols(). The
// convolution layers never form it — MatMulUnfoldInto, WeightGradInto and
// UnfoldGradInto pack its blocks straight from the images — so it serves
// as their reference.
func (d ConvDims) Im2Col(src, dst []float32) {
	if len(src) != d.InC*d.InH*d.InW {
		panic(fmt.Sprintf("tensor: Im2Col src length %d != %d", len(src), d.InC*d.InH*d.InW))
	}
	if len(dst) != d.ColRows()*d.ColCols() {
		panic(fmt.Sprintf("tensor: Im2Col dst length %d != %d", len(dst), d.ColRows()*d.ColCols()))
	}
	cols := d.ColCols()
	row := 0
	for c := 0; c < d.InC; c++ {
		plane := src[c*d.InH*d.InW : (c+1)*d.InH*d.InW]
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				dstRow := dst[row*cols : (row+1)*cols]
				i := 0
				for oy := 0; oy < d.OutH; oy++ {
					sy := oy*d.Stride + ky - d.Pad
					if sy < 0 || sy >= d.InH {
						for ox := 0; ox < d.OutW; ox++ {
							dstRow[i] = 0
							i++
						}
						continue
					}
					srow := plane[sy*d.InW : (sy+1)*d.InW]
					for ox := 0; ox < d.OutW; ox++ {
						sx := ox*d.Stride + kx - d.Pad
						if sx < 0 || sx >= d.InW {
							dstRow[i] = 0
						} else {
							dstRow[i] = srow[sx]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// MatMulUnfoldInto overwrites out [m, t*ColCols()] with w [m, ColRows()]
// times the unfolds of t images x [t, InC, InH, InW] side by side: column
// j*ColCols()+q of the product is output position q of image j. It gives
// the bits that Im2Col of each image into the columns of one
// [ColRows(), t*ColCols()] matrix followed by MatMulInto would, but never
// forms that matrix: the product's packer reads each block of it straight
// from the images into the panel layout the micro-kernel wants. A product
// under gemmSmall takes the blocked path too: its accumulation order is the
// naive kernels', so the bits are the same.
func (d ConvDims) MatMulUnfoldInto(out, w, x []float32, m, t int) {
	k, n := d.ColRows(), t*d.ColCols()
	if len(w) < m*k || len(x) < t*d.InC*d.InH*d.InW || len(out) < m*n {
		panic(fmt.Sprintf("tensor: MatMulUnfoldInto m %d over %d images of %+v with slice lengths w %d, x %d, out %d",
			m, t, d, len(w), len(x), len(out)))
	}
	out = out[:m*n]
	clear(out)
	gemmBlocked(w, k, 1, func(dst []float32, p0, kb, j0, nb int) {
		d.packUnfold(dst, x, p0, kb, j0, nb)
	}, out, m, k, n)
}

// packUnfold is the bPacker of MatMulUnfoldInto: rows [p0, p0+kb) and
// columns [j0, j0+nb) of the images' side-by-side unfold, as panels
// [kb][gemmNR]. Unfold row p is tap (c, ky, kx) = (p/(KH*KW), p/KW%KH,
// p%KW) and column j output position (oy, ox) of image j/ColCols(); the
// element is x[image][c][oy*Stride+ky-Pad][ox*Stride+kx-Pad], or 0 in the
// padding. The packer walks a panel column by column: a column whose
// window lies wholly inside its image gathers its kb elements through one
// offset table; only a border column tests each tap against the padding.
func (d ConvDims) packUnfold(dst, x []float32, p0, kb, j0, nb int) {
	var (
		off    [gemmKC]int // tap offset within an image: c*InH*InW + ky*InW + kx
		ky, kx [gemmKC]int
	)
	inPlane, imgSize, plane := d.InH*d.InW, d.InC*d.InH*d.InW, d.ColCols()
	c, y, xx := p0/(d.KH*d.KW), p0/d.KW%d.KH, p0%d.KW
	for p := 0; p < kb; p++ {
		off[p], ky[p], kx[p] = c*inPlane+y*d.InW+xx, y, xx
		if xx++; xx == d.KW {
			if xx, y = 0, y+1; y == d.KH {
				y, c = 0, c+1
			}
		}
	}
	offs, kys, kxs := off[:kb], ky[:kb], kx[:kb]
	nPanels := (nb + gemmNR - 1) / gemmNR
	for jp := 0; jp < nPanels; jp++ {
		panel := dst[jp*kb*gemmNR : (jp+1)*kb*gemmNR]
		cols := min(gemmNR, nb-jp*gemmNR)
		for col := 0; col < cols; col++ {
			j := j0 + jp*gemmNR + col
			img, q := j/plane, j%plane
			sy0, sx0 := q/d.OutW*d.Stride-d.Pad, q%d.OutW*d.Stride-d.Pad
			origin := img*imgSize + sy0*d.InW + sx0
			if sy0 >= 0 && sx0 >= 0 && sy0+d.KH <= d.InH && sx0+d.KW <= d.InW {
				src := x[img*imgSize : (img+1)*imgSize]
				base := sy0*d.InW + sx0
				for p, o := range offs {
					panel[p*gemmNR+col] = src[base+o]
				}
				continue
			}
			for p, o := range offs {
				sy, sx := sy0+kys[p], sx0+kxs[p]
				if uint(sy) < uint(d.InH) && uint(sx) < uint(d.InW) {
					panel[p*gemmNR+col] = x[origin+o]
				} else {
					panel[p*gemmNR+col] = 0
				}
			}
		}
		for col := cols; col < gemmNR; col++ {
			for p := 0; p < kb; p++ {
				panel[p*gemmNR+col] = 0
			}
		}
	}
}

// UnfoldGradInto overwrites out [ColRows(), t*ColCols()] with wᵀ, for w
// [m, ColRows()], times the output gradients of t images dy [t, m, OutH,
// OutW] side by side: column j*ColCols()+q is the unfold gradient of image
// j at output position q, which Col2ImStrided folds into the image's input
// gradient. Every element is the sum over the m rows of w in ascending
// order, from zero, so column block j holds the bits MatMulTNInto of w and
// image j's [m, ColCols()] gradient alone gives; the product only packs the
// weights once per tile and sees a wide B operand, which its packer reads
// straight from dy.
func (d ConvDims) UnfoldGradInto(out, w, dy []float32, m, t int) {
	k, plane := d.ColRows(), d.ColCols()
	n := t * plane
	if len(w) < m*k || len(dy) < t*m*plane || len(out) < k*n {
		panic(fmt.Sprintf("tensor: UnfoldGradInto m %d over %d images of %+v with slice lengths w %d, dy %d, out %d",
			m, t, d, len(w), len(dy), len(out)))
	}
	out = out[:k*n]
	clear(out)
	gemmBlocked(w, 1, k, func(dst []float32, p0, kb, j0, nb int) {
		packGrads(dst, dy, m*plane, plane, p0, kb, j0, nb)
	}, out, k, m, n)
}

// packGrads is the bPacker of UnfoldGradInto: rows [p0, p0+kb) and columns
// [j0, j0+nb) of the images' [m, plane] gradients side by side, B(p, j) =
// dy[j/plane*imgSize + p*plane + j%plane], as panels [kb][gemmNR]. Each
// panel gathers its rows through one offset per column, so a panel that
// crosses an image boundary costs no more than one inside an image.
func packGrads(dst, dy []float32, imgSize, plane, p0, kb, j0, nb int) {
	var base [gemmNR]int // offset of B(p0, column) in dy
	img, q := j0/plane, j0%plane
	nPanels := (nb + gemmNR - 1) / gemmNR
	for jp := 0; jp < nPanels; jp++ {
		panel := dst[jp*kb*gemmNR : (jp+1)*kb*gemmNR]
		cols := min(gemmNR, nb-jp*gemmNR)
		for col := 0; col < cols; col++ {
			base[col] = img*imgSize + p0*plane + q
			if q++; q == plane {
				q, img = 0, img+1
			}
		}
		for p := 0; p < kb; p++ {
			row := panel[p*gemmNR : (p+1)*gemmNR]
			for col, b := range base[:cols] {
				row[col] = dy[b+p*plane]
			}
			clear(row[cols:])
		}
	}
}

// WeightGradInto overwrites out [m, ColRows()] with one image's output
// gradient dy [m, ColCols()] times the transpose of the image's unfold, x
// [InC, InH, InW]: the image's share of a convolution's weight gradient.
// Every element is the sum over the output positions in ascending order,
// from zero, so out holds the bits Im2Col followed by MatMulNTInto gives;
// the product never forms the unfold, its packer reads it from x. A
// product under gemmSmall takes the blocked path too: its accumulation
// order is the naive kernel's.
func (d ConvDims) WeightGradInto(out, dy, x []float32, m int) {
	k, n := d.ColCols(), d.ColRows()
	if len(dy) < m*k || len(x) < d.InC*d.InH*d.InW || len(out) < m*n {
		panic(fmt.Sprintf("tensor: WeightGradInto m %d of %+v with slice lengths dy %d, x %d, out %d",
			m, d, len(dy), len(x), len(out)))
	}
	out = out[:m*n]
	clear(out)
	gemmBlocked(dy, k, 1, func(dst []float32, p0, kb, j0, nb int) {
		d.packUnfoldT(dst, x, p0, kb, j0, nb)
	}, out, m, k, n)
}

// packUnfoldT is the bPacker of WeightGradInto: rows [p0, p0+kb) and
// columns [j0, j0+nb) of one image's transposed unfold, as panels
// [kb][gemmNR]. Row p is output position (oy, ox) = (p/OutW, p%OutW) and
// column j tap (c, ky, kx) = (j/(KH*KW), j/KW%KH, j%KW); the element is
// x[c][oy*Stride+ky-Pad][ox*Stride+kx-Pad], or 0 in the padding. It is
// packUnfold with the roles turned: a panel's taps get one offset table,
// and the packer walks the output positions with running window
// coordinates, so no element costs a division. A position whose window lies
// wholly inside the image gathers its panel row through the table; only a
// border position tests each tap against the padding.
func (d ConvDims) packUnfoldT(dst, x []float32, p0, kb, j0, nb int) {
	var (
		off    [gemmNR]int // tap offset within the image: c*InH*InW + ky*InW + kx
		ky, kx [gemmNR]int
	)
	inPlane := d.InH * d.InW
	c, y, xx := j0/(d.KH*d.KW), j0/d.KW%d.KH, j0%d.KW
	nPanels := (nb + gemmNR - 1) / gemmNR
	for jp := 0; jp < nPanels; jp++ {
		panel := dst[jp*kb*gemmNR : (jp+1)*kb*gemmNR]
		cols := min(gemmNR, nb-jp*gemmNR)
		for col := 0; col < cols; col++ {
			off[col], ky[col], kx[col] = c*inPlane+y*d.InW+xx, y, xx
			if xx++; xx == d.KW {
				if xx, y = 0, y+1; y == d.KH {
					y, c = 0, c+1
				}
			}
		}
		offs, kys, kxs := off[:cols], ky[:cols], kx[:cols]
		ox := p0 % d.OutW
		sy0, sx0 := p0/d.OutW*d.Stride-d.Pad, ox*d.Stride-d.Pad
		for p := 0; p < kb; p++ {
			row := panel[p*gemmNR : (p+1)*gemmNR]
			origin := sy0*d.InW + sx0
			if sy0 >= 0 && sx0 >= 0 && sy0+d.KH <= d.InH && sx0+d.KW <= d.InW {
				for col, o := range offs {
					row[col] = x[origin+o]
				}
			} else {
				for col, o := range offs {
					if sy, sx := sy0+kys[col], sx0+kxs[col]; uint(sy) < uint(d.InH) && uint(sx) < uint(d.InW) {
						row[col] = x[origin+o]
					} else {
						row[col] = 0
					}
				}
			}
			clear(row[cols:])
			if ox++; ox == d.OutW {
				ox, sx0, sy0 = 0, -d.Pad, sy0+d.Stride
			} else {
				sx0 += d.Stride
			}
		}
	}
}

// Col2Im folds a column matrix [ColRows(), ColCols()] back into an image,
// accumulating overlapping patches — the adjoint of Im2Col. It is
// Col2ImStrided of a matrix whose rows are ColCols() apart.
func (d ConvDims) Col2Im(src, dst []float32) {
	if len(src) != d.ColRows()*d.ColCols() {
		panic(fmt.Sprintf("tensor: Col2Im src length %d != %d", len(src), d.ColRows()*d.ColCols()))
	}
	d.Col2ImStrided(src, d.ColCols(), dst)
}

// Col2ImStrided folds a column matrix [ColRows(), ColCols()] whose rows
// start ld floats apart in src back into an image, accumulating
// overlapping patches: the adjoint of Im2Col, used for input gradients.
// With ld = t*ColCols() and src starting at column j*ColCols() of the
// [ColRows(), t*ColCols()] matrix UnfoldGradInto forms, it folds image j's
// unfold gradient. dst must be zeroed by the caller if accumulation from
// zero is desired.
func (d ConvDims) Col2ImStrided(src []float32, ld int, dst []float32) {
	if len(dst) != d.InC*d.InH*d.InW {
		panic(fmt.Sprintf("tensor: Col2Im dst length %d != %d", len(dst), d.InC*d.InH*d.InW))
	}
	cols := d.ColCols()
	if ld < cols || len(src) < (d.ColRows()-1)*ld+cols {
		panic(fmt.Sprintf("tensor: Col2Im src length %d too short for %d rows of %d at stride %d",
			len(src), d.ColRows(), cols, ld))
	}
	row := 0
	for c := 0; c < d.InC; c++ {
		plane := dst[c*d.InH*d.InW : (c+1)*d.InH*d.InW]
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				srcRow := src[row*ld : row*ld+cols]
				i := 0
				for oy := 0; oy < d.OutH; oy++ {
					sy := oy*d.Stride + ky - d.Pad
					if sy < 0 || sy >= d.InH {
						i += d.OutW
						continue
					}
					prow := plane[sy*d.InW : (sy+1)*d.InW]
					for ox := 0; ox < d.OutW; ox++ {
						sx := ox*d.Stride + kx - d.Pad
						if sx >= 0 && sx < d.InW {
							prow[sx] += srcRow[i]
						}
						i++
					}
				}
				row++
			}
		}
	}
}
