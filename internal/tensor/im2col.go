package tensor

import (
	"fmt"
	"unsafe"
)

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
// UnfoldGradInto pack its blocks straight from the images or the
// gradients — so it serves as their reference.
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

// PaddedLen is the floats of one image copied with its zero border,
// InC·(InH+2·Pad)·(InW+2·Pad): the scratch MatMulUnfoldInto takes per image
// and WeightGradInto for its one image. It is 0 when Pad is 0, where the
// products read the images in place.
func (d ConvDims) PaddedLen() int {
	if d.Pad == 0 {
		return 0
	}
	return d.InC * (d.InH + 2*d.Pad) * (d.InW + 2*d.Pad)
}

// withBorder returns the t images x as the unfold packers read them, with
// their geometry: x itself when Pad is 0, else x copied into padded [t,
// InC, InH+2·Pad, InW+2·Pad] with a zero border, every float of
// padded[:t·PaddedLen()] written, under the same convolution with Pad 0 —
// its output geometry is d's, and its unfold holds the bits of d's, the
// border's +0 where d's has the padding's. The packers never see padding.
func (d ConvDims) withBorder(padded, x []float32, t int) (ConvDims, []float32) {
	if d.Pad == 0 {
		return d, x
	}
	if len(padded) < t*d.PaddedLen() {
		panic(fmt.Sprintf("tensor: padded scratch of %d floats for %d images of %+v, want %d",
			len(padded), t, d, t*d.PaddedLen()))
	}
	p, ph, pw := d.Pad, d.InH+2*d.Pad, d.InW+2*d.Pad
	padded = padded[:t*d.InC*ph*pw]
	clear(padded) // one pass over the block beats clearing each border run
	// Copy the rows of every plane one after another, element by element: a
	// copy call costs more than the few floats of a row.
	di, y := p*pw+p, 0 // where the row starts in padded, and its y
	for si := 0; si < t*d.InC*d.InH*d.InW; si += d.InW {
		dst := padded[di : di+d.InW]
		for k, v := range x[si : si+d.InW] {
			dst[k] = v
		}
		if di, y = di+pw, y+1; y == d.InH {
			di, y = di+2*p*pw, 0
		}
	}
	return NewConvDims(d.InC, ph, pw, d.KH, d.KW, d.Stride, 0), padded
}

// MatMulUnfoldInto overwrites out [m, t*ColCols()] with w [m, ColRows()]
// times the unfolds of t images x [t, InC, InH, InW] side by side: column
// j*ColCols()+q of the product is output position q of image j. It gives
// the bits that Im2Col of each image into the columns of one
// [ColRows(), t*ColCols()] matrix followed by MatMulInto would, but never
// forms that matrix: the images are copied once into padded with their
// zero border (withBorder; padded holds t*PaddedLen() floats and may be nil
// when Pad is 0), and the product's packer reads each block of the unfold from
// there into the panel layout the micro-kernel wants. A product under
// gemmSmall takes the blocked path too: its accumulation order is the naive
// kernels', so the bits are the same.
func (d ConvDims) MatMulUnfoldInto(out, w, x, padded []float32, m, t int) {
	k, n := d.ColRows(), t*d.ColCols()
	if len(w) < m*k || len(x) < t*d.InC*d.InH*d.InW || len(out) < m*n {
		panic(fmt.Sprintf("tensor: MatMulUnfoldInto m %d over %d images of %+v with slice lengths w %d, x %d, out %d",
			m, t, d, len(w), len(x), len(out)))
	}
	out = out[:m*n]
	clear(out)
	pd, src := d.withBorder(padded, x, t)
	gemmBlocked(w, k, 1, func(dst []float32, p0, kb, j0, nb int) {
		pd.packUnfold(dst, src, p0, kb, j0, nb)
	}, out, m, k, n)
}

// packUnfold is the bPacker of MatMulUnfoldInto over images with no
// padding (Pad 0, see withBorder): rows [p0, p0+kb) and columns [j0,
// j0+nb) of the images' side-by-side unfold, as panels [kb][gemmNR]. Unfold
// row p is tap (c, ky, kx) and column j output position (oy, ox) of image
// j/ColCols(); the element is x[image][c][oy*Stride+ky][ox*Stride+kx]. The
// taps get one offset table per call and the columns one window origin
// each per panel, from a running origin, so no element costs a division
// or a test: each panel row is one gather of gemmNR elements, or, when a
// stride-1 panel lies in one output row, one copy of gemmNR consecutive
// floats.
func (d ConvDims) packUnfold(dst, x []float32, p0, kb, j0, nb int) {
	var off [gemmKC]int // tap offset within an image: c*InH*InW + ky*InW + kx
	inPlane, imgSize, plane := d.InH*d.InW, d.InC*d.InH*d.InW, d.ColCols()
	c, y, xx := p0/(d.KH*d.KW), p0/d.KW%d.KH, p0%d.KW
	for p := 0; p < kb; p++ {
		off[p] = c*inPlane + y*d.InW + xx
		if xx++; xx == d.KW {
			if xx, y = 0, y+1; y == d.KH {
				y, c = 0, c+1
			}
		}
	}
	taps := offsetsOf(off[:kb])
	// Walk the output positions from column j0 with a running window
	// origin: Stride on along a row, then on to the next row's first
	// window, and past the last row to the next image's.
	rowSkip, imgSkip := (d.InW-d.OutW)*d.Stride, imgSize-d.OutH*d.Stride*d.InW
	img, q := j0/plane, j0%plane
	oy, ox := q/d.OutW, q%d.OutW
	origin := img*imgSize + (oy*d.InW+ox)*d.Stride
	var base [gemmNR]int // the window origin of each of a panel's columns
	nPanels := (nb + gemmNR - 1) / gemmNR
	for jp := 0; jp < nPanels; jp++ {
		panel := dst[jp*kb*gemmNR : (jp+1)*kb*gemmNR]
		cols := min(gemmNR, nb-jp*gemmNR)
		inRow := cols == gemmNR && d.Stride == 1 && ox+gemmNR <= d.OutW
		for col := 0; col < cols; col++ {
			base[col] = origin
			origin += d.Stride
			if ox++; ox == d.OutW {
				ox, origin = 0, origin+rowSkip
				if oy++; oy == d.OutH {
					oy, origin = 0, origin+imgSkip
				}
			}
		}
		if inRow {
			copyRows(panel, x, taps, base[0])
		} else {
			gatherPanel(panel, x, taps, offsetsOf(base[:cols]))
		}
	}
}

// offsets is a packer's table of offsets into its source, with its least
// and greatest entry, so that a panel's reads are range-tested once.
type offsets struct {
	at     []int
	lo, hi int
}

// offsetsOf returns the non-empty table at with its range.
func offsetsOf(at []int) offsets {
	o := offsets{at: at, lo: at[0], hi: at[0]}
	for _, v := range at[1:] {
		o.lo, o.hi = min(o.lo, v), max(o.hi, v)
	}
	return o
}

// The panel fills below test once that every float they read lies in x
// and then read it by address: bounds checks on each read would cost as
// much as the copy, and keep the four column offsets out of registers.

// copyRows fills the rows of panel, [len(rows.at)][gemmNR], with the gemmNR
// consecutive floats of x from base past each row offset.
func copyRows(panel, x []float32, rows offsets, base int) {
	if base+rows.lo < 0 || base+rows.hi+gemmNR > len(x) {
		packOutOfRange(base+rows.lo, base+rows.hi+gemmNR-1, len(x))
	}
	_ = panel[len(rows.at)*gemmNR-1] // the last float a row writes lies in panel
	pp, px := unsafe.Pointer(unsafe.SliceData(panel)), unsafe.Add(unsafe.Pointer(unsafe.SliceData(x)), 4*base)
	for _, o := range rows.at {
		row, src := (*[gemmNR]float32)(pp), (*[gemmNR]float32)(unsafe.Add(px, 4*o))
		row[0], row[1], row[2], row[3] = src[0], src[1], src[2], src[3]
		row[4], row[5], row[6], row[7] = src[4], src[5], src[6], src[7]
		pp = unsafe.Add(pp, 4*gemmNR)
	}
}

// gatherPanel fills panel, [len(rows.at)][gemmNR], with B(p, c) =
// x[rows.at[p]+cols.at[c]] for the len(cols.at) ≤ gemmNR columns, and
// zero-pads the columns past them.
func gatherPanel(panel, x []float32, rows, cols offsets) {
	if rows.lo+cols.lo < 0 || rows.hi+cols.hi >= len(x) {
		packOutOfRange(rows.lo+cols.lo, rows.hi+cols.hi, len(x))
	}
	_ = panel[len(rows.at)*gemmNR-1] // the last float a row writes lies in panel
	if len(cols.at) == gemmNR {
		gather4(panel, x, rows.at, cols.at[:4])
		gather4(panel[4:], x, rows.at, cols.at[4:])
		return
	}
	for p, o := range rows.at {
		row := panel[p*gemmNR : (p+1)*gemmNR]
		for col, b := range cols.at {
			row[col] = x[b+o]
		}
		clear(row[len(cols.at):])
	}
}

// gather4 writes x[o+cols[c]] for the four columns c to the first four
// floats of each gemmNR-float row of panel, one row per offset o of rows.
// Its caller has range-tested every read; four columns at a time keep
// their offsets in registers.
func gather4(panel, x []float32, rows, cols []int) {
	b0, b1, b2, b3 := 4*cols[0], 4*cols[1], 4*cols[2], 4*cols[3]
	pp, px := unsafe.Pointer(unsafe.SliceData(panel)), unsafe.Pointer(unsafe.SliceData(x))
	for _, o := range rows {
		src, row := unsafe.Add(px, 4*o), (*[4]float32)(pp)
		row[0] = *(*float32)(unsafe.Add(src, b0))
		row[1] = *(*float32)(unsafe.Add(src, b1))
		row[2] = *(*float32)(unsafe.Add(src, b2))
		row[3] = *(*float32)(unsafe.Add(src, b3))
		pp = unsafe.Add(pp, 4*gemmNR)
	}
}

// packOutOfRange panics for a panel that would read x[lo] to x[hi] of an
// n-float x.
func packOutOfRange(lo, hi, n int) {
	panic(fmt.Sprintf("tensor: unfold pack reads x[%d] to x[%d] of %d floats", lo, hi, n))
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
	var row [gemmKC]int // offset of row p past B(p0, column)
	for p := range row[:kb] {
		row[p] = p * plane
	}
	rows := offsetsOf(row[:kb])
	var base [gemmNR]int // offset of B(p0, column) in dy
	img, q := j0/plane, j0%plane
	nPanels := (nb + gemmNR - 1) / gemmNR
	for jp := 0; jp < nPanels; jp++ {
		cols := min(gemmNR, nb-jp*gemmNR)
		for col := 0; col < cols; col++ {
			base[col] = img*imgSize + p0*plane + q
			if q++; q == plane {
				q, img = 0, img+1
			}
		}
		gatherPanel(dst[jp*kb*gemmNR:(jp+1)*kb*gemmNR], dy, rows, offsetsOf(base[:cols]))
	}
}

// WeightGradInto overwrites out [m, ColRows()] with one image's output
// gradient dy [m, ColCols()] times the transpose of the image's unfold, x
// [InC, InH, InW]: the image's share of a convolution's weight gradient.
// Every element is the sum over the output positions in ascending order,
// from zero, so out holds the bits Im2Col followed by MatMulNTInto gives;
// the product never forms the unfold: the image is copied into padded with
// its zero border (withBorder; PaddedLen() floats, may be nil when Pad is
// 0) and
// the packer reads the unfold from there. A product under gemmSmall takes
// the blocked path too: its accumulation order is the naive kernel's.
func (d ConvDims) WeightGradInto(out, dy, x, padded []float32, m int) {
	k, n := d.ColCols(), d.ColRows()
	if len(dy) < m*k || len(x) < d.InC*d.InH*d.InW || len(out) < m*n {
		panic(fmt.Sprintf("tensor: WeightGradInto m %d of %+v with slice lengths dy %d, x %d, out %d",
			m, d, len(dy), len(x), len(out)))
	}
	out = out[:m*n]
	clear(out)
	pd, src := d.withBorder(padded, x, 1)
	gemmBlocked(dy, k, 1, func(dst []float32, p0, kb, j0, nb int) {
		pd.packUnfoldT(dst, src, p0, kb, j0, nb)
	}, out, m, k, n)
}

// packUnfoldT is the bPacker of WeightGradInto over an image with no
// padding (Pad 0, see withBorder): rows [p0, p0+kb) and columns [j0,
// j0+nb) of the image's transposed unfold, as panels [kb][gemmNR]. Row p is
// output position (oy, ox) = (p/OutW, p%OutW) and column j tap (c, ky, kx)
// = (j/(KH*KW), j/KW%KH, j%KW); the element is
// x[c][oy*Stride+ky][ox*Stride+kx]. It is packUnfold with the roles turned:
// the rows get one window origin each per call, from a running output
// coordinate, and a panel's taps one offset table, so each panel row is one
// gather and no element costs a division or a test.
func (d ConvDims) packUnfoldT(dst, x []float32, p0, kb, j0, nb int) {
	var origin [gemmKC]int // window origin of each row's output position
	ox, rowOrigin := p0%d.OutW, p0/d.OutW*d.Stride*d.InW
	for p := 0; p < kb; p++ {
		origin[p] = rowOrigin + ox*d.Stride
		if ox++; ox == d.OutW {
			ox, rowOrigin = 0, rowOrigin+d.Stride*d.InW
		}
	}
	origins := offsetsOf(origin[:kb])
	var off [gemmNR]int // tap offset within the image: c*InH*InW + ky*InW + kx
	inPlane := d.InH * d.InW
	c, y, xx := j0/(d.KH*d.KW), j0/d.KW%d.KH, j0%d.KW
	nPanels := (nb + gemmNR - 1) / gemmNR
	for jp := 0; jp < nPanels; jp++ {
		panel := dst[jp*kb*gemmNR : (jp+1)*kb*gemmNR]
		cols := min(gemmNR, nb-jp*gemmNR)
		for col := 0; col < cols; col++ {
			off[col] = c*inPlane + y*d.InW + xx
			if xx++; xx == d.KW {
				if xx, y = 0, y+1; y == d.KH {
					y, c = 0, c+1
				}
			}
		}
		gatherPanel(panel, x, origins, offsetsOf(off[:cols]))
	}
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
		panic(fmt.Sprintf("tensor: Col2ImStrided dst length %d != %d", len(dst), d.InC*d.InH*d.InW))
	}
	cols := d.ColCols()
	if ld < cols || len(src) < (d.ColRows()-1)*ld+cols {
		panic(fmt.Sprintf("tensor: Col2ImStrided src length %d too short for %d rows of %d at stride %d",
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
