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
// src is the image data; dst must have length ColRows()*ColCols().
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

// Col2Im folds a column matrix back into an image, accumulating overlapping
// patches — the adjoint of Im2Col, used for input gradients. dst must be
// zeroed by the caller if accumulation from zero is desired.
func (d ConvDims) Col2Im(src, dst []float32) {
	if len(dst) != d.InC*d.InH*d.InW {
		panic(fmt.Sprintf("tensor: Col2Im dst length %d != %d", len(dst), d.InC*d.InH*d.InW))
	}
	if len(src) != d.ColRows()*d.ColCols() {
		panic(fmt.Sprintf("tensor: Col2Im src length %d != %d", len(src), d.ColRows()*d.ColCols()))
	}
	cols := d.ColCols()
	row := 0
	for c := 0; c < d.InC; c++ {
		plane := dst[c*d.InH*d.InW : (c+1)*d.InH*d.InW]
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				srcRow := src[row*cols : (row+1)*cols]
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
