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
	if len(dst) != d.ColRows()*d.ColCols() {
		panic(fmt.Sprintf("tensor: Im2Col dst length %d != %d", len(dst), d.ColRows()*d.ColCols()))
	}
	d.Im2ColInto(src, dst, d.ColCols())
}

// Im2ColInto unfolds one image like Im2Col into a wider matrix whose rows
// are ld floats apart: unfold row r lands at dst[r*ld : r*ld+ColCols()].
// Pointing dst at column j*ColCols() of a [ColRows, t*ColCols] matrix, with
// ld = t*ColCols(), places image j of a t-image tile beside the others, so
// one matrix product convolves the whole tile.
func (d ConvDims) Im2ColInto(src, dst []float32, ld int) {
	if len(src) != d.InC*d.InH*d.InW {
		panic(fmt.Sprintf("tensor: Im2Col src length %d != %d", len(src), d.InC*d.InH*d.InW))
	}
	cols := d.ColCols()
	if ld < cols || len(dst) < (d.ColRows()-1)*ld+cols {
		panic(fmt.Sprintf("tensor: Im2ColInto dst length %d with row stride %d cannot hold [%d,%d]",
			len(dst), ld, d.ColRows(), cols))
	}
	row := 0
	for c := 0; c < d.InC; c++ {
		plane := src[c*d.InH*d.InW : (c+1)*d.InH*d.InW]
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				dstRow := dst[row*ld : row*ld+cols]
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
