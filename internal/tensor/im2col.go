package tensor

import (
	"fmt"
	"math"
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

// Conv computes the convolution out_s = w @ Im2Col(x_s) of the n CHW
// samples in x, writing each [outC, OutH*OutW] result straight into
// out[s*outC*ColCols():]. w is [outC, ColRows()] and is packed once for
// the whole batch; B panels are packed directly from the image, so no
// column matrix exists. out must be zeroed (or hold a partial sum). The
// result is bitwise equal to MatMul(w, Im2Col(x_s)) per sample.
func (d ConvDims) Conv(w, x, out []float32, outC, n int) {
	d.checkConv(w, x, out, outC, n, d.InC*d.InH*d.InW)
	j := newGemmJob(w, d.ColRows(), 1, outC, d.ColRows())
	j.img, j.dims, j.b = true, d, x
	j.run(out, d.ColCols(), n, d.InC*d.InH*d.InW, outC*d.ColCols())
}

// ConvCols is Conv over materialised column matrices: out_s = w @ cols_s
// for the n [ColRows(), ColCols()] matrices in cols (the training forward,
// whose Backward needs them).
func (d ConvDims) ConvCols(w, cols, out []float32, outC, n int) {
	colLen := d.ColRows() * d.ColCols()
	d.checkConv(w, cols, out, outC, n, colLen)
	j := newGemmJob(w, d.ColRows(), 1, outC, d.ColRows())
	j.b, j.brs, j.bcs = cols, d.ColCols(), 1
	j.run(out, d.ColCols(), n, colLen, outC*d.ColCols())
}

func (d ConvDims) checkConv(w, src, out []float32, outC, n, srcLen int) {
	if len(w) != outC*d.ColRows() || len(src) != n*srcLen || len(out) != n*outC*d.ColCols() {
		panic(fmt.Sprintf("tensor: conv lengths w %d src %d out %d, want %d %d %d",
			len(w), len(src), len(out), outC*d.ColRows(), n*srcLen, n*outC*d.ColCols()))
	}
}

// imageCols fills idx with the im2col source offsets of the columns
// [j0,j0+nb) for every kernel tap: idx[tap*padded+jj], tap = ky*KW+kx, is
// where in its channel plane the element of (tap, column j0+jj) lives, or
// -1 where the tap reads padding. Columns nb..padded-1, which fill out the
// last panel, are all -1. It returns idx, regrown if it was too short.
func (d *ConvDims) imageCols(idx []int32, j0, nb, padded int) []int32 {
	taps := d.KH * d.KW
	if cap(idx) < taps*padded {
		idx = make([]int32, taps*padded)
	}
	idx = idx[:taps*padded]
	for ky := 0; ky < d.KH; ky++ {
		for kx := 0; kx < d.KW; kx++ {
			t := idx[(ky*d.KW+kx)*padded : (ky*d.KW+kx+1)*padded]
			oy, ox := j0/d.OutW, j0%d.OutW
			for jj := range t {
				sy, sx := oy*d.Stride+ky-d.Pad, ox*d.Stride+kx-d.Pad
				if jj < nb && uint(sy) < uint(d.InH) && uint(sx) < uint(d.InW) {
					t[jj] = int32(sy*d.InW + sx)
				} else {
					t[jj] = -1
				}
				if ox++; ox == d.OutW {
					oy, ox = oy+1, 0
				}
			}
		}
	}
	return idx
}

// packImage packs rows [p0,p0+kb) of the im2col matrix of the CHW image
// img, over the columns idx (from imageCols) describes, into gemmNR-wide
// panels — the layout packB makes from the materialised matrix, zero
// padding included.
func (d *ConvDims) packImage(dst, img []float32, idx []int32, p0, kb int) {
	plane := d.InH * d.InW
	taps := d.KH * d.KW
	padded := len(idx) / taps
	c, tap := p0/taps, p0%taps
	for p := 0; p < kb; p++ {
		gatherRow(dst[p*gemmNR:], img[c*plane:(c+1)*plane], idx[tap*padded:(tap+1)*padded], kb)
		if tap++; tap == taps {
			tap, c = 0, c+1
		}
	}
}

// gatherRow writes src[idx[jj]] (+0 where idx[jj] < 0) for every column jj
// to dst[jj/gemmNR*kb*gemmNR+jj%gemmNR]: one row of a kb-deep panel set.
func gatherRow(dst, src []float32, idx []int32, kb int) {
	for j0 := 0; j0 < len(idx); j0 += gemmNR {
		dp := (*[gemmNR]float32)(dst[j0*kb:])
		for l, i := range (*[gemmNR]int32)(idx[j0:]) {
			// Branch-free select: a negative offset reads src[0] and
			// masks it to +0.
			neg := i >> 31
			dp[l] = math.Float32frombits(math.Float32bits(src[i&^neg]) &^ uint32(neg))
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
