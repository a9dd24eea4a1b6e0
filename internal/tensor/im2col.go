package tensor

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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
				ox0, ox1 := d.validCols(kx)
				for oy := 0; oy < d.OutH; oy++ {
					out := dstRow[oy*d.OutW : (oy+1)*d.OutW]
					sy := oy*d.Stride + ky - d.Pad
					if sy < 0 || sy >= d.InH || ox0 == ox1 {
						clear(out)
						continue
					}
					clear(out[:ox0])
					clear(out[ox1:])
					srow := plane[sy*d.InW : (sy+1)*d.InW]
					if d.Stride == 1 {
						copy(out[ox0:ox1], srow[ox0+kx-d.Pad:])
						continue
					}
					for ox := ox0; ox < ox1; ox++ {
						out[ox] = srow[ox*d.Stride+kx-d.Pad]
					}
				}
				row++
			}
		}
	}
}

// validCols returns the range [ox0,ox1) of output columns whose kernel
// column kx reads inside the image rather than its padding.
func (d *ConvDims) validCols(kx int) (ox0, ox1 int) {
	// sx = ox*Stride + kx - Pad must satisfy 0 <= sx < InW.
	if lo := d.Pad - kx; lo > 0 {
		ox0 = (lo + d.Stride - 1) / d.Stride
	}
	if hi := d.InW + d.Pad - kx; hi > 0 {
		ox1 = (hi + d.Stride - 1) / d.Stride
	}
	ox0 = min(ox0, d.OutW)
	return ox0, min(max(ox0, ox1), d.OutW)
}

// Conv computes the convolution out_s = w @ Im2Col(x_s) of the n CHW
// samples in x, writing each [outC, OutH*OutW] result straight into
// out[s*outC*ColCols():]. w is [outC, ColRows()] and is packed once for
// the whole batch; B panels are packed directly from the image, so no
// column matrix exists. out must be zeroed (or hold a partial sum). The
// result is bitwise equal to MatMul(w, Im2Col(x_s)) per sample.
func (d ConvDims) Conv(w, x, out []float32, outC, n int) {
	d.checkConv(w, x, out, outC, n, d.InC*d.InH*d.InW)
	j := newGemmJob(w, d.ColRows(), 1, 0, outC, d.ColRows(), 1)
	j.img, j.dims, j.b = true, d, x
	j.run(out, d.ColCols(), n, d.InC*d.InH*d.InW, outC*d.ColCols())
}

// ConvCols is Conv over materialised column matrices: out_s = w @ cols_s
// for the n [ColRows(), ColCols()] matrices in cols (the training forward,
// whose Backward needs them).
func (d ConvDims) ConvCols(w, cols, out []float32, outC, n int) {
	colLen := d.ColRows() * d.ColCols()
	d.checkConv(w, cols, out, outC, n, colLen)
	j := newGemmJob(w, d.ColRows(), 1, 0, outC, d.ColRows(), 1)
	j.b, j.brs, j.bcs = cols, d.ColCols(), 1
	j.run(out, d.ColCols(), n, colLen, outC*d.ColCols())
}

// ConvInputGrad accumulates the input gradient of Conv onto dx:
// dx_s += Col2Im(wᵀ @ dy_s) for the n [outC, ColCols()] samples of dy.
// wᵀ is packed once for the batch and the column gradients live in a
// pooled buffer. The result is bitwise equal to
// Col2Im(MatMulTN(w, dy_s), dx_s) per sample.
func (d ConvDims) ConvInputGrad(w, dy, dx []float32, outC, n int) {
	d.checkConv(w, dx, dy, outC, n, d.InC*d.InH*d.InW)
	colLen := d.ColRows() * d.ColCols()
	dcols := getScratch(n * colLen)
	j := newGemmJob(w, 1, d.ColRows(), 0, d.ColRows(), outC, 1)
	j.b, j.brs, j.bcs, j.overwrite = dy, d.ColCols(), 1, true
	j.run(dcols.Data, d.ColCols(), n, outC*d.ColCols(), colLen)
	d.foldBatch(dx, dcols.Data, n, false)
	dcols.Release()
}

// ConvWeightGrad accumulates the weight gradient of ConvCols onto the
// [outC, ColRows()] matrix dw: dw += Σ_s dy_s @ cols_sᵀ. Each element is
// one sequence of mul-then-adds onto its old value, ascending over
// (sample, output position) — a GEMM over the concatenated
// k = n*ColCols(). Workers split the elements of dw, never the sum, so the
// result is bitwise the same at every parallelism.
func (d ConvDims) ConvWeightGrad(dy, cols, dw []float32, outC, n int) {
	colLen := d.ColRows() * d.ColCols()
	d.checkConv(dw, cols, dy, outC, n, colLen)
	j := newGemmJob(dy, d.ColCols(), 1, outC*d.ColCols(), outC, d.ColCols(), n)
	j.b, j.brs, j.bcs = cols, 1, d.ColCols()
	j.run(dw, d.ColRows(), 1, colLen, 0)
}

// Unfold returns the column matrices Im2Col(x_s) of the n CHW samples of
// x, cols_s at Data[s*ColRows()*ColCols():], in a pooled buffer the caller
// releases. Samples are unfolded in parallel.
func (d ConvDims) Unfold(x []float32, n int) *Scratch {
	cols := getScratch(n * d.ColRows() * d.ColCols())
	d.foldBatch(x, cols.Data, n, true)
	return cols
}

func (d ConvDims) checkConv(w, src, out []float32, outC, n, srcLen int) {
	if len(w) != outC*d.ColRows() || len(src) != n*srcLen || len(out) != n*outC*d.ColCols() {
		panic(fmt.Sprintf("tensor: conv lengths w %d src %d out %d, want %d %d %d",
			len(w), len(src), len(out), outC*d.ColRows(), n*srcLen, n*outC*d.ColCols()))
	}
}

// foldJob runs Im2Col (unfold) or Col2Im over the samples of a batch.
type foldJob struct {
	dims      ConvDims
	img, cols []float32
	n         int
	unfold    bool
	next      atomic.Int64
	done      sync.WaitGroup
}

var foldJobs = sync.Pool{New: func() any { return new(foldJob) }}

func (j *foldJob) group() *sync.WaitGroup { return &j.done }

// foldBatch unfolds the n images in img into cols, or folds cols back
// onto img, on up to maxWorkers goroutines. Samples are independent, so
// the result does not depend on the split.
func (d ConvDims) foldBatch(img, cols []float32, n int, unfold bool) {
	if len(img) != n*d.InC*d.InH*d.InW || len(cols) != n*d.ColRows()*d.ColCols() {
		panic(fmt.Sprintf("tensor: fold lengths img %d cols %d, want %d %d",
			len(img), len(cols), n*d.InC*d.InH*d.InW, n*d.ColRows()*d.ColCols()))
	}
	j := foldJobs.Get().(*foldJob)
	j.dims, j.img, j.cols, j.n, j.unfold = d, img, cols, n, unfold
	j.next.Store(0)
	if parts := min(maxWorkers, n); parts > 1 && len(cols) > gemmSmall {
		runParallel(j, parts)
	} else {
		j.runPart()
	}
	j.img, j.cols = nil, nil
	foldJobs.Put(j)
}

// runPart claims samples until none are left.
func (j *foldJob) runPart() {
	d := &j.dims
	imgLen, colLen := d.InC*d.InH*d.InW, d.ColRows()*d.ColCols()
	for {
		s := int(j.next.Add(1) - 1)
		if s >= j.n {
			return
		}
		img, cols := j.img[s*imgLen:(s+1)*imgLen], j.cols[s*colLen:(s+1)*colLen]
		if j.unfold {
			d.Im2Col(img, cols)
		} else {
			d.Col2Im(cols, img)
		}
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
				ox0, ox1 := d.validCols(kx)
				for oy := 0; oy < d.OutH; oy++ {
					sy := oy*d.Stride + ky - d.Pad
					if sy < 0 || sy >= d.InH || ox0 == ox1 {
						continue
					}
					in := srcRow[oy*d.OutW+ox0 : oy*d.OutW+ox1]
					prow := plane[sy*d.InW : (sy+1)*d.InW]
					if d.Stride == 1 {
						acc := prow[ox0+kx-d.Pad:][:len(in)]
						for i, v := range in {
							acc[i] += v
						}
						continue
					}
					for i, v := range in {
						prow[(ox0+i)*d.Stride+kx-d.Pad] += v
					}
				}
				row++
			}
		}
	}
}
