package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/meanet/meanet/internal/tensor"
)

// Conv2D is a standard 2-D convolution over NCHW tensors, computed as the
// matrix product weight @ im2col(x) per sample. The eval forward packs the
// im2col panels straight from the input (tensor.ConvDims.Conv); the
// training forward materialises the column matrices, which Backward needs.
// Weight layout is [outC, inC, kh, kw].
type Conv2D struct {
	W      *Param
	B      *Param // nil when the convolution has no bias (conv+BN idiom)
	Stride int
	Pad    int

	// Training caches (valid between Forward(train=true) and Backward).
	dims     tensor.ConvDims
	batch    int
	cols     []float32 // im2col of the whole batch, [N][colRows*colCols]
	outShape []int
}

// NewConv2D builds a convolution with Kaiming-normal weights. bias selects
// whether an additive per-filter bias is learned (convs followed by batch
// norm conventionally have none).
func NewConv2D(rng *rand.Rand, name string, inC, outC, k, stride, pad int, bias bool) *Conv2D {
	c := &Conv2D{
		W:      NewParam(name+".weight", tensor.KaimingConv(rng, outC, inC, k, k)),
		Stride: stride,
		Pad:    pad,
	}
	if bias {
		c.B = NewParam(name+".bias", tensor.New(outC))
		c.B.NoDecay = true
	}
	return c
}

// OutChannels reports the number of output feature maps.
func (c *Conv2D) OutChannels() int { return c.W.Data.Dim(0) }

// InChannels reports the number of input feature maps.
func (c *Conv2D) InChannels() int { return c.W.Data.Dim(1) }

// Kernel reports the (square) kernel size.
func (c *Conv2D) Kernel() int { return c.W.Data.Dim(2) }

// Forward computes the convolution of an NCHW batch.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: Conv2D expects NCHW input, got %v", x.Shape()))
	}
	n, inC, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if inC != c.InChannels() {
		panic(fmt.Sprintf("nn: Conv2D %s: input has %d channels, want %d", c.W.Name, inC, c.InChannels()))
	}
	k := c.Kernel()
	dims := tensor.NewConvDims(inC, h, w, k, k, c.Stride, c.Pad)
	outC := c.OutChannels()
	out := tensor.New(n, outC, dims.OutH, dims.OutW)

	var cols []float32
	if train {
		colLen := dims.ColRows() * dims.ColCols()
		cols = make([]float32, n*colLen)
		forEachSample(n, func(i int) {
			dims.Im2Col(x.Sample(i).Data(), cols[i*colLen:(i+1)*colLen])
		})
		dims.ConvCols(c.W.Data.Data(), cols, out.Data(), outC, n)
	} else {
		dims.Conv(c.W.Data.Data(), x.Data(), out.Data(), outC, n)
	}
	if c.B != nil {
		od := out.Data()
		plane := dims.OutH * dims.OutW
		for i := 0; i < n; i++ {
			for f, bv := range c.B.Data.Data() {
				seg := od[(i*outC+f)*plane : (i*outC+f+1)*plane]
				for j := range seg {
					seg[j] += bv
				}
			}
		}
	}

	if train {
		c.dims = dims
		c.batch = n
		c.cols = cols
		c.outShape = out.Shape()
	}
	return out
}

// Backward accumulates dW (and dB) and returns dX.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if c.cols == nil {
		panic("nn: Conv2D.Backward without prior Forward(train=true)")
	}
	dims := c.dims
	n := c.batch
	outC := c.OutChannels()
	colLen := dims.ColRows() * dims.ColCols()
	w2d := c.W.Data.Reshape(outC, dims.ColRows())
	dx := tensor.New(n, dims.InC, dims.InH, dims.InW)

	// Worker-local dW accumulators avoid contention; merged afterwards.
	workers := tensor.Parallelism()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	dWs := make([]*tensor.Tensor, workers)
	dBs := make([][]float64, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for wkr := 0; wkr < workers; wkr++ {
		start, end := wkr*chunk, (wkr+1)*chunk
		if end > n {
			end = n
		}
		if start >= end {
			dWs[wkr] = tensor.New(outC, dims.ColRows())
			dBs[wkr] = make([]float64, outC)
			continue
		}
		wg.Add(1)
		go func(wkr, start, end int) {
			defer wg.Done()
			dW := tensor.New(outC, dims.ColRows())
			dB := make([]float64, outC)
			for i := start; i < end; i++ {
				dyS := tensor.FromSlice(dy.Sample(i).Data(), outC, dims.ColCols())
				colsT := tensor.FromSlice(c.cols[i*colLen:(i+1)*colLen], dims.ColRows(), dims.ColCols())
				// dW += dy_i @ cols_iᵀ
				dW.AddInPlace(tensor.MatMulNT(dyS, colsT))
				if c.B != nil {
					for f := 0; f < outC; f++ {
						var s float64
						for _, v := range dyS.Row(f) {
							s += float64(v)
						}
						dB[f] += s
					}
				}
				// dcols = Wᵀ @ dy_i ; dx_i = col2im(dcols)
				dcols := tensor.MatMulTN(w2d, dyS)
				dims.Col2Im(dcols.Data(), dx.Sample(i).Data())
			}
			dWs[wkr] = dW
			dBs[wkr] = dB
		}(wkr, start, end)
	}
	wg.Wait()

	gW := c.W.Grad.Reshape(outC, dims.ColRows())
	for _, dW := range dWs {
		gW.AddInPlace(dW)
	}
	if c.B != nil {
		gB := c.B.Grad.Data()
		for _, dB := range dBs {
			for f, v := range dB {
				gB[f] += float32(v)
			}
		}
	}
	c.cols = nil // release the cache
	return dx
}

// Params returns the weight (and bias, if present).
func (c *Conv2D) Params() []*Param {
	if c.B == nil {
		return []*Param{c.W}
	}
	return []*Param{c.W, c.B}
}

// forEachSample runs body(i) for each sample index in parallel.
func forEachSample(n int, body func(i int)) {
	workers := tensor.Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			for i := s; i < e; i++ {
				body(i)
			}
		}(start, end)
	}
	wg.Wait()
}

var _ Layer = (*Conv2D)(nil)
