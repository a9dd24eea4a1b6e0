package nn

import (
	"fmt"
	"math/rand"

	"github.com/meanet/meanet/internal/tensor"
)

// Conv2D is a standard 2-D convolution over NCHW tensors, computed as the
// matrix product weight @ im2col(x) per sample. Every product goes through
// the tensor package's GEMM driver:
//
//   - the eval forward packs the im2col panels straight from the input
//     (tensor.ConvDims.Conv);
//   - the training forward materialises the column matrices in a pooled
//     buffer (ConvDims.Unfold, ConvDims.ConvCols), which Backward reads
//     and then releases, so no buffer outlives the step;
//   - Backward accumulates dW in one product over the whole batch
//     (ConvDims.ConvWeightGrad) and computes dX as Wᵀ @ dY_s for every
//     sample with Wᵀ packed once (ConvDims.ConvInputGrad).
//
// Workers split outputs, never a sum, so gradients — and trained weights —
// are bitwise the same at every tensor.SetParallelism setting.
// Weight layout is [outC, inC, kh, kw].
type Conv2D struct {
	W      *Param
	B      *Param // nil when the convolution has no bias (conv+BN idiom)
	Stride int
	Pad    int

	// Training caches (valid between Forward(train=true) and Backward).
	dims     tensor.ConvDims
	batch    int
	cols     *tensor.Scratch // im2col of the whole batch, [N][colRows*colCols]
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

	if train {
		c.release()
		c.cols = dims.Unfold(x.Data(), n)
		dims.ConvCols(c.W.Data.Data(), c.cols.Data, out.Data(), outC, n)
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
		c.outShape = out.Shape()
	}
	return out
}

// Backward accumulates dW (and dB) and returns dX.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if c.cols == nil {
		panic("nn: Conv2D.Backward without prior Forward(train=true)")
	}
	dims, n, outC := c.dims, c.batch, c.OutChannels()
	dims.ConvWeightGrad(dy.Data(), c.cols.Data, c.W.Grad.Data(), outC, n)
	c.release()
	if c.B != nil {
		// Per-sample sums in float64, summed over samples in order.
		plane := dims.ColCols()
		for f := range outC {
			var total float64
			for i := 0; i < n; i++ {
				var s float64
				for _, v := range dy.Data()[(i*outC+f)*plane : (i*outC+f+1)*plane] {
					s += float64(v)
				}
				total += s
			}
			c.B.Grad.Data()[f] += float32(total)
		}
	}
	dx := tensor.New(n, dims.InC, dims.InH, dims.InW)
	dims.ConvInputGrad(c.W.Data.Data(), dy.Data(), dx.Data(), outC, n)
	return dx
}

// release hands the training column buffer back to its pool.
func (c *Conv2D) release() {
	if c.cols != nil {
		c.cols.Release()
		c.cols = nil
	}
}

// Params returns the weight (and bias, if present).
func (c *Conv2D) Params() []*Param {
	if c.B == nil {
		return []*Param{c.W}
	}
	return []*Param{c.W, c.B}
}

var _ Layer = (*Conv2D)(nil)
