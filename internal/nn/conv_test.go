package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/meanet/meanet/internal/tensor"
)

// directConv2D is the float32 reference the GEMM paths must match bitwise:
// each output accumulates w*x over (c, ky, kx) in ascending order from
// zero, then adds the bias. Padding taps are skipped; they would only add
// +0 to a sum that can never be -0.
func directConv2D(x, w *tensor.Tensor, bias []float32, stride, pad int) *tensor.Tensor {
	n, inC, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outC, k := w.Dim(0), w.Dim(2)
	oh := (h+2*pad-k)/stride + 1
	ow := (wd+2*pad-k)/stride + 1
	out := tensor.New(n, outC, oh, ow)
	xd, wdat, od := x.Data(), w.Data(), out.Data()
	o := 0
	for i := 0; i < n; i++ {
		for f := 0; f < outC; f++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float32
					for c := 0; c < inC; c++ {
						for ky := 0; ky < k; ky++ {
							sy := oy*stride + ky - pad
							if sy < 0 || sy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								sx := ox*stride + kx - pad
								if sx < 0 || sx >= wd {
									continue
								}
								s += wdat[((f*inC+c)*k+ky)*k+kx] * xd[((i*inC+c)*h+sy)*wd+sx]
							}
						}
					}
					if bias != nil {
						s += bias[f]
					}
					od[o] = s
					o++
				}
			}
		}
	}
	return out
}

func requireBitwise(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; g != w {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", what, i, g, w)
		}
	}
}

// TestConv2DEvalBitwiseMatchesTrainAndDirect pins the implicit-GEMM eval
// forward to the materialised-im2col training forward and to a direct
// convolution, bitwise, across spatial sizes (ragged and whole 8-wide
// panels), kernels, strides, padding, widths (ragged and whole 4-row
// panels, more k than one packed block), bias, batch sizes and worker
// counts.
func TestConv2DEvalBitwiseMatchesTrainAndDirect(t *testing.T) {
	orig := tensor.Parallelism()
	defer tensor.SetParallelism(orig)
	rng := rand.New(rand.NewSource(21))
	sizes := [][2]int{{1, 1}, {3, 3}, {6, 6}, {12, 12}, {13, 11}}
	const inC = 8 // 3x3 kernels give k = 72, past one 64-deep block
	for _, hw := range sizes {
		for _, k := range []int{1, 3} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1} {
					if hw[0]+2*pad < k || hw[1]+2*pad < k {
						continue // no valid output
					}
					for _, outC := range []int{4, 6, 64} {
						for _, bias := range []bool{false, true} {
							name := fmt.Sprintf("%dx%d/k%d/s%d/p%d/out%d/bias=%v", hw[0], hw[1], k, stride, pad, outC, bias)
							conv := NewConv2D(rng, "c", inC, outC, k, stride, pad, bias)
							var b []float32
							if bias {
								conv.B.Data.CopyFrom(tensor.Randn(rng, 1, outC))
								b = conv.B.Data.Data()
							}
							for _, n := range []int{1, 3, 16} {
								x := tensor.Randn(rng, 1, n, inC, hw[0], hw[1])
								want := directConv2D(x, conv.W.Data, b, stride, pad)
								for _, workers := range []int{1, 8} {
									tensor.SetParallelism(workers)
									what := fmt.Sprintf("%s/n%d/workers%d", name, n, workers)
									requireBitwise(t, what+" eval", conv.Forward(x, false), want)
									requireBitwise(t, what+" train", conv.Forward(x, true), want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestConv2DConcurrentEvalForwardsBitwise runs eval forwards of one conv
// from many goroutines at once — they share the pooled GEMM workspaces —
// and checks each against a serial forward.
func TestConv2DConcurrentEvalForwardsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	conv := NewConv2D(rng, "c", 16, 32, 3, 1, 1, true)
	conv.B.Data.CopyFrom(tensor.Randn(rng, 1, 32))
	const goroutines = 8
	xs := make([]*tensor.Tensor, goroutines)
	want := make([]*tensor.Tensor, goroutines)
	for g := range xs {
		xs[g] = tensor.Randn(rng, 1, 1+g%4, 16, 12, 12)
		want[g] = conv.Forward(xs[g], false)
	}
	var wg sync.WaitGroup
	got := make([]*tensor.Tensor, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				got[g] = conv.Forward(xs[g], false)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		requireBitwise(t, fmt.Sprintf("goroutine %d", g), got[g], want[g])
	}
}

// refConvInputGrad is dX as the per-sample backward computed it before the
// batched driver: dcols_s = MatMulTN(W, dY_s), folded back by col2im (the
// direct loop below) into a zeroed dx_s.
func refConvInputGrad(w, dy *tensor.Tensor, dims tensor.ConvDims) *tensor.Tensor {
	n, outC := dy.Dim(0), dy.Dim(1)
	w2d := tensor.FromSlice(w.Data(), outC, dims.ColRows())
	dx := tensor.New(n, dims.InC, dims.InH, dims.InW)
	for i := 0; i < n; i++ {
		dyS := tensor.FromSlice(dy.Sample(i).Data(), outC, dims.ColCols())
		dcols := tensor.MatMulTN(w2d, dyS).Data()
		img := dx.Sample(i).Data()
		row := 0
		for c := 0; c < dims.InC; c++ {
			for ky := 0; ky < dims.KH; ky++ {
				for kx := 0; kx < dims.KW; kx++ {
					for oy := 0; oy < dims.OutH; oy++ {
						for ox := 0; ox < dims.OutW; ox++ {
							sy, sx := oy*dims.Stride+ky-dims.Pad, ox*dims.Stride+kx-dims.Pad
							if sy >= 0 && sy < dims.InH && sx >= 0 && sx < dims.InW {
								img[(c*dims.InH+sy)*dims.InW+sx] += dcols[row*dims.ColCols()+oy*dims.OutW+ox]
							}
						}
					}
					row++
				}
			}
		}
	}
	return dx
}

// refConvWeightGrad returns grad plus dW as one mul-then-add per term onto
// each element, ascending over (sample, output position): the summation
// order Conv2D.Backward promises at every parallelism. Padding taps read
// +0 and are added like any other term.
func refConvWeightGrad(grad, x, dy *tensor.Tensor, dims tensor.ConvDims) *tensor.Tensor {
	n, outC := dy.Dim(0), dy.Dim(1)
	out := grad.Clone()
	g := out.Data()
	cols := make([]float32, dims.ColRows()*dims.ColCols())
	for i := 0; i < n; i++ {
		dims.Im2Col(x.Sample(i).Data(), cols)
		dyS := dy.Sample(i).Data()
		for j := 0; j < dims.ColCols(); j++ {
			for f := 0; f < outC; f++ {
				for r := 0; r < dims.ColRows(); r++ {
					g[f*dims.ColRows()+r] += dyS[f*dims.ColCols()+j] * cols[r*dims.ColCols()+j]
				}
			}
		}
	}
	return out
}

// TestConv2DBackwardMatchesReferenceBitwise pins Backward to the two
// references above, bitwise: dX to the per-sample product and col2im, dW
// (accumulated onto a non-zero gradient) to the ascending (sample,
// position) sum, and dB to per-sample float64 sums added in sample order.
// It covers the forward test's geometries, batch sizes and worker counts.
func TestConv2DBackwardMatchesReferenceBitwise(t *testing.T) {
	orig := tensor.Parallelism()
	defer tensor.SetParallelism(orig)
	rng := rand.New(rand.NewSource(24))
	sizes := [][2]int{{1, 1}, {3, 3}, {6, 6}, {12, 12}, {13, 11}}
	const inC = 8
	for _, hw := range sizes {
		for _, k := range []int{1, 3} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1} {
					if hw[0]+2*pad < k || hw[1]+2*pad < k {
						continue // no valid output
					}
					for _, outC := range []int{6, 64} {
						bias := outC == 6
						conv := NewConv2D(rng, "c", inC, outC, k, stride, pad, bias)
						dims := tensor.NewConvDims(inC, hw[0], hw[1], k, k, stride, pad)
						for _, n := range []int{1, 3, 32} {
							x := tensor.Randn(rng, 1, n, inC, hw[0], hw[1])
							dy := tensor.Randn(rng, 1, n, outC, dims.OutH, dims.OutW)
							grad0 := tensor.Randn(rng, 1, conv.W.Grad.Shape()...)
							wantDX := refConvInputGrad(conv.W.Data, dy, dims)
							wantDW := refConvWeightGrad(grad0, x, dy, dims)
							for _, workers := range []int{1, 8} {
								tensor.SetParallelism(workers)
								what := fmt.Sprintf("%dx%d/k%d/s%d/p%d/out%d/n%d/workers%d", hw[0], hw[1], k, stride, pad, outC, n, workers)
								conv.W.Grad.CopyFrom(grad0)
								if bias {
									conv.B.Grad.Zero()
								}
								conv.Forward(x, true)
								requireBitwise(t, what+" dX", conv.Backward(dy), wantDX)
								requireBitwise(t, what+" dW", conv.W.Grad, wantDW)
								if bias {
									requireBitwise(t, what+" dB", conv.B.Grad, refBiasGrad(dy))
								}
							}
						}
					}
				}
			}
		}
	}
}

// refBiasGrad sums each channel of dy per sample in float64, adds the
// per-sample sums in sample order, and rounds once.
func refBiasGrad(dy *tensor.Tensor) *tensor.Tensor {
	n, outC := dy.Dim(0), dy.Dim(1)
	plane := dy.Numel() / (n * outC)
	out := tensor.New(outC)
	for f := 0; f < outC; f++ {
		var total float64
		for i := 0; i < n; i++ {
			var s float64
			for _, v := range dy.Data()[(i*outC+f)*plane : (i*outC+f+1)*plane] {
				s += float64(v)
			}
			total += s
		}
		out.Data()[f] = float32(total)
	}
	return out
}

// TestConv2DGradientsIndependentOfParallelism checks that one training
// step's dX, dW and dB are bitwise identical at 1, 2 and 4 workers.
func TestConv2DGradientsIndependentOfParallelism(t *testing.T) {
	orig := tensor.Parallelism()
	defer tensor.SetParallelism(orig)
	rng := rand.New(rand.NewSource(25))
	geoms := []struct{ inC, outC, hw, k, stride, pad, n int }{
		{3, 16, 12, 3, 1, 1, 32},
		{16, 32, 12, 3, 2, 1, 32},
		{64, 64, 3, 3, 1, 1, 32},
		{16, 32, 12, 1, 2, 0, 7},
	}
	for _, g := range geoms {
		conv := NewConv2D(rng, "c", g.inC, g.outC, g.k, g.stride, g.pad, true)
		x := tensor.Randn(rng, 1, g.n, g.inC, g.hw, g.hw)
		var want []*tensor.Tensor
		for _, workers := range []int{1, 2, 4} {
			tensor.SetParallelism(workers)
			ZeroGrads(conv.Params())
			out := conv.Forward(x, true)
			got := []*tensor.Tensor{conv.Backward(out), conv.W.Grad.Clone(), conv.B.Grad.Clone()}
			if want == nil {
				want = got
				continue
			}
			for i, name := range []string{"dX", "dW", "dB"} {
				requireBitwise(t, fmt.Sprintf("%+v workers %d %s", g, workers, name), got[i], want[i])
			}
		}
	}
}
