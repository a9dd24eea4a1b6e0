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
