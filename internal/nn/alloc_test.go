//go:build !race

// sync.Pool drops items at random under the race detector, so allocation
// counts are only stable without it.

package nn

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"github.com/meanet/meanet/internal/tensor"
)

// allocSink keeps measured results on the heap, as real callers' are.
var allocSink *tensor.Tensor

// TestConv2DEvalAllocsIndependentOfBatch pins the allocation-free eval
// convolution: once the pools are warm, a forward allocates its output and
// nothing per sample, so batch 1 and batch 16 allocate the same count.
func TestConv2DEvalAllocsIndependentOfBatch(t *testing.T) {
	orig := tensor.Parallelism()
	defer tensor.SetParallelism(orig)
	tensor.SetParallelism(4)
	rng := rand.New(rand.NewSource(23))
	conv := NewConv2D(rng, "c", 16, 32, 3, 1, 1, true)
	allocs := func(n int) float64 {
		x := tensor.Randn(rng, 1, n, 16, 12, 12)
		conv.Forward(x, false) // warm the pools
		return testing.AllocsPerRun(20, func() { allocSink = conv.Forward(x, false) })
	}
	one, sixteen := allocs(1), allocs(16)
	if one != sixteen {
		t.Fatalf("eval Conv2D allocs/op: batch 1 = %v, batch 16 = %v; want equal", one, sixteen)
	}
	n, outC, h, w := 16, conv.OutChannels(), 12, 12
	if output := testing.AllocsPerRun(20, func() { allocSink = tensor.New(n, outC, h, w) }); sixteen != output {
		t.Fatalf("eval Conv2D allocs/op = %v, want only its output's %v", sixteen, output)
	}
}

// TestConv2DTrainStepAllocsIndependentOfBatch pins the pooled training
// convolution: once the pools are warm, a Forward(train=true) plus
// Backward allocates only the returned output and input gradient, the
// same at batch 1 as at batch 32 — the column matrices, their gradient
// and the GEMM workspaces all come from pools. The GC is off while
// counting: a collection empties the pools, and refilling them after one
// costs an allocation per pool, which a batch-32 step (larger tensors,
// more collections) would otherwise pay more often than a batch-1 step.
func TestConv2DTrainStepAllocsIndependentOfBatch(t *testing.T) {
	orig := tensor.Parallelism()
	defer tensor.SetParallelism(orig)
	tensor.SetParallelism(4)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(26))
	conv := NewConv2D(rng, "c", 16, 32, 3, 1, 1, true)
	step := func(x *tensor.Tensor) {
		allocSink = conv.Forward(x, true)
		allocSink = conv.Backward(allocSink)
	}
	allocs := func(n int) float64 {
		x := tensor.Randn(rng, 1, n, 16, 12, 12)
		step(x) // warm the pools
		return testing.AllocsPerRun(20, func() { step(x) })
	}
	one, batch := allocs(1), allocs(32)
	if one != batch {
		t.Fatalf("train Conv2D allocs/op: batch 1 = %v, batch 32 = %v; want equal", one, batch)
	}
	tensors := testing.AllocsPerRun(20, func() {
		allocSink = tensor.New(32, 32, 12, 12)
		allocSink = tensor.New(32, 16, 12, 12)
	})
	if batch != tensors {
		t.Fatalf("train Conv2D allocs/op = %v, want only its output's and dX's %v", batch, tensors)
	}
}
