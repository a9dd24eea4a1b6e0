//go:build !race

// sync.Pool drops items at random under the race detector, so allocation
// counts are only stable without it.

package nn

import (
	"math/rand"
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
