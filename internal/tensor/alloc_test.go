//go:build !race

// sync.Pool drops items at random under the race detector, so allocation
// counts are only stable without it.

package tensor

import (
	"math/rand"
	"testing"
)

// allocSink keeps measured results on the heap, as real callers' are.
var allocSink *Tensor

// TestMatMulAllocatesOnlyItsOutput pins the pooled GEMM workspaces: once
// the pools are warm, a blocked product allocates its result and nothing
// else, whether it runs on one worker or several.
func TestMatMulAllocatesOnlyItsOutput(t *testing.T) {
	orig := Parallelism()
	defer SetParallelism(orig)
	rng := rand.New(rand.NewSource(16))
	a := Randn(rng, 1, 128, 128)
	b := Randn(rng, 1, 128, 128)
	output := testing.AllocsPerRun(20, func() { allocSink = New(a.Dim(0), b.Dim(1)) })
	for _, workers := range []int{1, 4} {
		SetParallelism(workers)
		MatMul(a, b) // warm the pools
		if got := testing.AllocsPerRun(20, func() { allocSink = MatMul(a, b) }); got != output {
			t.Errorf("MatMul 128x128 with %d workers: %v allocs/op, want only its output's %v", workers, got, output)
		}
	}
}
