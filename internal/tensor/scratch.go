package tensor

import (
	"math/bits"
	"sync"
)

// Scratch is a pooled float32 buffer for working memory that outlives a
// call, such as the column matrices a training convolution keeps from its
// forward to its backward pass (ConvDims.Unfold). Hand it back with
// Release once nothing reads it any more.
type Scratch struct {
	Data []float32
}

// scratchPools holds released buffers by capacity class: class c holds
// buffers of capacity 1<<c, so a request reuses any buffer of its class.
// The pools are sync.Pools, so idle buffers are dropped by the GC.
var scratchPools [48]sync.Pool

// getScratch returns a buffer of length n. Its contents are unspecified.
func getScratch(n int) *Scratch {
	c := bits.Len(uint(max(n, 1) - 1))
	s, _ := scratchPools[c].Get().(*Scratch)
	if s == nil {
		s = &Scratch{Data: make([]float32, 1<<c)}
	}
	s.Data = s.Data[:n]
	return s
}

// Release returns s to its pool; s must not be used afterwards.
func (s *Scratch) Release() {
	c := bits.Len(uint(cap(s.Data) - 1))
	scratchPools[c].Put(s)
}
