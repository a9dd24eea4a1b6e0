package nn

import (
	"sync"

	"github.com/meanet/meanet/internal/tensor"
)

// Layer is the unit of composition for networks.
//
// Forward with train=true caches activations needed by Backward; with
// train=false it caches nothing and is safe for concurrent use. Backward
// consumes the gradient of the loss w.r.t. the layer output, accumulates
// parameter gradients, and returns the gradient w.r.t. the layer input.
// Backward must follow a Forward(train=true) on the same layer.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Identity passes its input through unchanged. It is useful as a no-op
// shortcut branch.
type Identity struct{}

// Forward returns x unchanged.
func (Identity) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor { return x }

// Backward returns dy unchanged.
func (Identity) Backward(dy *tensor.Tensor) *tensor.Tensor { return dy }

// Params returns nil: Identity has no parameters.
func (Identity) Params() []*Param { return nil }

// Sequential chains layers, feeding each layer's output to the next.
type Sequential struct {
	Name   string
	Layers []Layer
}

// NewSequential builds a named sequential container.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{Name: name, Layers: layers}
}

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.Layers = append(s.Layers, layers...) }

// Forward runs the layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the layers in reverse order.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

var (
	_ Layer = Identity{}
	_ Layer = (*Sequential)(nil)
)

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
