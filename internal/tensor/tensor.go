// Package tensor implements a minimal dense float32 tensor library used by
// the MEANet neural-network stack. Tensors are contiguous, row-major
// (C-order) and typically laid out NCHW for image batches.
//
// Shape mismatches and out-of-range indices indicate programmer error, not
// runtime conditions a caller could recover from, so — following the
// convention of numeric kernels such as gonum — the low-level operations in
// this package panic with a descriptive message instead of returning errors.
// Public entry points higher in the stack (training, inference, servers)
// validate their inputs and return errors.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, contiguous, row-major float32 array with a shape.
// The zero value is an empty tensor with no elements.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the product of the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Format a copy so shape does not escape: New's variadic
			// argument then stays on the caller's stack.
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated by the caller.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Numel reports the total number of elements.
func (t *Tensor) Numel() int { return len(t.data) }

// Dims reports the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int {
	if i < 0 || i >= len(t.shape) {
		panic(fmt.Sprintf("tensor: dim index %d out of range for shape %v", i, t.shape))
	}
	return t.shape[i]
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: append([]int(nil), t.shape...), data: d}
}

// Reshape returns a view sharing storage with t but with a new shape. The
// element count must be unchanged. One dimension may be -1 to infer it.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				panic(fmt.Sprintf("tensor: reshape %v has multiple -1 dims", shape))
			}
			infer = i
		case d < 0:
			panic(fmt.Sprintf("tensor: reshape to invalid shape %v", shape))
		default:
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer reshape %v for %d elements", shape, len(t.data)))
		}
		shape[infer] = len(t.data) / known
		known *= shape[infer]
	}
	if known != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v incompatible with %d elements", shape, len(t.data)))
	}
	return &Tensor{shape: shape, data: t.data}
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Row returns a view of row i of a 2-D tensor as a slice of length Dim(1).
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on non-matrix shape %v", t.shape))
	}
	w := t.shape[1]
	return t.data[i*w : (i+1)*w]
}

// Sample returns a view of the i-th outermost slice (for example one image
// of an NCHW batch) as a tensor with the leading dimension removed.
func (t *Tensor) Sample(i int) *Tensor {
	if len(t.shape) < 1 {
		panic("tensor: Sample on scalar tensor")
	}
	n := t.shape[0]
	if i < 0 || i >= n {
		panic(fmt.Sprintf("tensor: sample index %d out of range [0,%d)", i, n))
	}
	sub := len(t.data) / n
	return &Tensor{shape: append([]int(nil), t.shape[1:]...), data: t.data[i*sub : (i+1)*sub]}
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// CopyFrom copies the contents of src (same shape required) into t.
func (t *Tensor) CopyFrom(src *Tensor) {
	if !t.SameShape(src) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// MaxAbs returns the largest absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.data {
		a := float32(math.Abs(float64(v)))
		if a > m {
			m = a
		}
	}
	return m
}
