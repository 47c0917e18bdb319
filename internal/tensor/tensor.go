// Package tensor provides dense float32 tensors in NCHW layout plus the small
// set of shape and comparison utilities the rest of the flow needs. Tensors in
// this project mirror the tensors TVM lowers: a flat float32 buffer with a
// row-major shape. Batch size is always 1 (the thesis extracts no batch
// parallelism), but the type itself is rank-generic.
package tensor

import (
	"fmt"
	"math"
	"slices"
)

// Tensor is a dense row-major float32 array with an explicit shape.
//
// Shape and index violations panic, mirroring Go's own slice semantics: every
// shape flowing in here comes from relay's shape inference or a literal in
// code, never from external input, so a violation is a bug in the caller —
// not a condition to handle.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// Len returns the number of elements.
func (t *Tensor) Len() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Bytes returns the size of the tensor payload in bytes (float32 elements).
func (t *Tensor) Bytes() int { return 4 * t.Len() }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// offset computes the flat index for the given coordinates. The panic formats
// a copy of idx so the variadic slice does not escape: At and Set then keep it
// on the caller's stack and allocate nothing.
func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", slices.Clone(idx), t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// At returns the element at the given coordinates.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx...)] }

// Set writes the element at the given coordinates.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx...)] = v }

// Reshape returns a view with a new shape of the same total size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	v := &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
	if v.Len() != t.Len() {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return v
}

// FillSeq fills with a deterministic, well-conditioned pseudo-pattern. Used to
// build reproducible synthetic inputs and weights: values stay in [-1, 1] and
// no two nearby elements are equal, which flushes out indexing bugs that a
// constant fill would hide.
func (t *Tensor) FillSeq(seed uint64) {
	s := seed*2862933555777941757 + 3037000493
	for i := range t.Data {
		s = s*2862933555777941757 + 3037000493
		// Map the top bits to [-1, 1).
		t.Data[i] = float32(int32(s>>32)) / float32(math.MaxInt32)
	}
}

// MaxAbsDiff returns the maximum absolute elementwise difference between two
// same-shaped tensors.
func MaxAbsDiff(a, b *Tensor) float64 {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("tensor: size mismatch %v vs %v", a.Shape, b.Shape))
	}
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// AllClose reports whether two tensors agree within tol in max-abs terms,
// scaled by the magnitude of the values (relative for large values, absolute
// for small ones).
func AllClose(a, b *Tensor, tol float64) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Data {
		x, y := float64(a.Data[i]), float64(b.Data[i])
		d := math.Abs(x - y)
		scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		if d > tol*scale || math.IsNaN(d) {
			return false
		}
	}
	return true
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	best, bi := float32(math.Inf(-1)), 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Sum returns the float64 sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(%d elems)", t.Shape, t.Len())
}
