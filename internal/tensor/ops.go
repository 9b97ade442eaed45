package tensor

import (
	"fmt"
	"math"
)

// Add returns a + b elementwise as a new tensor.
func Add(a, b *Tensor) *Tensor {
	mustSameShape("Add", a, b)
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = v + b.data[i]
	}
	return out
}

// Sub returns a - b elementwise as a new tensor.
func Sub(a, b *Tensor) *Tensor {
	mustSameShape("Sub", a, b)
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = v - b.data[i]
	}
	return out
}

// Scale returns a * s as a new tensor.
func Scale(a *Tensor, s float32) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = v * s
	}
	return out
}

// AddInPlace computes t += o elementwise.
func (t *Tensor) AddInPlace(o *Tensor) {
	mustSameShape("AddInPlace", t, o)
	for i, v := range o.data {
		t.data[i] += v
	}
}

// ScaleInPlace computes t *= s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// Sum returns the sum of all elements (accumulated in float64 for accuracy).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// ArgMaxRows returns, for a 2-D tensor, the argmax of each row.
func (t *Tensor) ArgMaxRows() []int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows on non-matrix shape %v", t.shape))
	}
	out := make([]int, t.shape[0])
	for i := range out {
		row := t.Row(i)
		best, bestV := 0, row[0]
		for j, v := range row[1:] {
			if v > bestV {
				best, bestV = j+1, v
			}
		}
		out[i] = best
	}
	return out
}

// Softmax computes a numerically stable softmax over the last dimension of a
// 2-D tensor [rows, classes] and returns a new tensor of the same shape.
func Softmax(logits *Tensor) *Tensor {
	if len(logits.shape) != 2 {
		panic(fmt.Sprintf("tensor: Softmax expects a matrix, got shape %v", logits.shape))
	}
	out := New(logits.shape...)
	rows, cols := logits.shape[0], logits.shape[1]
	for r := 0; r < rows; r++ {
		in := logits.data[r*cols : (r+1)*cols]
		dst := out.data[r*cols : (r+1)*cols]
		softmaxRow(in, dst)
	}
	return out
}

// softmaxRow writes softmax(in) into dst; len(in) == len(dst) > 0.
func softmaxRow(in, dst []float32) {
	maxV := in[0]
	for _, v := range in[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range in {
		e := math.Exp(float64(v - maxV))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// SoftmaxRow computes softmax over a single logit vector.
func SoftmaxRow(logits []float32) []float32 {
	out := make([]float32, len(logits))
	if len(logits) == 0 {
		return out
	}
	softmaxRow(logits, out)
	return out
}

// Entropy returns the Shannon entropy (nats) of a probability vector.
// Zero probabilities contribute zero.
func Entropy(p []float32) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= float64(v) * math.Log(float64(v))
		}
	}
	return h
}

// ConcatChannels concatenates NCHW tensors along the channel dimension.
func ConcatChannels(a, b *Tensor) *Tensor {
	if len(a.shape) != 4 || len(b.shape) != 4 {
		panic(fmt.Sprintf("tensor: ConcatChannels expects NCHW, got %v and %v", a.shape, b.shape))
	}
	n, ca, h, w := a.shape[0], a.shape[1], a.shape[2], a.shape[3]
	if b.shape[0] != n || b.shape[2] != h || b.shape[3] != w {
		panic(fmt.Sprintf("tensor: ConcatChannels shape mismatch %v vs %v", a.shape, b.shape))
	}
	cb := b.shape[1]
	out := New(n, ca+cb, h, w)
	plane := h * w
	for i := 0; i < n; i++ {
		copy(out.data[i*(ca+cb)*plane:], a.data[i*ca*plane:(i+1)*ca*plane])
		copy(out.data[(i*(ca+cb)+ca)*plane:], b.data[i*cb*plane:(i+1)*cb*plane])
	}
	return out
}

// SplitChannels is the inverse of ConcatChannels: it splits an NCHW tensor
// into the first ca channels and the remaining channels.
func SplitChannels(t *Tensor, ca int) (*Tensor, *Tensor) {
	if len(t.shape) != 4 {
		panic(fmt.Sprintf("tensor: SplitChannels expects NCHW, got %v", t.shape))
	}
	n, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	if ca <= 0 || ca >= c {
		panic(fmt.Sprintf("tensor: SplitChannels split %d out of range for %d channels", ca, c))
	}
	cb := c - ca
	a, b := New(n, ca, h, w), New(n, cb, h, w)
	plane := h * w
	for i := 0; i < n; i++ {
		copy(a.data[i*ca*plane:], t.data[i*c*plane:i*c*plane+ca*plane])
		copy(b.data[i*cb*plane:], t.data[i*c*plane+ca*plane:(i+1)*c*plane])
	}
	return a, b
}

func mustSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}
