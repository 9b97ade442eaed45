package nn

import "github.com/meanet/meanet/internal/tensor"

// Layer is the unit of composition for networks.
//
// Forward with train=true caches activations needed by Backward; with
// train=false it caches nothing and is safe for concurrent use. Backward
// consumes the gradient of the loss w.r.t. the layer output, accumulates
// parameter gradients, and returns the gradient w.r.t. the layer input.
// Backward must follow a Forward(train=true) on the same layer.
//
// The in-place rule: Forward never writes the tensor it was handed, in
// either mode, so a caller may keep reading its input (the main block's
// features feed the main exit, the combine step and features-mode offload).
// In eval mode a composite may overwrite a tensor it produced itself and
// has not yet returned: in a Sequential, a BatchNorm2D or ReLU step that
// follows a Conv2D (directly or through such in-place steps) normalizes or
// rectifies that conv's fresh output in place, and a ResidualBlock adds the
// shortcut into its body's output and rectifies it there. The in-place ops
// evaluate the same float expressions as their allocating forms, so the
// result is bitwise the same. A Sequential that starts with a BatchNorm2D
// or ReLU — a partition stage cut between a conv and its norm — was handed
// its input, so that step allocates.
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
	if !train {
		x, _ = s.forwardEval(x)
		return x
	}
	for _, l := range s.Layers {
		x = l.Forward(x, true)
	}
	return x
}

// inPlaceEval is implemented by the eval ops a Sequential may run in place:
// evalInPlace overwrites x with what Forward(x, false) would return.
type inPlaceEval interface {
	evalInPlace(x *tensor.Tensor)
}

// forwardEval runs the layers in eval mode under the in-place rule (see
// Layer) and reports whether the result is a tensor this Sequential
// produced, and so one its caller may overwrite too.
func (s *Sequential) forwardEval(x *tensor.Tensor) (*tensor.Tensor, bool) {
	owned := false
	for _, l := range s.Layers {
		if ip, ok := l.(inPlaceEval); ok && owned {
			ip.evalInPlace(x)
			continue
		}
		x = l.Forward(x, false)
		_, owned = l.(*Conv2D)
	}
	return x, owned
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
