package nn

import "github.com/meanet/meanet/internal/tensor"

// Layer is the unit of composition for networks.
//
// Forward with train=true caches activations needed by Backward; with
// train=false it caches nothing and is safe for concurrent use. Backward
// consumes the gradient of the loss w.r.t. the layer output, accumulates
// parameter gradients, and returns the gradient w.r.t. the layer input.
// Backward must follow a Forward(train=true) on the same layer. A train-mode
// Forward may keep a reference to its input until Backward rather than a
// copy (Conv2D unfolds it again there; DepthwiseConv2D and Linear read it),
// so the caller must not write that input in between, and Backward never
// writes the gradient it was handed (a residual block hands the same one to
// both branches).
//
// The in-place rule: Forward never writes the tensor it was handed, in
// either mode, so a caller may keep reading its input (the main block's
// features feed the main exit, the combine step and features-mode offload).
// In eval mode a composite may overwrite a tensor it produced itself and
// has not yet returned: in a Sequential, a BatchNorm2D or ReLU step that
// follows a Conv2D or a composite whose result it owns (directly or through
// such in-place steps) normalizes or rectifies that fresh output in place,
// a ResidualBlock adds the shortcut into its body's output and rectifies it
// there, and an InvertedResidual adds its skip there. The in-place ops
// evaluate the same float expressions as their allocating forms, so the
// result is bitwise the same. A Sequential that starts with a BatchNorm2D
// or ReLU — a partition stage cut between a conv and its norm — was handed
// its input, so that step allocates.
//
// The recycling rule: an eval Conv2D takes its output from a bounded,
// process-wide activation pool, and a Sequential or ResidualBlock hands a
// tensor back to it once a later step has consumed it — only a tensor one
// of its children produced itself (a conv output, or an owned composite
// result), never the composite's own input or its return value, and never
// one whose storage the consuming step's output shares (a Flatten view, an
// Identity). A caller therefore never sees a recycled tensor: what Forward
// returns, at any depth, is never handed back, so it escapes as ordinary
// heap memory that the pool replaces with a fresh allocation. Every conv
// output element is overwritten, so a recycled buffer's old values never
// reach a result.
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

// evalOwner is implemented by the layers whose eval forward can report that
// its result is a tensor the layer produced itself: Conv2D, whose result is
// always fresh, and the composites, which say so per call.
type evalOwner interface {
	forwardEval(x *tensor.Tensor) (*tensor.Tensor, bool)
}

// evalForward runs l in eval mode and reports whether the result is a
// tensor l produced itself, one its caller may overwrite and recycle.
func evalForward(l Layer, x *tensor.Tensor) (*tensor.Tensor, bool) {
	if o, ok := l.(evalOwner); ok {
		return o.forwardEval(x)
	}
	return l.Forward(x, false), false
}

// recycle hands x, an owned tensor a later step has consumed, back to the
// activation pool unless y, the output of the step that consumed it, shares
// its storage (a Flatten view, an Identity).
func recycle(x, y *tensor.Tensor) {
	if !y.SharesStorage(x) {
		activations.Put(x.Data())
	}
}

// forwardEval runs the layers in eval mode under the in-place and recycling
// rules (see Layer) and reports whether the result is a tensor this
// Sequential produced, and so one its caller may overwrite and recycle too.
// Only a child's owned result is ever recycled, so the input never is.
func (s *Sequential) forwardEval(x *tensor.Tensor) (*tensor.Tensor, bool) {
	owned := false
	for _, l := range s.Layers {
		if ip, ok := l.(inPlaceEval); ok && owned {
			ip.evalInPlace(x)
			continue
		}
		y, yOwned := evalForward(l, x)
		if owned {
			recycle(x, y)
		}
		x, owned = y, yOwned
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

	_ evalOwner = (*Conv2D)(nil)
	_ evalOwner = (*Sequential)(nil)
	_ evalOwner = (*ResidualBlock)(nil)
	_ evalOwner = (*InvertedResidual)(nil)
)
