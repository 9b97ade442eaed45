package nn

import "github.com/meanet/meanet/internal/tensor"

// Layer is the unit of composition for networks.
//
// Forward with train=true caches activations needed by Backward; with
// train=false it caches nothing and is safe for concurrent use. Backward
// consumes the gradient of the loss w.r.t. the layer output, accumulates
// parameter gradients, and returns the gradient w.r.t. the layer input.
// Backward must follow a Forward(train=true) on the same layer. A caller
// that drops the input gradient runs a Sequential's BackwardParams instead,
// which accumulates the same parameter gradients and forms no input
// gradient where it can (a first Conv2D). A train-mode Forward may keep a
// reference to its input until Backward rather than a copy (Conv2D, which
// packs its unfold from it there, DepthwiseConv2D and Linear read it), so
// the caller must not write that input in between. Neither Forward nor
// Backward ever writes the tensor it was handed: a caller may keep reading
// its input (the main block's features feed the main exit, the combine step
// and features-mode offload), and a residual block hands one gradient to
// both branches.
//
// The ownership rule: what Forward or Backward returns is either a view of
// its argument (Flatten, Identity) or a tensor nothing else reaches, which
// belongs to the caller. So a composite owns exactly those results of its
// children that do not share storage with the tensor it handed that child,
// forward and backward alike, and may overwrite one it has not yet
// returned: a BatchNorm2D, ReLU or ReLU6 step runs in place on an owned
// input or gradient, and a ResidualBlock or InvertedResidual adds into its
// body's owned output or gradient. Those steps cache what their Backward
// reads before the overwrite and no layer caches its own output, and the
// in-place ops evaluate the same float expressions as their allocating
// forms, so the bits are the same. A composite hands an owned tensor back
// to the activation pool once nothing can read it — never one whose storage
// the consuming step's output shares — in eval mode once a later step has
// consumed it, in train mode (where that step may have cached it) once its
// own Backward has returned; a train forward that no Backward follows just
// drops what it held. At the module boundary internal/core is the owner
// (see Pooled and Recycle).
//
// The allocation rule: every tensor Forward or Backward returns that is not
// a view of its argument comes from Pooled, so what a composite or a module
// hands back refills the pool with the sizes it serves. Every element of a
// pooled tensor is written before it is read (an accumulating gradient is
// cleared first), so a recycled buffer's old values never reach a result.
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

	// held is what a train forward's children produced and later children
	// consumed, and may have cached: it goes back to the activation pool
	// once Backward has returned.
	held []*tensor.Tensor
}

// NewSequential builds a named sequential container.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{Name: name, Layers: layers}
}

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.Layers = append(s.Layers, layers...) }

// Forward runs the layers in order under the ownership rule (see Layer): a
// child's result is owned when it does not share the storage of the tensor
// the child was handed, so the input never is. An owned result goes back
// to the activation pool once the next child has consumed it, or in train
// mode is held for Backward; what a previous train forward held is dropped.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		clear(s.held)
		s.held = s.held[:0]
	}
	owned := false
	for _, l := range s.Layers {
		if ip, ok := l.(inPlacer); ok && owned {
			ip.forwardInPlace(x, train)
			continue
		}
		y := l.Forward(x, train)
		fresh := !y.SharesStorage(x)
		if owned && fresh {
			if train {
				s.held = append(s.held, x)
			} else {
				activations.Put(x.Data())
			}
		}
		x, owned = y, fresh
	}
	return x
}

// inPlacer is implemented by the ops a composite may run in place:
// forwardInPlace overwrites x with what Forward(x, train) would return, and
// backwardInPlace overwrites dy with what Backward(dy) would return.
type inPlacer interface {
	forwardInPlace(x *tensor.Tensor, train bool)
	backwardInPlace(dy *tensor.Tensor)
}

// Pooled returns a tensor of the given shape whose storage comes from the
// activation pool and holds arbitrary values, so the caller writes every
// element before reading any. The layers take their outputs, caches and
// gradients here; a module that owns such a tensor hands it back with
// Recycle once nothing can read it (see the ownership rule on Layer).
func Pooled(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return tensor.FromSlice(activations.Get(n), shape...)
}

// pooledCopy returns a Pooled copy of x.
func pooledCopy(x *tensor.Tensor) *tensor.Tensor {
	out := Pooled(x.Shape()...)
	out.CopyFrom(x)
	return out
}

// Recycle hands x, a tensor nothing will read again, back to the activation
// pool unless it shares storage with one of keep: the output of the step
// that consumed it (a Flatten view, an Identity), or any tensor the caller
// still reads. x need not have come from Pooled: a heap tensor's storage
// joins the pool. The caller must not use x afterwards, nor hand back the
// same storage twice.
func Recycle(x *tensor.Tensor, keep ...*tensor.Tensor) {
	for _, k := range keep {
		if k.SharesStorage(x) {
			return
		}
	}
	activations.Put(x.Data())
}

// Backward runs the layers in reverse order under the ownership rule (see
// Layer), then hands back what the train forward held.
// The gradient it was handed is never owned, so it is neither written nor
// recycled.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dy, _ = s.backwardTo(0, dy)
	s.release()
	return dy
}

// BackwardParams is Backward for a caller that drops the input gradient:
// it accumulates every parameter gradient Backward would, bitwise, and
// returns nothing. Layers after the first run their Backward; a first
// child that is a Sequential runs its BackwardParams, and a first Conv2D
// its backward without the input-gradient half — no dX buffer, no Wᵀ·dy
// product, no fold. Any other first child runs Backward, and what it
// returned goes back to the activation pool.
func (s *Sequential) BackwardParams(dy *tensor.Tensor) {
	dy, owned := s.backwardTo(1, dy)
	if len(s.Layers) > 0 {
		switch first := s.Layers[0].(type) {
		case *Sequential:
			first.BackwardParams(dy)
		case *Conv2D:
			first.backward(dy, false)
		default:
			dy, owned = backwardStep(first, dy, owned)
		}
	}
	if owned {
		activations.Put(dy.Data())
	}
	s.release()
}

// backwardTo runs the layers from the last down to index stop under the
// ownership rule (see Layer), and returns the gradient the
// last of them returned and whether this Sequential owns it.
func (s *Sequential) backwardTo(stop int, dy *tensor.Tensor) (*tensor.Tensor, bool) {
	owned := false
	for i := len(s.Layers) - 1; i >= stop; i-- {
		dy, owned = backwardStep(s.Layers[i], dy, owned)
	}
	return dy, owned
}

// backwardStep runs l's backward on dy, in place when l can and dy is
// owned, hands dy back once l has read it if it is owned and the result
// does not share its storage, and returns the result and whether it is
// owned.
func backwardStep(l Layer, dy *tensor.Tensor, owned bool) (*tensor.Tensor, bool) {
	if ip, ok := l.(inPlacer); ok && owned {
		ip.backwardInPlace(dy)
		return dy, true
	}
	dx := l.Backward(dy)
	if owned {
		Recycle(dy, dx)
	}
	return dx, !dx.SharesStorage(dy)
}

// release hands back to the activation pool what the train forward held.
func (s *Sequential) release() {
	for _, h := range s.held {
		activations.Put(h.Data())
	}
	clear(s.held)
	s.held = s.held[:0]
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

	_ inPlacer = (*BatchNorm2D)(nil)
	_ inPlacer = (*ReLU)(nil)
	_ inPlacer = (*ReLU6)(nil)
)
