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
// packs its unfold from it there, DepthwiseConv2D and Linear read it),
// so the caller must not write that input in between, and Backward never
// writes the gradient it was handed (a residual block hands the same one to
// both branches).
//
// The in-place rule: Forward never writes the tensor it was handed, in
// either mode, so a caller may keep reading its input (the main block's
// features feed the main exit, the combine step and features-mode offload).
// A composite may overwrite a tensor it produced itself and has not yet
// returned: in a Sequential, a BatchNorm2D, ReLU or ReLU6 step that follows
// a Conv2D or a composite whose result it owns (directly or through such
// in-place steps) normalizes or rectifies that fresh output in place, a
// ResidualBlock adds the shortcut into its body's output and rectifies it
// there, and an InvertedResidual adds its skip there. A train-mode step
// still caches what its Backward reads (BN's normalized input and inverse
// deviations, the rectifiers' masks, taken from the input before it is
// overwritten), and no layer caches its own output, so overwriting it
// loses nothing. Backward follows the same rule: a composite owns every
// gradient a child returned that does not share the storage of the
// gradient it handed that child, and a BatchNorm2D, ReLU or ReLU6 step
// rewrites an owned gradient in place, a ResidualBlock adds the shortcut's
// gradient into the body's and an InvertedResidual its skip's. The in-place
// ops evaluate the same float expressions as their allocating forms, so the
// result is bitwise the same. A Sequential that starts with a BatchNorm2D
// or ReLU — a partition stage cut between a conv and its norm — was handed
// its input, so that step allocates.
//
// The recycling rule: Conv2D takes its output, and its input gradient, from
// a bounded, process-wide activation pool, as BatchNorm2D does its
// normalized-input cache (back at Backward) and its and the rectifiers'
// allocated input gradients. A composite hands a tensor back to the pool
// once nothing can read it — only a tensor one of its children produced (a
// conv output, an owned composite result, an owned gradient), never the
// composite's own input or its return value, and never one whose storage
// the consuming step's output shares (a Flatten view, an Identity). In eval
// mode a Sequential or ResidualBlock hands an activation back once a later
// step has consumed it; in train mode a later step may have cached it, so a
// Sequential holds it until its own Backward has returned, and a train
// forward that no Backward follows just drops what it held. A Sequential
// hands a gradient back once the next child has read it — under
// BackwardParams its first child's result too, which no one reads — and a
// ResidualBlock its projection's output after the add and its branch
// gradients after their sum. A caller therefore never sees a recycled
// tensor: what Forward or Backward returns, at any depth, is never handed
// back by the layer, so it belongs to the caller. At the module boundary
// internal/core is that owner (see Pooled and Recycle): Algorithm 2 hands
// back each chunk's main features once every reader is done, takes its
// extension-path gathers from the pool, and ExtForward hands back its
// combined input and extension output in eval mode; an edge training step
// hands back its main features, combined input, extension output and the
// gradients the extension block and its exit returned once Backward has
// returned, and runs the adaptive block's BackwardParams, which returns
// none. Anything else a layer returns escapes as ordinary heap memory that
// the pool replaces with a fresh allocation. Every element of a pooled
// tensor is written before it is read (Conv2D clears its input gradient,
// which it accumulates), so a recycled buffer's old values never reach a
// result.
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

// Forward runs the layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	x, _ = s.forwardOwned(x, train)
	return x
}

// inPlacer is implemented by the ops a composite may run in place:
// forwardInPlace overwrites x with what Forward(x, train) would return, and
// backwardInPlace overwrites dy with what Backward(dy) would return.
type inPlacer interface {
	forwardInPlace(x *tensor.Tensor, train bool)
	backwardInPlace(dy *tensor.Tensor)
}

// owner is implemented by the layers whose forward can report that its
// result is a tensor the layer produced itself: Conv2D, whose result is
// always fresh, and the composites, which say so per call.
type owner interface {
	forwardOwned(x *tensor.Tensor, train bool) (*tensor.Tensor, bool)
}

// forwardOwned runs l and reports whether the result is a tensor l
// produced itself, one its caller may overwrite and recycle.
func forwardOwned(l Layer, x *tensor.Tensor, train bool) (*tensor.Tensor, bool) {
	if o, ok := l.(owner); ok {
		return o.forwardOwned(x, train)
	}
	return l.Forward(x, train), false
}

// Pooled returns a tensor of the given shape whose storage comes from the
// activation pool and holds arbitrary values, so the caller writes every
// element before reading any. The layers take their outputs, caches and
// gradients here; a module that owns such a tensor hands it back with
// Recycle once nothing can read it (see the recycling rule on Layer).
func Pooled(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return tensor.FromSlice(activations.Get(n), shape...)
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

// forwardOwned runs the layers under the in-place and recycling rules (see
// Layer) and reports whether the result is a tensor this Sequential
// produced, and so one its caller may overwrite and recycle too. Only a
// child's owned result is ever recycled, so the input never is; in train
// mode it is held for Backward instead, and what a previous train forward
// held is dropped.
func (s *Sequential) forwardOwned(x *tensor.Tensor, train bool) (*tensor.Tensor, bool) {
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
		y, yOwned := forwardOwned(l, x, train)
		if owned && !y.SharesStorage(x) {
			if train {
				s.held = append(s.held, x)
			} else {
				activations.Put(x.Data())
			}
		}
		x, owned = y, yOwned
	}
	return x, owned
}

// Backward runs the layers in reverse order under the in-place and
// recycling rules (see Layer), then hands back what the train forward held.
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
// in-place and recycling rules (see Layer), and returns the gradient the
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

	_ owner = (*Conv2D)(nil)
	_ owner = (*Sequential)(nil)
	_ owner = (*ResidualBlock)(nil)
	_ owner = (*InvertedResidual)(nil)

	_ inPlacer = (*BatchNorm2D)(nil)
	_ inPlacer = (*ReLU)(nil)
	_ inPlacer = (*ReLU6)(nil)
)
