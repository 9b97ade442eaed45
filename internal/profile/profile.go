// Package profile is the ptflops equivalent the paper uses (§IV-B4): it
// counts multiply-accumulate operations and parameters of a network given an
// input geometry, separates fixed (frozen) from trained parts, and models
// training memory — reproducing Table VI and Fig 6 at paper scale without
// having to train paper-scale models.
package profile

import (
	"fmt"

	"github.com/meanet/meanet/internal/nn"
)

// Shape is a CHW feature-map geometry.
type Shape struct {
	C, H, W int
}

// Elems reports C*H*W.
func (s Shape) Elems() int64 { return int64(s.C) * int64(s.H) * int64(s.W) }

// Cost accumulates multiply-accumulates, parameters and activation elements.
type Cost struct {
	MACs        int64 // multiply-accumulate operations for one instance
	Params      int64 // scalar parameters
	Activations int64 // output elements produced (for memory modelling)
}

// Add returns the elementwise sum of two costs.
func (c Cost) Add(o Cost) Cost {
	return Cost{MACs: c.MACs + o.MACs, Params: c.Params + o.Params, Activations: c.Activations + o.Activations}
}

// LayerCost computes the cost of one layer on the given input shape and
// returns the output shape. It understands every layer type in package nn;
// a backbone is priced as the nn.Sequential its AsSequential builds.
func LayerCost(l nn.Layer, in Shape) (Cost, Shape, error) {
	switch v := l.(type) {
	case *nn.Conv2D:
		k, s, p := v.Kernel(), v.Stride, v.Pad
		if v.InChannels() != in.C {
			return Cost{}, in, fmt.Errorf("profile: conv expects %d channels, input has %d", v.InChannels(), in.C)
		}
		oh := (in.H+2*p-k)/s + 1
		ow := (in.W+2*p-k)/s + 1
		out := Shape{C: v.OutChannels(), H: oh, W: ow}
		params := int64(v.W.Data.Numel())
		macs := out.Elems() * int64(in.C) * int64(k) * int64(k)
		if v.B != nil {
			params += int64(v.B.Data.Numel())
			macs += out.Elems()
		}
		return Cost{MACs: macs, Params: params, Activations: out.Elems()}, out, nil

	case *nn.DepthwiseConv2D:
		k, s, p := v.Kernel(), v.Stride, v.Pad
		if v.Channels() != in.C {
			return Cost{}, in, fmt.Errorf("profile: depthwise expects %d channels, input has %d", v.Channels(), in.C)
		}
		oh := (in.H+2*p-k)/s + 1
		ow := (in.W+2*p-k)/s + 1
		out := Shape{C: in.C, H: oh, W: ow}
		return Cost{
			MACs:        out.Elems() * int64(k) * int64(k),
			Params:      int64(v.W.Data.Numel()),
			Activations: out.Elems(),
		}, out, nil

	case *nn.BatchNorm2D:
		// One multiply-add per element in inference form.
		return Cost{MACs: in.Elems(), Params: int64(2 * v.Channels()), Activations: in.Elems()}, in, nil

	case *nn.ReLU, *nn.ReLU6:
		return Cost{Activations: in.Elems()}, in, nil

	case *nn.GlobalAvgPool:
		out := Shape{C: in.C, H: 1, W: 1}
		return Cost{Activations: int64(in.C)}, out, nil

	case *nn.Flatten:
		return Cost{}, Shape{C: in.C * in.H * in.W, H: 1, W: 1}, nil

	case *nn.Linear:
		if v.InFeatures() != in.C*in.H*in.W {
			return Cost{}, in, fmt.Errorf("profile: linear expects %d features, input has %d", v.InFeatures(), in.C*in.H*in.W)
		}
		out := Shape{C: v.OutFeatures(), H: 1, W: 1}
		return Cost{
			MACs:        int64(v.InFeatures()) * int64(v.OutFeatures()),
			Params:      int64(v.W.Data.Numel() + v.B.Data.Numel()),
			Activations: int64(v.OutFeatures()),
		}, out, nil

	case nn.Identity:
		return Cost{}, in, nil

	case *nn.Sequential:
		return sequenceCost(v.Layers, in)

	case *nn.ResidualBlock:
		body, out, err := LayerCost(v.Body, in)
		if err != nil {
			return Cost{}, in, err
		}
		short, _, err := LayerCost(v.Shortcut, in)
		if err != nil {
			return Cost{}, in, err
		}
		total := body.Add(short)
		total.Activations += out.Elems() // the sum + final ReLU output
		return total, out, nil

	case *nn.InvertedResidual:
		body, out, err := LayerCost(v.Body, in)
		if err != nil {
			return Cost{}, in, err
		}
		if v.UseSkip {
			body.Activations += out.Elems()
		}
		return body, out, nil

	default:
		return Cost{}, in, fmt.Errorf("profile: unsupported layer type %T", l)
	}
}

func sequenceCost(layers []nn.Layer, in Shape) (Cost, Shape, error) {
	var total Cost
	cur := in
	for _, l := range layers {
		c, out, err := LayerCost(l, cur)
		if err != nil {
			return Cost{}, in, err
		}
		total = total.Add(c)
		cur = out
	}
	return total, cur, nil
}
