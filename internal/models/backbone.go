// Package models provides the CNN backbones the paper builds MEANets from —
// ResNet-style (basic residual blocks in resolution groups) and
// MobileNetV2-style (inverted residual bottlenecks) — structured as explicit
// stages so they can be split into MEANet main/extension blocks, together
// with scaled training specs, paper-scale profiling specs, and binary weight
// serialization.
package models

import (
	"fmt"
	"math/rand"

	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/tensor"
)

// Backbone is a feature extractor's blueprint: a stem and resolution groups,
// with the per-group geometry the adaptive block mirrors. It is not itself a
// layer: AsSequential composes its layers into the nn.Sequential that runs
// them, and SplitAt carves them at group granularity into MEANet blocks.
type Backbone struct {
	Name        string
	Stem        *nn.Sequential
	Groups      []*nn.Sequential
	GroupOutC   []int // output channels after each group
	GroupStride []int // total stride introduced by each group
	GroupKernel []int // representative conv kernel of each group (mirrored by adaptive blocks)
	StemStride  int
	InChannels  int
}

// FeatureChannels reports the channel count after the last group.
func (b *Backbone) FeatureChannels() int {
	if len(b.GroupOutC) == 0 {
		return 0
	}
	return b.GroupOutC[len(b.GroupOutC)-1]
}

// AsSequential flattens the backbone into one Sequential (stem then groups).
func (b *Backbone) AsSequential() *nn.Sequential {
	s := nn.NewSequential(b.Name)
	s.Append(b.Stem)
	for _, g := range b.Groups {
		s.Append(g)
	}
	return s
}

// SplitAt partitions the backbone after `groups` groups: the first part is
// stem+groups[:groups], the second is groups[groups:]. This is how a model-A
// MEANet carves main and extension blocks out of one network (Fig 4A).
func (b *Backbone) SplitAt(groups int) (front, back *nn.Sequential, frontOutC int, err error) {
	if groups < 1 || groups >= len(b.Groups) {
		return nil, nil, 0, fmt.Errorf("models: split point %d out of range (1..%d)", groups, len(b.Groups)-1)
	}
	front = nn.NewSequential(b.Name + ".front")
	front.Append(b.Stem)
	for _, g := range b.Groups[:groups] {
		front.Append(g)
	}
	back = nn.NewSequential(b.Name + ".back")
	for _, g := range b.Groups[groups:] {
		back.Append(g)
	}
	return front, back, b.GroupOutC[groups-1], nil
}

// NewExit builds a classifier exit: global average pooling followed by a
// fully-connected layer, as attached to each MEANet block.
func NewExit(rng *rand.Rand, name string, inC, classes int) *nn.Sequential {
	return nn.NewSequential(name,
		nn.NewGlobalAvgPool(),
		nn.NewLinear(rng, name+".fc", inC, classes),
	)
}

// Classifier pairs a backbone with an exit, forming a complete CNN such as
// the cloud AI. It forwards, backpropagates and lists its parameters
// through one nn.Sequential of the two, built once by NewClassifier, so the
// backbone's output goes back to the activation pool once the exit has
// consumed it.
type Classifier struct {
	Backbone *nn.Sequential // the backbone's stem and groups, as AsSequential builds them
	Exit     *nn.Sequential

	net *nn.Sequential // Backbone then Exit
}

// NewClassifier attaches a fresh exit for the given class count.
func NewClassifier(rng *rand.Rand, b *Backbone, classes int) *Classifier {
	body := b.AsSequential()
	exit := NewExit(rng, b.Name+".exit", b.FeatureChannels(), classes)
	return &Classifier{Backbone: body, Exit: exit, net: nn.NewSequential(b.Name+".classifier", body, exit)}
}

// Logits runs the full network.
func (c *Classifier) Logits(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.net.Forward(x, train)
}

// BackwardParams propagates through exit then backbone, accumulating every
// parameter gradient; the raw-image gradient, which no caller reads, is
// never formed (see nn.Sequential.BackwardParams).
func (c *Classifier) BackwardParams(dy *tensor.Tensor) {
	c.net.BackwardParams(dy)
}

// Params returns all parameters.
func (c *Classifier) Params() []*nn.Param {
	return c.net.Params()
}
