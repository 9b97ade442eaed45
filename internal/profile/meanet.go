package profile

import (
	"fmt"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/nn"
)

// MEANetProfile separates a MEANet's cost into the fixed (frozen main block
// + main exit) and trained (adaptive + extension + extension exit) parts —
// the two columns of Table VI.
type MEANetProfile struct {
	Fixed   Cost
	Trained Cost
	InShape Shape
	MainOut Shape // main-block output: one instance's features representation
}

// ProfileMEANet computes the Table VI decomposition for an input geometry.
// The extension exit may not exist yet (before edge training); pass
// extClasses > 0 to account for a hypothetical exit of that width, or 0 to
// profile only what is built.
func ProfileMEANet(m *core.MEANet, in Shape, extClasses int) (MEANetProfile, error) {
	p := MEANetProfile{InShape: in}

	mainCost, feat, err := LayerCost(m.Main, in)
	if err != nil {
		return p, fmt.Errorf("profile main: %w", err)
	}
	exitCost, _, err := LayerCost(m.MainExit, feat)
	if err != nil {
		return p, fmt.Errorf("profile main exit: %w", err)
	}
	p.Fixed = mainCost.Add(exitCost)
	p.MainOut = feat

	extIn := feat
	if m.Combine != core.CombineMainOnly {
		adCost, adOut, err := LayerCost(m.Adaptive, in)
		if err != nil {
			return p, fmt.Errorf("profile adaptive: %w", err)
		}
		if m.Combine == core.CombineSum && adOut != feat {
			return p, fmt.Errorf("profile: adaptive output %+v does not match main output %+v", adOut, feat)
		}
		extIn = adOut
		if m.Combine == core.CombineConcat {
			extIn = Shape{C: feat.C + adOut.C, H: adOut.H, W: adOut.W}
		}
		p.Trained = p.Trained.Add(adCost)
	}
	extCost, extOut, err := LayerCost(m.Extension, extIn)
	if err != nil {
		return p, fmt.Errorf("profile extension: %w", err)
	}
	p.Trained = p.Trained.Add(extCost)

	switch {
	case m.ExtExit != nil:
		c, _, err := LayerCost(m.ExtExit, extOut)
		if err != nil {
			return p, fmt.Errorf("profile extension exit: %w", err)
		}
		p.Trained = p.Trained.Add(c)
	case extClasses > 0:
		// Hypothetical GAP+FC exit of the given width.
		p.Trained = p.Trained.Add(Cost{
			MACs:        int64(extOut.C) * int64(extClasses),
			Params:      int64(extOut.C)*int64(extClasses) + int64(extClasses),
			Activations: int64(extOut.C) + int64(extClasses),
		})
	}
	return p, nil
}

// TrainingMemory models the bytes of GPU/accelerator memory needed to train,
// reproducing the Fig 6 comparison. Both strategies pay for parameters and
// for the activations of layers they backpropagate through; blockwise
// training (ours) additionally stores gradients and optimizer momentum only
// for the trained blocks and keeps no activations for the frozen main block,
// while joint optimization stores gradients, momentum and activations for
// everything.
type TrainingMemory struct {
	ParamsBytes      int64
	GradBytes        int64
	MomentumBytes    int64
	ActivationsBytes int64
}

// Total sums all components.
func (t TrainingMemory) Total() int64 {
	return t.ParamsBytes + t.GradBytes + t.MomentumBytes + t.ActivationsBytes
}

// MiB converts the total to mebibytes.
func (t TrainingMemory) MiB() float64 { return float64(t.Total()) / (1024 * 1024) }

const bytesPerFloat = 4

// BlockwiseTrainingMemory is "ours" in Fig 6: frozen main block contributes
// parameters only; trained blocks contribute parameters, gradients, momentum
// and batch-size-scaled activations.
func (p MEANetProfile) BlockwiseTrainingMemory(batch int) TrainingMemory {
	return TrainingMemory{
		ParamsBytes:      bytesPerFloat * (p.Fixed.Params + p.Trained.Params),
		GradBytes:        bytesPerFloat * p.Trained.Params,
		MomentumBytes:    bytesPerFloat * p.Trained.Params,
		ActivationsBytes: bytesPerFloat * int64(batch) * p.Trained.Activations,
	}
}

// JointTrainingMemory is the baseline in Fig 6: every parameter carries
// gradient and momentum state, and every layer's activations are stored for
// the backward pass.
func (p MEANetProfile) JointTrainingMemory(batch int) TrainingMemory {
	all := p.Fixed.Add(p.Trained)
	return TrainingMemory{
		ParamsBytes:      bytesPerFloat * all.Params,
		GradBytes:        bytesPerFloat * all.Params,
		MomentumBytes:    bytesPerFloat * all.Params,
		ActivationsBytes: bytesPerFloat * int64(batch) * all.Activations,
	}
}

// ClassifierCost profiles a backbone-plus-exit classifier (e.g. the cloud
// AI) end to end.
func ClassifierCost(backbone nn.Layer, exit nn.Layer, in Shape) (Cost, error) {
	c1, feat, err := LayerCost(backbone, in)
	if err != nil {
		return Cost{}, err
	}
	c2, _, err := LayerCost(exit, feat)
	if err != nil {
		return Cost{}, err
	}
	return c1.Add(c2), nil
}
