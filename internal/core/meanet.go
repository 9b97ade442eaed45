// Package core implements the paper's primary contribution: the MEANet
// tripartite edge architecture (main block, extension block, adaptive block,
// §III), complexity-aware distributed training (Algorithm 1), and
// complexity-aware distributed inference with cloud offload (Algorithm 2).
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/tensor"
)

// CombineMode selects how the adaptive block's features join the main
// block's features at the extension block input (paper §III-A: "the sum or
// concatenation of them are used as the inputs to the extension block").
type CombineMode int

// Combine modes. CombineMainOnly drops the adaptive block entirely —
// the extension block sees only the frozen main block's features. It exists
// as the ablation of the failure mode §III-A warns about ("it is likely to
// perform the same misclassifications as the main block").
const (
	CombineSum CombineMode = iota + 1
	CombineConcat
	CombineMainOnly
)

// String names the mode.
func (m CombineMode) String() string {
	switch m {
	case CombineSum:
		return "sum"
	case CombineConcat:
		return "concat"
	case CombineMainOnly:
		return "main-only (no adaptive block)"
	default:
		return "unknown"
	}
}

// Variant selects the MEANet construction of Fig 4.
type Variant int

// Variants: A splits an existing CNN into main and extension blocks;
// B keeps the complete CNN as the main block and appends new blocks.
const (
	VariantA Variant = iota + 1
	VariantB
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case VariantA:
		return "A"
	case VariantB:
		return "B"
	default:
		return "unknown"
	}
}

// MEANet is the edge network: a main block with its own exit, plus an
// adaptive block and extension block (with a hard-class exit) that are
// trained locally. The extension exit is created by TrainEdgeBlocks once the
// hard-class count is known; until then the network behaves as main-only.
type MEANet struct {
	Variant    Variant
	NumClasses int
	Combine    CombineMode

	Main      *nn.Sequential // feature extractor (pretrained, frozen at the edge)
	MainExit  *nn.Sequential // ŷ1 over all classes
	Adaptive  *nn.Sequential // raw input → features matching Main's output
	Extension *nn.Sequential // combined features → deeper features
	ExtExit   *nn.Sequential // ŷ2 over hard classes (nil until edge training)

	Dict *ClassDict // hard-class mapping (nil until selection)

	mainOutC int // channels at the main block output
	extOutC  int // channels at the extension block output
}

// BuildMEANetA restructures a backbone per Fig 4A: the stem and the first
// splitAt groups become the main block (with a new exit), the remaining
// groups become the extension block, and a shallow adaptive block mirrors
// the main block's geometry. Model A supports only sum combination, because
// the extension block's input width is fixed by the original backbone.
func BuildMEANetA(rng *rand.Rand, backbone *models.Backbone, splitAt, numClasses int) (*MEANet, error) {
	if numClasses < 2 {
		return nil, fmt.Errorf("core: need ≥2 classes, got %d", numClasses)
	}
	front, back, outC, err := backbone.SplitAt(splitAt)
	if err != nil {
		return nil, err
	}
	adaptive, err := models.AdaptiveBlock(rng, backbone.Name+".adaptive",
		backbone.InChannels, backbone.GroupOutC[:splitAt], adaptiveStrides(backbone, splitAt),
		adaptiveKernels(backbone, splitAt))
	if err != nil {
		return nil, err
	}
	return &MEANet{
		Variant:    VariantA,
		NumClasses: numClasses,
		Combine:    CombineSum,
		Main:       front,
		MainExit:   models.NewExit(rng, backbone.Name+".mainexit", outC, numClasses),
		Adaptive:   adaptive,
		Extension:  back,
		mainOutC:   outC,
		extOutC:    backbone.FeatureChannels(),
	}, nil
}

// BuildMEANetB wraps a complete backbone per Fig 4B: the whole network is
// the main block, and a new extension block of extBlocks residual blocks is
// appended. combine selects sum or concatenation of main and adaptive
// features.
func BuildMEANetB(rng *rand.Rand, backbone *models.Backbone, extBlocks, numClasses int, combine CombineMode) (*MEANet, error) {
	featC := backbone.FeatureChannels()
	extIn := featC
	if combine == CombineConcat {
		extIn = 2 * featC
	}
	extension, err := models.ExtensionBlock(rng, backbone.Name+".extension", extIn, featC, extBlocks)
	if err != nil {
		return nil, err
	}
	return BuildMEANetBCustom(rng, backbone, extension, featC, numClasses, combine)
}

// BuildMEANetBCustom is BuildMEANetB with a caller-supplied extension block
// (e.g. inverted-residual extensions for MobileNet main blocks). extOutC is
// the extension block's output channel count, used to size the extension
// exit.
func BuildMEANetBCustom(rng *rand.Rand, backbone *models.Backbone, extension *nn.Sequential, extOutC, numClasses int, combine CombineMode) (*MEANet, error) {
	if numClasses < 2 {
		return nil, fmt.Errorf("core: need ≥2 classes, got %d", numClasses)
	}
	if combine != CombineSum && combine != CombineConcat && combine != CombineMainOnly {
		return nil, fmt.Errorf("core: invalid combine mode %d", combine)
	}
	if extension == nil || extOutC < 1 {
		return nil, fmt.Errorf("core: invalid extension block (outC %d)", extOutC)
	}
	featC := backbone.FeatureChannels()
	adaptive, err := models.AdaptiveBlock(rng, backbone.Name+".adaptive",
		backbone.InChannels, backbone.GroupOutC, adaptiveStrides(backbone, len(backbone.Groups)),
		adaptiveKernels(backbone, len(backbone.Groups)))
	if err != nil {
		return nil, err
	}
	return &MEANet{
		Variant:    VariantB,
		NumClasses: numClasses,
		Combine:    combine,
		Main:       backbone.AsSequential(),
		MainExit:   models.NewExit(rng, backbone.Name+".mainexit", featC, numClasses),
		Adaptive:   adaptive,
		Extension:  extension,
		mainOutC:   featC,
		extOutC:    extOutC,
	}, nil
}

// MainForward runs the main block, returning the feature map F (the
// extension block's primary input) and the main-exit logits ŷ1.
func (m *MEANet) MainForward(x *tensor.Tensor, train bool) (feat, logits *tensor.Tensor) {
	feat = m.Main.Forward(x, train)
	logits = m.MainExit.Forward(feat, train)
	return feat, logits
}

// combined merges main features with adaptive features.
func (m *MEANet) combined(feat, f2 *tensor.Tensor) *tensor.Tensor {
	if m.Combine == CombineConcat {
		return tensor.ConcatChannels(feat, f2)
	}
	return tensor.Add(feat, f2)
}

// ExtForward runs the adaptive and extension blocks on raw input x and main
// features feat, returning the hard-class logits ŷ2. It requires the
// extension exit to exist (after TrainEdgeBlocks). In eval mode it hands
// the combined input back to nn's activation pool once the extension block
// has read it, and the extension output once the exit has; it never hands
// back x or feat, which stay the caller's (under CombineMainOnly the
// combined input is feat itself).
func (m *MEANet) ExtForward(x, feat *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	in, h, logits, err := m.extForward(x, feat, train)
	if err == nil && !train {
		nn.Recycle(in, h, x, feat)
		nn.Recycle(h, logits, x, feat)
	}
	return logits, err
}

// extForward is ExtForward, which also returns the combined input in and
// the extension output h. It hands nothing back: in train mode the blocks
// have cached in and h for Backward, so the caller hands them back once
// Backward has returned.
func (m *MEANet) extForward(x, feat *tensor.Tensor, train bool) (in, h, logits *tensor.Tensor, err error) {
	if m.ExtExit == nil {
		return nil, nil, nil, errors.New("core: extension exit not built; run TrainEdgeBlocks first")
	}
	if m.Combine == CombineMainOnly {
		in = feat
	} else {
		f2 := m.Adaptive.Forward(x, train)
		if m.Combine == CombineSum {
			// f2 is the adaptive block's fresh output, and no layer keeps a
			// reference to its own output, so the sum lands in f2; float
			// addition commutes, so the bits are tensor.Add(feat, f2)'s.
			f2.AddInPlace(feat)
			in = f2
		} else {
			in = m.combined(feat, f2)
		}
	}
	h = m.Extension.Forward(in, train)
	return in, h, m.ExtExit.Forward(h, train), nil
}

// adaptiveStrides mirrors the main path's downsampling in the adaptive
// block: group strides with the backbone's stem stride folded into the first
// stage, so the two feature maps align spatially.
func adaptiveStrides(b *models.Backbone, groups int) []int {
	strides := append([]int(nil), b.GroupStride[:groups]...)
	if b.StemStride > 1 {
		strides[0] *= b.StemStride
	}
	return strides
}

// adaptiveKernels mirrors the main path's representative kernel sizes
// (pointwise for MobileNet heads, 3×3 elsewhere).
func adaptiveKernels(b *models.Backbone, groups int) []int {
	if b.GroupKernel == nil {
		return nil
	}
	return append([]int(nil), b.GroupKernel[:groups]...)
}

// MainParams returns the parameters of the main block and its exit.
func (m *MEANet) MainParams() []*nn.Param {
	return append(m.Main.Params(), m.MainExit.Params()...)
}

// EdgeParams returns the locally trained parameters: adaptive block,
// extension block and extension exit (when built). In main-only combination
// the adaptive block takes no part in training or inference.
func (m *MEANet) EdgeParams() []*nn.Param {
	var out []*nn.Param
	if m.Combine != CombineMainOnly {
		out = append(out, m.Adaptive.Params()...)
	}
	out = append(out, m.Extension.Params()...)
	if m.ExtExit != nil {
		out = append(out, m.ExtExit.Params()...)
	}
	return out
}

// Params returns all parameters.
func (m *MEANet) Params() []*nn.Param {
	return append(m.MainParams(), m.EdgeParams()...)
}

// FreezeMain marks the main block and its exit frozen (Algorithm 1 step 6).
func (m *MEANet) FreezeMain() { nn.FreezeParams(m.MainParams()) }

// ExtOutChannels reports the extension block's output width.
func (m *MEANet) ExtOutChannels() int { return m.extOutC }

// MainOutChannels reports the main block's output width.
func (m *MEANet) MainOutChannels() int { return m.mainOutC }
