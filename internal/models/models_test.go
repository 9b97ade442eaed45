package models

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/tensor"
)

func TestBuildResNetShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b, err := BuildResNet(rng, ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 2, 3, 12, 12)
	out := b.AsSequential().Forward(x, false)
	// Strides 1,2,2 → 12→12→6→3 with 32 channels.
	want := []int{2, 32, 3, 3}
	for i, w := range want {
		if out.Dim(i) != w {
			t.Fatalf("resnet output shape %v, want %v", out.Shape(), want)
		}
	}
	if b.FeatureChannels() != 32 {
		t.Fatalf("FeatureChannels = %d, want 32", b.FeatureChannels())
	}
}

func TestBuildResNetRejectsBadSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	spec := ResNetEdgeC100(1)
	spec.Strides = spec.Strides[:2]
	if _, err := BuildResNet(rng, spec); err == nil {
		t.Fatal("mismatched spec accepted")
	}
	spec2 := ResNetEdgeC100(1)
	spec2.Blocks[1] = 0
	if _, err := BuildResNet(rng, spec2); err == nil {
		t.Fatal("zero-block group accepted")
	}
}

func TestBuildMobileNetShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b, err := BuildMobileNet(rng, MobileNetEdge())
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	out := b.AsSequential().Forward(x, false)
	// Strides 1,2,2,2 then head: 16→16→8→4→2, 64 channels.
	want := []int{2, 64, 2, 2}
	for i, w := range want {
		if out.Dim(i) != w {
			t.Fatalf("mobilenet output shape %v, want %v", out.Shape(), want)
		}
	}
}

func TestSplitAtRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b, err := BuildResNet(rng, ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	front, back, outC, err := b.SplitAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if outC != 16 {
		t.Fatalf("front out channels %d, want 16", outC)
	}
	x := tensor.Randn(rng, 1, 2, 3, 12, 12)
	whole := b.AsSequential().Forward(x, false)
	split := back.Forward(front.Forward(x, false), false)
	if !whole.SameShape(split) {
		t.Fatalf("split shapes differ: %v vs %v", whole.Shape(), split.Shape())
	}
	for i := range whole.Data() {
		if whole.Data()[i] != split.Data()[i] {
			t.Fatal("split forward diverges from whole backbone")
		}
	}
}

func TestSplitAtRejectsBadPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b, err := BuildResNet(rng, ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{0, 3, -1, 99} {
		if _, _, _, err := b.SplitAt(bad); err == nil {
			t.Fatalf("split point %d accepted", bad)
		}
	}
}

func TestClassifierLogitsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b, err := BuildResNet(rng, ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	c := NewClassifier(rng, b, 20)
	x := tensor.Randn(rng, 1, 3, 3, 12, 12)
	logits := c.Logits(x, false)
	if logits.Dim(0) != 3 || logits.Dim(1) != 20 {
		t.Fatalf("logits shape %v, want [3 20]", logits.Shape())
	}
}

func TestAdaptiveBlockMatchesMainGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b, err := BuildResNet(rng, ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	ad, err := AdaptiveBlock(rng, "adaptive", 3, b.GroupOutC, b.GroupStride, b.GroupKernel)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 2, 3, 12, 12)
	main := b.AsSequential().Forward(x, false)
	side := ad.Forward(x, false)
	if !main.SameShape(side) {
		t.Fatalf("adaptive output %v does not match main output %v", side.Shape(), main.Shape())
	}
	// The adaptive block must be much shallower: fewer parameters.
	mainP, _ := nn.CountParams(b.AsSequential().Params())
	adP, _ := nn.CountParams(ad.Params())
	if adP*2 >= mainP {
		t.Fatalf("adaptive block too heavy: %d vs main %d params", adP, mainP)
	}
}

func TestAdaptiveBlockRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if _, err := AdaptiveBlock(rng, "a", 3, []int{8, 16}, []int{1}, nil); err == nil {
		t.Fatal("mismatched channels/strides accepted")
	}
}

func TestExtensionBlockShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ext, err := ExtensionBlock(rng, "ext", 32, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 2, 32, 3, 3)
	out := ext.Forward(x, false)
	if !out.SameShape(x) {
		t.Fatalf("extension changed shape: %v", out.Shape())
	}
	// Concat mode: doubled input channels.
	ext2, err := ExtensionBlock(rng, "ext2", 64, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	x2 := tensor.Randn(rng, 1, 2, 64, 3, 3)
	if got := ext2.Forward(x2, false); got.Dim(1) != 32 {
		t.Fatalf("concat extension output channels %d, want 32", got.Dim(1))
	}
}

func TestSaveLoadWeightsRoundTrip(t *testing.T) {
	rngA := rand.New(rand.NewSource(10))
	a, err := BuildResNet(rngA, ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	ca := NewClassifier(rngA, a, 10)
	// Make running stats non-default so their persistence is observable.
	x := tensor.Randn(rngA, 1, 4, 3, 12, 12)
	ca.Logits(x, true)

	var buf bytes.Buffer
	if err := SaveWeights(&buf, ca.Backbone, ca.Exit); err != nil {
		t.Fatal(err)
	}

	rngB := rand.New(rand.NewSource(999)) // different init
	b, err := BuildResNet(rngB, ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	cb := NewClassifier(rngB, b, 10)
	if err := LoadWeights(bytes.NewReader(buf.Bytes()), cb.Backbone, cb.Exit); err != nil {
		t.Fatal(err)
	}
	xt := tensor.Randn(rand.New(rand.NewSource(11)), 1, 2, 3, 12, 12)
	la := ca.Logits(xt, false)
	lb := cb.Logits(xt, false)
	for i := range la.Data() {
		if la.Data()[i] != lb.Data()[i] {
			t.Fatal("loaded model predicts differently from saved model")
		}
	}
}

func TestLoadWeightsRejectsMismatchedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a, err := BuildResNet(rng, ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveWeights(&buf, a.AsSequential()); err != nil {
		t.Fatal(err)
	}
	other, err := BuildResNet(rng, ResNetEdgeImageNet(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(bytes.NewReader(buf.Bytes()), other.AsSequential()); err == nil {
		t.Fatal("weights for a different architecture loaded without error")
	}
}

func TestLoadWeightsRejectsCorruptHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a, err := BuildResNet(rng, ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveWeights(&buf, a.AsSequential()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] = 'X' // corrupt magic
	if err := LoadWeights(bytes.NewReader(raw), a.AsSequential()); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	// Truncated file.
	if err := LoadWeights(bytes.NewReader(buf.Bytes()[:buf.Len()/2]), a.AsSequential()); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestWalkVisitsAllParams(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	b, err := BuildMobileNet(rng, MobileNetEdge())
	if err != nil {
		t.Fatal(err)
	}
	var visited int64
	Walk(b.AsSequential(), func(l nn.Layer) {
		for _, p := range l.Params() {
			visited += int64(p.Numel())
		}
	})
	total, _ := nn.CountParams(b.AsSequential().Params())
	if visited != total {
		t.Fatalf("Walk visited %d params, model has %d", visited, total)
	}
}

func TestPaperSpecsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	if _, err := BuildResNet(rng, ResNet32Paper()); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildResNet(rng, ResNet18Paper()); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildMobileNet(rng, MobileNetV2Paper()); err != nil {
		t.Fatal(err)
	}
}

func TestResNet32PaperParameterCount(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	b, err := BuildResNet(rng, ResNet32Paper())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClassifier(rng, b, 100)
	total, _ := nn.CountParams(c.Params())
	// The real ResNet32 has ≈0.47M parameters (paper Table VI model B fixed
	// column). Allow a few percent for exit-head differences.
	if total < 440_000 || total > 500_000 {
		t.Fatalf("ResNet32 paper-scale params = %d, want ≈470k", total)
	}
}

// TestBackboneIsNotALayer pins that a Backbone is a blueprint, not a
// composite: the layers it describes run only through the nn.Sequential
// AsSequential builds, so no layer-tree walker needs a case for it.
func TestBackboneIsNotALayer(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	b, err := BuildResNet(rng, ResNetSpec{
		Name: "blueprint", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := any(b).(nn.Layer); ok {
		t.Fatal("*Backbone implements nn.Layer")
	}
}

// TestClassifierComposesBackboneThenExit pins what the Classifier's one
// Sequential must keep of the hand-written composite it replaced: logits
// bitwise equal to the exit run on the backbone's output, parameters in
// backbone-then-exit order (the order weight files are written in), and a
// returned batch of logits that no later forward recycles.
func TestClassifierComposesBackboneThenExit(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	b, err := BuildResNet(rng, ResNetSpec{
		Name: "composed", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClassifier(rng, b, 5)
	want := append(c.Backbone.Params(), c.Exit.Params()...)
	got := c.Params()
	if len(got) != len(want) {
		t.Fatalf("classifier has %d params, backbone+exit %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("param %d is %s, want %s", i, got[i].Name, want[i].Name)
		}
	}
	x := tensor.Randn(rng, 1, 4, 3, 8, 8)
	held := c.Logits(x, false)
	ref := c.Exit.Forward(c.Backbone.Forward(x, false), false)
	if !sameBits(held, ref) {
		t.Fatal("classifier logits differ from exit(backbone(x))")
	}
	snapshot := held.Clone()
	for i := 0; i < 4; i++ {
		c.Logits(tensor.Randn(rng, 1, 4, 3, 8, 8), false)
	}
	if !sameBits(held, snapshot) {
		t.Fatal("a later forward overwrote logits the caller still holds")
	}
}

func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range b.Data() {
		if math.Float32bits(a.Data()[i]) != math.Float32bits(v) {
			return false
		}
	}
	return true
}
