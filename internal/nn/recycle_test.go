package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/meanet/meanet/internal/tensor"
)

// recycleNet is a small ResNet/MobileNet-shaped stack with every composite
// the ownership rule covers: nested Sequentials, a residual block with an
// identity shortcut, one with a projection, and an inverted residual with
// its skip. BN layers carry non-trivial running statistics.
func recycleNet(rng *rand.Rand) *Sequential {
	net := NewSequential("net",
		NewSequential("stem", NewConv2D(rng, "stem.conv", 3, 8, 3, 1, 1, false), NewBatchNorm2D("stem.bn", 8), NewReLU()),
		NewSequential("group",
			NewResidualBlock(rng, "res", 8, 8, 1),
			NewResidualBlock(rng, "resproj", 8, 16, 2),
		),
		NewInvertedResidual(rng, "inv", 16, 16, 1, 2),
	)
	randomizeNorms(rng, net)
	return net
}

// mobileNet is a MobileNet-shaped stack: a ReLU6 stem, an expand-1
// inverted residual whose body starts with its depthwise conv, one without
// a skip and one with.
func mobileNet(rng *rand.Rand) *Sequential {
	mobile := NewSequential("mobile",
		NewSequential("mstem", NewConv2D(rng, "mstem.conv", 3, 8, 3, 1, 1, false), NewBatchNorm2D("mstem.bn", 8), NewReLU6()),
		NewInvertedResidual(rng, "m1", 8, 8, 1, 1),
		NewInvertedResidual(rng, "m2", 8, 16, 2, 4),
		NewInvertedResidual(rng, "m3", 16, 16, 1, 4),
	)
	randomizeNorms(rng, mobile)
	return mobile
}

// ownershipNets are stacks whose owned tensors no layer-type test names:
// the ownership rule derives them from storage. A stack that starts with a
// BatchNorm2D, as a partition stage cut between a conv and its norm does,
// owns that norm's fresh output, rectifies it in place and recycles it once
// the conv has read it; a GlobalAvgPool→Linear exit recycles the pooled
// features once the Linear has read them; a fresh output that a Flatten or
// an Identity views stays out of the pool while the view is live, whether
// the view is read by a later step or returned. They take [n, 3, 8, 8]
// inputs.
func ownershipNets(rng *rand.Rand) []*Sequential {
	nets := []*Sequential{
		NewSequential("bn-first", NewBatchNorm2D("bnf.bn0", 3), NewReLU(),
			NewConv2D(rng, "bnf.conv", 3, 8, 3, 1, 1, false), NewBatchNorm2D("bnf.bn1", 8), NewReLU()),
		NewSequential("gap-linear", NewConv2D(rng, "gl.conv", 3, 8, 3, 2, 1, false), NewBatchNorm2D("gl.bn", 8), NewReLU(),
			NewSequential("gl.exit", NewGlobalAvgPool(), NewLinear(rng, "gl.fc", 8, 5))),
		NewSequential("relu-flatten-linear", NewReLU(), NewFlatten(), NewLinear(rng, "rfl.fc", 3*8*8, 5)),
		NewSequential("gap-identity", NewConv2D(rng, "gi.conv", 3, 8, 3, 1, 1, true), NewGlobalAvgPool(), Identity{}),
	}
	for _, n := range nets {
		randomizeNorms(rng, n)
	}
	return nets
}

// handOff forwards through two stacks the way internal/core composes its
// blocks at a module boundary: it owns what first returns, gathers it into a
// Pooled tensor (as core's extension path gathers its hard instances),
// feeds the gather to second, and hands back with Recycle what crossed the
// boundary once nothing can read it — in eval mode at once, in train mode
// once Backward has returned, with the gradient second returned.
type handOff struct {
	first, second *Sequential

	x, y, g *tensor.Tensor // a train forward's input, first's output and the gather
}

func (b *handOff) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := b.first.Forward(x, train)
	g := Pooled(y.Shape()...)
	g.CopyFrom(y)
	z := b.second.Forward(g, train)
	if train {
		b.x, b.y, b.g = x, y, g
		return z
	}
	Recycle(y, x)
	Recycle(g, z)
	return z
}

func (b *handOff) Backward(dz *tensor.Tensor) *tensor.Tensor {
	dg := b.second.Backward(dz)
	dx := b.first.Backward(dg)
	Recycle(dg, dz, dx)
	Recycle(b.g, dz)
	Recycle(b.y, b.x)
	b.x, b.y, b.g = nil, nil, nil
	return dx
}

func (b *handOff) Params() []*Param { return append(b.first.Params(), b.second.Params()...) }

// boundaryNet is a stack whose one layer is a handOff from a conv-BN-ReLU
// stem to a group of an identity and a projection residual block; it takes
// [n, 3, 8, 8] inputs.
func boundaryNet(rng *rand.Rand) *Sequential {
	net := NewSequential("module-boundary", &handOff{
		first: NewSequential("bstem", NewConv2D(rng, "bstem.conv", 3, 8, 3, 1, 1, false), NewBatchNorm2D("bstem.bn", 8), NewReLU()),
		second: NewSequential("bgroup",
			NewResidualBlock(rng, "bres", 8, 8, 1),
			NewResidualBlock(rng, "bresproj", 8, 16, 2),
		),
	})
	randomizeNorms(rng, net)
	return net
}

// randomizeNorms gives every BatchNorm2D in l random running statistics and
// affine parameters.
func randomizeNorms(rng *rand.Rand, l Layer) {
	switch v := l.(type) {
	case *BatchNorm2D:
		for i := range v.RunningMean {
			v.RunningMean[i] = float32(rng.NormFloat64())
			v.RunningVar[i] = float32(0.5 + rng.Float64())
		}
		v.Gamma.Data.CopyFrom(tensor.Randn(rng, 1, v.Gamma.Data.Shape()...))
		v.Beta.Data.CopyFrom(tensor.Randn(rng, 1, v.Beta.Data.Shape()...))
	case *Sequential:
		for _, c := range v.Layers {
			randomizeNorms(rng, c)
		}
	case *ResidualBlock:
		randomizeNorms(rng, v.Body)
		randomizeNorms(rng, v.Shortcut)
	case *InvertedResidual:
		randomizeNorms(rng, v.Body)
	case *handOff:
		randomizeNorms(rng, v.first)
		randomizeNorms(rng, v.second)
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

// TestEvalRecyclingNeverAliases pins the ownership rule on Layer: a
// composite, or a module boundary's owner through Pooled and Recycle,
// hands back to the activation pool only storage nothing can still reach,
// and the pool stays within its stated bound. A tensor recycled too early
// is overwritten by a later conv output, so holding results and inputs
// across many later forwards of other batch sizes, and racing forwards
// against a serial replay, shows any early release.
func TestEvalRecyclingNeverAliases(t *testing.T) {
	if activationBytes > 8<<20 {
		t.Fatalf("activation pool bound %d bytes, want at most 8 MiB", activationBytes)
	}
	checkBound := func(after string) {
		t.Helper()
		if b := activations.Bytes(); b > activationBytes {
			t.Fatalf("after %s the activation pool holds %d bytes, bound %d", after, b, activationBytes)
		}
	}
	rng := rand.New(rand.NewSource(36))
	net := recycleNet(rng)
	// A conv whose output a Flatten views, and a stack ending in Identity:
	// both return storage a conv produced inside the composite.
	flat := NewSequential("conv-flatten", NewConv2D(rng, "flat.conv", 3, 4, 3, 1, 1, true), NewFlatten())
	ident := NewSequential("conv-bn-identity", NewConv2D(rng, "ident.conv", 3, 4, 3, 1, 1, true),
		NewBatchNorm2D("ident.bn", 4), Identity{})
	randomizeNorms(rng, ident)
	nets := append([]*Sequential{net, flat, ident, boundaryNet(rng), mobileNet(rng)}, ownershipNets(rng)...)

	batches := []int{1, 7, 16, 64}
	input := func(n int) *tensor.Tensor { return tensor.Randn(rand.New(rand.NewSource(int64(n))), 1, n, 3, 8, 8) }

	// Held outputs and inputs keep their bits across 100 later forwards.
	x := input(16)
	xBefore := x.Clone()
	held := make([]*tensor.Tensor, len(nets))
	want := make([]*tensor.Tensor, len(nets))
	for i, s := range nets {
		held[i] = s.Forward(x, false)
		want[i] = held[i].Clone()
	}
	for r := 0; r < 100; r++ {
		n := batches[r%len(batches)]
		for _, s := range nets {
			s.Forward(input(n), false)
		}
		checkBound(fmt.Sprintf("forward %d", r))
	}
	for i, s := range nets {
		requireBitwise(t, s.Name+" output held across 100 later forwards", held[i], want[i])
	}
	requireBitwise(t, "input held across 100 later forwards", x, xBefore)

	// Forwards racing in 8 goroutines give the serial replay's bits.
	type job struct {
		net *Sequential
		n   int
	}
	var jobs []job
	serial := map[job]*tensor.Tensor{}
	for _, s := range nets {
		for _, n := range batches {
			j := job{s, n}
			jobs = append(jobs, j)
			serial[j] = s.Forward(input(n), false)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3*len(jobs); r++ {
				j := jobs[(g+r)%len(jobs)]
				if got := j.net.Forward(input(j.n), false); !sameBits(got, serial[j]) {
					errs <- fmt.Sprintf("goroutine %d: %s at batch %d differs from the serial replay", g, j.net.Name, j.n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	checkBound("the concurrent forwards")
}

// trainNets are the stacks TestTrainRecyclingNeverAliases trains, each
// built from rng: a ResNet-shaped one (recycleNet, identity and projection
// residual blocks, an inverted residual with its skip), a MobileNet-shaped
// one (a ReLU6 stem, an expand-1 inverted residual whose body starts with
// its depthwise conv, one without a skip and one with: mobileNet), a conv
// whose output
// a Flatten views for a Linear, a conv→BN→Identity stack that returns
// storage its conv produced, blocks with empty bodies, whose branch
// gradients are the very tensors their sums must not write, and a
// classifier-shaped stack (a backbone Sequential of a stem Sequential and a
// group Sequential, then a GAP+FC exit Sequential), whose outer Sequential
// holds the backbone's result while the exit caches it, a module
// boundary (boundaryNet) whose owner holds what crossed it until Backward,
// and a conv alone inside a Sequential inside a Sequential, which hands
// the gradient it was given straight down to the conv, then the
// ownershipNets. They take [n, 3, 8, 8] inputs.
func trainNets(rng *rand.Rand) []*Sequential {
	resnet := recycleNet(rng)
	mobile := mobileNet(rng)
	linear := NewSequential("conv-flatten-linear", NewConv2D(rng, "lin.conv", 3, 4, 3, 1, 1, true),
		NewFlatten(), NewLinear(rng, "lin.fc", 4*8*8, 5))
	ident := NewSequential("conv-bn-identity", NewConv2D(rng, "ident.conv", 3, 4, 3, 1, 1, true),
		NewBatchNorm2D("ident.bn", 4), Identity{})
	randomizeNorms(rng, ident)
	empty := NewSequential("empty-bodies", NewConv2D(rng, "empty.conv", 3, 4, 3, 1, 1, true),
		&ResidualBlock{Body: NewSequential("empty.res"), Shortcut: Identity{}, act: NewReLU()},
		&InvertedResidual{Body: NewSequential("empty.inv"), UseSkip: true})
	classifier := NewSequential("classifier",
		NewSequential("backbone",
			NewSequential("cstem", NewConv2D(rng, "cstem.conv", 3, 8, 3, 1, 1, false), NewBatchNorm2D("cstem.bn", 8), NewReLU()),
			NewSequential("cgroup", NewResidualBlock(rng, "cres", 8, 16, 2)),
		),
		NewSequential("cexit", NewGlobalAvgPool(), NewLinear(rng, "cexit.fc", 16, 5)),
	)
	randomizeNorms(rng, classifier)
	lone := NewSequential("lone-conv", NewSequential("lone.stem", NewConv2D(rng, "lone.conv", 3, 4, 3, 1, 1, true)))
	return append([]*Sequential{resnet, mobile, linear, ident, empty, classifier, boundaryNet(rng), lone}, ownershipNets(rng)...)
}

// replayForward is the train forward of l run unit by unit, every leaf on
// its own and every add allocating, so no tensor of the replay is ever
// written in place or handed back by a composite.
func replayForward(l Layer, x *tensor.Tensor) *tensor.Tensor {
	switch v := l.(type) {
	case *Sequential:
		for _, c := range v.Layers {
			x = replayForward(c, x)
		}
		return x
	case *ResidualBlock:
		return v.act.Forward(tensor.Add(replayForward(v.Body, x), replayForward(v.Shortcut, x)), true)
	case *InvertedResidual:
		y := replayForward(v.Body, x)
		if v.UseSkip {
			return tensor.Add(y, x)
		}
		return y
	case *handOff:
		return replayForward(v.second, replayForward(v.first, x))
	}
	return l.Forward(x, true)
}

// replayBackward is replayForward's Backward.
func replayBackward(l Layer, dy *tensor.Tensor) *tensor.Tensor {
	switch v := l.(type) {
	case *Sequential:
		for i := len(v.Layers) - 1; i >= 0; i-- {
			dy = replayBackward(v.Layers[i], dy)
		}
		return dy
	case *ResidualBlock:
		dsum := v.act.Backward(dy)
		return tensor.Add(replayBackward(v.Body, dsum), replayBackward(v.Shortcut, dsum))
	case *InvertedResidual:
		dx := replayBackward(v.Body, dy)
		if v.UseSkip {
			return tensor.Add(dx, dy)
		}
		return dx
	case *handOff:
		return replayBackward(v.first, replayBackward(v.second, dy))
	}
	return l.Backward(dy)
}

// TestTrainRecyclingNeverAliases is TestEvalRecyclingNeverAliases for the
// train path: train-mode BN, ReLU, ReLU6 and the residual adds run in place
// on tensors their composite owns, forward and backward, and the conv
// outputs, BN caches and backward results go back to the activation pool
// once nothing can reach them. Every step of every stack must give the bits
// of a unit-by-unit allocating replay on a twin built from the same seed —
// its output, its input gradient and every parameter gradient — and what a
// step returned, and the input and gradient it was handed, must keep their
// bits across 50 later steps of other batch sizes. A copy of the package
// with a SharesStorage guard dropped (in Sequential's forward or Backward,
// or in addOwned), with a Sequential recycling the gradient it was handed,
// or with a Sequential handing back its held activations at the end of its
// train forward instead of after its Backward fails here.
func TestTrainRecyclingNeverAliases(t *testing.T) {
	nets := trainNets(rand.New(rand.NewSource(39)))
	twins := trainNets(rand.New(rand.NewSource(39)))
	batches := []int{1, 7, 16, 64}
	type result struct{ x, dy, out, dx *tensor.Tensor }
	var held, heldBits []result
	for r := 0; r <= 50; r++ {
		n := batches[r%len(batches)]
		for i, s := range nets {
			rng := rand.New(rand.NewSource(int64(100*r + i)))
			x := tensor.Randn(rng, 1, n, 3, 8, 8)
			ZeroGrads(s.Params())
			out := s.Forward(x, true)
			dy := tensor.Randn(rng, 1, out.Shape()...)
			dx := s.Backward(dy)

			twin := twins[i]
			ZeroGrads(twin.Params())
			wantOut := replayForward(twin, x)
			wantDx := replayBackward(twin, dy)
			label := fmt.Sprintf("step %d (batch %d) of %s", r, n, s.Name)
			requireBitwise(t, label+": output", out, wantOut)
			requireBitwise(t, label+": input gradient", dx, wantDx)
			twinParams := twin.Params()
			for j, p := range s.Params() {
				requireBitwise(t, label+": gradient of "+p.Name, p.Grad, twinParams[j].Grad)
			}
			if r == 0 {
				held = append(held, result{x, dy, out, dx})
				heldBits = append(heldBits, result{x.Clone(), dy.Clone(), out.Clone(), dx.Clone()})
			}
			if b := activations.Bytes(); b > activationBytes {
				t.Fatalf("after %s the activation pool holds %d bytes, bound %d", label, b, activationBytes)
			}
		}
	}
	for i, h := range held {
		name := nets[i].Name + " step 0 "
		requireBitwise(t, name+"input held across 50 later steps", h.x, heldBits[i].x)
		requireBitwise(t, name+"output gradient held across 50 later steps", h.dy, heldBits[i].dy)
		requireBitwise(t, name+"output held across 50 later steps", h.out, heldBits[i].out)
		requireBitwise(t, name+"input gradient held across 50 later steps", h.dx, heldBits[i].dx)
	}
}

// TestBackwardParamsMatchesBackward pins Sequential.BackwardParams against
// Backward: over steps of batch 1, 7, 16 and 64, every trainNets stack must
// accumulate the parameter gradients, and keep the BatchNorm running
// statistics, that Backward gives on a twin built from the same seed, bit
// for bit, and the input, output and gradient of its first step must keep
// their bits across the later ones, so BackwardParams hands back nothing a
// caller holds. The stacks' first children cover a nested Sequential down
// to a first Conv2D (the stems, the classifier's backbone), a first Conv2D
// itself, and a first child of neither kind (the module boundary's
// handOff), which falls back to Backward.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	nets := trainNets(rand.New(rand.NewSource(41)))
	twins := trainNets(rand.New(rand.NewSource(41)))
	var held, heldBits [][3]*tensor.Tensor // x, out, dy of each stack's first step
	for r := 0; r < 12; r++ {
		n := []int{1, 7, 16, 64}[r%4]
		for i, s := range nets {
			rng := rand.New(rand.NewSource(int64(100*r + i)))
			x := tensor.Randn(rng, 1, n, 3, 8, 8)
			twin := twins[i]
			ZeroGrads(s.Params())
			ZeroGrads(twin.Params())
			out := s.Forward(x, true)
			requireBitwise(t, fmt.Sprintf("step %d of %s: output", r, s.Name), out, twin.Forward(x, true))
			dy := tensor.Randn(rng, 1, out.Shape()...)
			if r == 0 {
				held = append(held, [3]*tensor.Tensor{x, out, dy})
				heldBits = append(heldBits, [3]*tensor.Tensor{x.Clone(), out.Clone(), dy.Clone()})
			}
			s.BackwardParams(dy)
			twin.Backward(dy)
			twinParams := twin.Params()
			for j, p := range s.Params() {
				requireBitwise(t, fmt.Sprintf("step %d (batch %d) of %s: gradient of %s", r, n, s.Name, p.Name),
					p.Grad, twinParams[j].Grad)
			}
			norms, twinNorms := batchNorms(s), batchNorms(twin)
			for j, bn := range norms {
				label := fmt.Sprintf("step %d of %s: norm %d running ", r, s.Name, j)
				requireBitwise(t, label+"mean", tensor.FromSlice(bn.RunningMean, len(bn.RunningMean)),
					tensor.FromSlice(twinNorms[j].RunningMean, len(bn.RunningMean)))
				requireBitwise(t, label+"variance", tensor.FromSlice(bn.RunningVar, len(bn.RunningVar)),
					tensor.FromSlice(twinNorms[j].RunningVar, len(bn.RunningVar)))
			}
		}
	}
	for i, h := range held {
		for j, what := range []string{"input", "output", "output gradient"} {
			requireBitwise(t, nets[i].Name+" step 0 "+what+" held across 11 later steps", h[j], heldBits[i][j])
		}
	}
}

// batchNorms lists the BatchNorm2D layers of l in forward order.
func batchNorms(l Layer) []*BatchNorm2D {
	switch v := l.(type) {
	case *BatchNorm2D:
		return []*BatchNorm2D{v}
	case *Sequential:
		var out []*BatchNorm2D
		for _, c := range v.Layers {
			out = append(out, batchNorms(c)...)
		}
		return out
	case *ResidualBlock:
		return append(batchNorms(v.Body), batchNorms(v.Shortcut)...)
	case *InvertedResidual:
		return batchNorms(v.Body)
	case *handOff:
		return append(batchNorms(v.first), batchNorms(v.second)...)
	}
	return nil
}

// TestBackwardParamsFormsNoInputGradient requires a first Conv2D under
// BackwardParams, nested one Sequential deep as in a stem, to take no
// input-gradient buffer from the activation pool: a buffer of exactly the
// input gradient's length, handed to the pool before the backward and
// holding NaN, must come out of it again untouched, while Backward on the
// same step does take it.
func TestBackwardParamsFormsNoInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewSequential("net",
		NewSequential("stem", NewConv2D(rng, "stem.conv", 3, 8, 3, 1, 1, false), NewBatchNorm2D("stem.bn", 8), NewReLU()))
	x := tensor.Randn(rng, 1, 4, 3, 8, 8)
	dy := tensor.Randn(rng, 1, 4, 8, 8, 8)
	for _, params := range []bool{true, false} {
		net.Forward(x, true)
		sentinel := make([]float32, x.Numel())
		for i := range sentinel {
			sentinel[i] = float32(math.NaN())
		}
		activations.Put(sentinel)
		var dx *tensor.Tensor
		if params {
			net.BackwardParams(dy)
		} else {
			dx = net.Backward(dy)
		}
		if params {
			got := activations.Get(x.Numel())
			if &got[0] != &sentinel[0] || !math.IsNaN(float64(got[0])) {
				t.Fatal("BackwardParams took the input gradient's buffer from the activation pool")
			}
		} else if &dx.Data()[0] != &sentinel[0] {
			t.Fatal("Backward did not take the input gradient's buffer from the activation pool: the check shows nothing")
		}
	}
}

// poisonActivations fills the activation pool with buffers holding v: two
// of each length on a ladder of lengths from 1 float past 4096 whose rungs
// at most double, so every Pooled request up to 2048 floats, and a second
// one of the same length, is served a buffer of stale v.
func poisonActivations(v float32) {
	for n := 1; n < 2*2048; n = n*19/10 + 1 {
		for range 2 {
			b := make([]float32, n)
			for i := range b {
				b[i] = v
			}
			activations.Put(b)
		}
	}
}

// TestLayersWriteEveryPooledElement pins the allocation rule's other side:
// Pooled storage holds arbitrary values, so every layer writes each element
// of a pooled output, cache or input gradient before it reads one. Each
// layer type, built twice from one seed, runs an eval forward, a train
// forward and a backward, each with the activation pool full of stale
// zeros in one build and stale NaN in the other; the outputs, the input
// gradient and every parameter gradient must agree bit for bit, as they
// cannot where a layer reads or accumulates into a pooled buffer it never
// cleared.
func TestLayersWriteEveryPooledElement(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(rng *rand.Rand) Layer
		in    []int
	}{
		{"Conv2D", func(rng *rand.Rand) Layer { return NewConv2D(rng, "c", 3, 4, 3, 2, 1, true) }, []int{2, 3, 6, 6}},
		{"BatchNorm2D", func(rng *rand.Rand) Layer { return NewBatchNorm2D("bn", 3) }, []int{2, 3, 6, 6}},
		{"ReLU", func(rng *rand.Rand) Layer { return NewReLU() }, []int{2, 3, 6, 6}},
		{"ReLU6", func(rng *rand.Rand) Layer { return NewReLU6() }, []int{2, 3, 6, 6}},
		{"DepthwiseConv2D", func(rng *rand.Rand) Layer { return NewDepthwiseConv2D(rng, "dw", 3, 3, 2, 1) }, []int{2, 3, 7, 5}},
		{"GlobalAvgPool", func(rng *rand.Rand) Layer { return NewGlobalAvgPool() }, []int{2, 3, 6, 6}},
		{"Linear", func(rng *rand.Rand) Layer { return NewLinear(rng, "fc", 12, 5) }, []int{3, 12}},
		{"ResidualBlock", func(rng *rand.Rand) Layer { return NewResidualBlock(rng, "res", 3, 3, 1) }, []int{2, 3, 6, 6}},
		{"ResidualBlockProjection", func(rng *rand.Rand) Layer { return NewResidualBlock(rng, "proj", 3, 4, 2) }, []int{2, 3, 6, 6}},
		{"InvertedResidual", func(rng *rand.Rand) Layer { return NewInvertedResidual(rng, "inv", 3, 3, 1, 2) }, []int{2, 3, 6, 6}},
		{"Sequential", func(rng *rand.Rand) Layer {
			return NewSequential("seq", NewConv2D(rng, "s.conv", 3, 4, 3, 1, 1, false), NewBatchNorm2D("s.bn", 4), NewReLU(),
				NewGlobalAvgPool(), NewLinear(rng, "s.fc", 4, 5))
		}, []int{2, 3, 6, 6}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(45))
			x := tensor.Randn(rng, 1, c.in...)
			var dy *tensor.Tensor
			run := func(stale float32) []*tensor.Tensor {
				l := c.build(rand.New(rand.NewSource(46)))
				randomizeNorms(rand.New(rand.NewSource(47)), l)
				poisonActivations(stale)
				evalOut := l.Forward(x, false).Clone()
				poisonActivations(stale)
				trainOut := l.Forward(x, true).Clone()
				if dy == nil {
					dy = tensor.Randn(rng, 1, trainOut.Shape()...)
				}
				poisonActivations(stale)
				got := []*tensor.Tensor{evalOut, trainOut, l.Backward(dy).Clone()}
				for _, p := range l.Params() {
					got = append(got, p.Grad)
				}
				return got
			}
			want, got := run(0), run(float32(math.NaN()))
			for i := range want {
				label := fmt.Sprintf("result %d (eval out, train out, dx, then parameter gradients)", i)
				requireBitwise(t, label, got[i], want[i])
			}
		})
	}
}
