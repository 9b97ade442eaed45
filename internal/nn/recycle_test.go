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
// the recycling rule covers: nested Sequentials, a residual block with an
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

// TestEvalRecyclingNeverAliases pins the recycling rule on Layer: a
// composite hands back to the activation pool only storage nothing can
// still reach, and the pool stays within its stated bound. A tensor
// recycled too early is overwritten by a later conv output, so holding
// results and inputs across many later forwards of other batch sizes, and
// racing forwards against a serial replay, shows any early release.
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
	nets := []*Sequential{net, flat, ident}

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
