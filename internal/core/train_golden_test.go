package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/opt"
	"github.com/meanet/meanet/internal/tensor"
)

// trainStepData is a seeded n-image, 20-class set of 16x16 inputs whose
// labels are label(i).
func trainStepData(n int, seed int64, label func(i int) int) *data.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := data.NewDataset(n, 3, 16, 16, 20)
	for i := range ds.X {
		ds.X[i] = float32(rng.NormFloat64())
	}
	for i := range ds.Y {
		ds.Y[i] = label(i)
	}
	return ds
}

// hashParams is the FNV hash of the parameters' bits, in order.
func hashParams(params []*nn.Param) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range params {
		for _, v := range p.Data.Data() {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// trainStepHashes runs Algorithm 1's two training phases on forwardMEANet at
// the current kernel worker count, with batch-image steps: one TrainMainBlock
// SGD step (backward through every main-block conv, the stem's input
// gradient included), then two TrainEdgeBlocks steps on hard-class images
// (the second one applies momentum). It returns the hashes of the main block
// and exit, the adaptive block, the extension block and the extension exit.
func trainStepHashes(t testing.TB, batch int) [4]uint64 {
	t.Helper()
	return trainedHashes(t, forwardMEANet(t), batch)
}

// trainedHashes is trainStepHashes on a given MEANet.
func trainedHashes(t testing.TB, m *MEANet, batch int) [4]uint64 {
	t.Helper()
	cfg := TrainConfig{Epochs: 1, Batch: batch, LR: opt.StepLR{Initial: 0.1}, Momentum: 0.9, WeightDecay: 5e-4, Seed: 5}
	if err := TrainMainBlock(m, trainStepData(batch, 37, func(i int) int { return i % 20 }), cfg); err != nil {
		t.Fatal(err)
	}
	dict, err := NewClassDict([]int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18})
	if err != nil {
		t.Fatal(err)
	}
	m.Dict = dict
	if err := TrainEdgeBlocks(m, trainStepData(2*batch, 38, func(i int) int { return 2 * (i % 10) }), cfg); err != nil {
		t.Fatal(err)
	}
	return [4]uint64{hashParams(m.MainParams()), hashParams(m.Adaptive.Params()),
		hashParams(m.Extension.Params()), hashParams(m.ExtExit.Params())}
}

// TestTrainStepGolden pins training bit for bit. The literals were taken from
// the per-image train-mode convolution (a batch-sized unfold cached by
// Forward, fresh product and gradient tensors per image in Backward), so any
// reordering of a float operation in the train forward, the backward or the
// GEMM changes a hash. The convolution's weight gradient is summed over
// per-worker image chunks, so the trained bits depend on the worker count and
// each count has its own literals. Batch 37 leaves a ragged final conv tile
// at every layer.
func TestTrainStepGolden(t *testing.T) {
	want := map[string][4]uint64{
		"workers 1 batch 16": {0x0c0e1898e5b273c2, 0x8ba5028819c0a5e5, 0x50a60a6dfd21e691, 0xa6adb49fb810c410},
		"workers 1 batch 37": {0xb293ca219c8cb7f6, 0x8eb381b43ce74567, 0xa30be5acc6551f7b, 0xf0ddb039e7cd28d3},
		"workers 2 batch 16": {0xb07d334656a552cc, 0x2a15afd675f1819f, 0xfcad914a65504e1f, 0x51379a3f2eacf435},
		"workers 2 batch 37": {0xf2fef8359ed80470, 0xde2f44c9e850d69a, 0x2179df4437d1e48c, 0x16e221e21f45ac4a},
	}
	defer tensor.SetParallelism(tensor.Parallelism())
	for _, workers := range []int{1, 2} {
		for _, batch := range []int{16, 37} {
			tensor.SetParallelism(workers)
			key := fmt.Sprintf("workers %d batch %d", workers, batch)
			if got := trainStepHashes(t, batch); got != want[key] {
				t.Errorf("%s: main/adaptive/extension/extexit hashes %#x, want %#x", key, got, want[key])
			}
		}
	}
}

// TestMobileNetTrainStepGolden is TestTrainStepGolden over the edge
// MobileNetV2 backbone, split after its second stage: the main block's
// steps run ReLU6, DepthwiseConv2D and InvertedResidual blocks with and
// without their skip through train forward and backward, and the edge steps
// the same in the extension block (stages 3 and 4, then the pointwise head).
// The literals were taken before train-mode BN, ReLU, ReLU6 and the
// residual adds ran in place and before the train path recycled its
// activations and gradients, so they pin those to the allocating forms' bits.
func TestMobileNetTrainStepGolden(t *testing.T) {
	want := map[string][4]uint64{
		"workers 1 batch 16": {0x9adcc4902dfba894, 0xd47552f73eb5ecb9, 0x5ed7f7c22e52f17d, 0xb53f77abe2b920dc},
		"workers 1 batch 37": {0x8af714c138313e0b, 0x7aff5c0bb927d668, 0x34e16ab86979216c, 0x59b4876132594037},
		"workers 2 batch 16": {0x433cd3dee6b90870, 0x4819897df5ccdcae, 0x5a7199a139e9f3b3, 0x7aeca391a47a2f5c},
		"workers 2 batch 37": {0x8f6ff966ceb4607f, 0x73256482440095c1, 0xa4ec1375e09ea51c, 0x2b71e09b030a54ab},
	}
	defer tensor.SetParallelism(tensor.Parallelism())
	for _, workers := range []int{1, 2} {
		for _, batch := range []int{16, 37} {
			tensor.SetParallelism(workers)
			key := fmt.Sprintf("workers %d batch %d", workers, batch)
			rng := rand.New(rand.NewSource(39))
			bb, err := models.BuildMobileNet(rng, models.MobileNetEdge())
			if err != nil {
				t.Fatal(err)
			}
			if got := trainedHashes(t, warmedMEANetA(t, rng, bb), batch); got != want[key] {
				t.Errorf("%s: main/adaptive/extension/extexit hashes %#x, want %#x", key, got, want[key])
			}
		}
	}
}

// TestTrainingBesideEvalForwardsBitwise trains one MEANet while four
// goroutines run eval forwards on another, as a device adapting a clone
// while it serves does. Both draw conv workspaces from the same pool, so
// under -race this proves the train path's pooled scratch is never shared
// while in use, and both results must equal their serial runs bit for bit.
func TestTrainingBesideEvalForwardsBitwise(t *testing.T) {
	wantTrained := trainStepHashes(t, 16)
	serving := forwardMEANet(t)
	sizes := []int{1, 4, 16, 37}
	hashes := func(n int) [3]uint64 {
		out := blockOutputs(serving, forwardInput(n))
		return [3]uint64{hashBits(out[0]), hashBits(out[1]), hashBits(out[2])}
	}
	want := make([][3]uint64, len(sizes))
	for i, n := range sizes {
		want[i] = hashes(n)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (g + r) % len(sizes)
				if got := hashes(sizes[i]); got != want[i] {
					t.Errorf("goroutine %d batch %d: hashes %#x, serial %#x", g, sizes[i], got, want[i])
					return
				}
			}
		}(g)
	}
	got := trainStepHashes(t, 16)
	close(stop)
	wg.Wait()
	if got != wantTrained {
		t.Errorf("trained beside eval forwards: hashes %#x, serial %#x", got, wantTrained)
	}
}
