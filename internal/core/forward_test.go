package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/tensor"
)

// forwardBatches are the eval batch sizes the forward tests run: a lone
// image, sizes on both sides of the 4-row GEMM panel, the serving batch, and
// a prime that leaves a ragged final conv tile at every layer of a 16x16
// input (the stem's tile holds exactly 37 images, group 1's 14).
var forwardBatches = []int{1, 3, 4, 16, 37}

// forwardMEANet builds a seeded MEANet-A over the edge C100 backbone with an
// extension exit attached, and gives every BatchNorm non-trivial running
// statistics by a few train-mode forwards.
func forwardMEANet(t testing.TB) *MEANet {
	t.Helper()
	rng := rand.New(rand.NewSource(28))
	bb, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildMEANetA(rng, bb, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	m.ExtExit = models.NewExit(rng, "golden.extexit", m.ExtOutChannels(), 10)
	for i := 0; i < 3; i++ {
		x := tensor.Randn(rng, 1, 8, 3, 16, 16)
		feat := m.Main.Forward(x, true)
		m.Extension.Forward(m.combined(feat, m.Adaptive.Forward(x, true)), true)
	}
	return m
}

// forwardInput is the seeded NCHW input of an n-image batch.
func forwardInput(n int) *tensor.Tensor {
	return tensor.Randn(rand.New(rand.NewSource(int64(1000+n))), 1, n, 3, 16, 16)
}

// blockOutputs runs the eval forward the edge runs and returns the main-block,
// adaptive-block and extension-block outputs.
func blockOutputs(m *MEANet, x *tensor.Tensor) [3]*tensor.Tensor {
	feat := m.Main.Forward(x, false)
	f2 := m.Adaptive.Forward(x, false)
	return [3]*tensor.Tensor{feat, f2, m.Extension.Forward(m.combined(feat, f2), false)}
}

func hashBits(t *tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range t.Data() {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestEvalForwardGolden pins the eval forward bit for bit: the literals were
// taken from the per-image convolution with freshly allocated BN/ReLU/add
// outputs, so any reordering of a float operation — in the GEMM, the conv
// tiling or the in-place eval ops — changes a hash.
func TestEvalForwardGolden(t *testing.T) {
	want := map[int][3]uint64{
		1:  {0x53b49afd14223187, 0x8020996a3c281b78, 0xd4371df6133d6d9e},
		3:  {0x2491dad203e56dc9, 0xd18be37bd0621ff1, 0x3eb4c477fa168b71},
		4:  {0x9d7f4b8c6f914f09, 0x5b8762c40d8a4977, 0xeb3d1bd33f26ffa7},
		16: {0xccb55adf58b3721a, 0xd37f7aab30876c34, 0x45125f2876545e10},
		37: {0x5ceb69459e9ae9c7, 0x0df85496a34bc87b, 0x1fe993d34a8afae5},
	}
	m := forwardMEANet(t)
	for _, n := range forwardBatches {
		out := blockOutputs(m, forwardInput(n))
		got := [3]uint64{hashBits(out[0]), hashBits(out[1]), hashBits(out[2])}
		if got != want[n] {
			t.Errorf("batch %d: main/adaptive/extension hashes %#x, want %#x", n, got, want[n])
		}
	}
}

// TestMainFeaturesSurviveLaterForwards pins that feat, which the main exit,
// the combine step and features-mode offload all read, is left intact by the
// forwards that consume it.
func TestMainFeaturesSurviveLaterForwards(t *testing.T) {
	m := forwardMEANet(t)
	x := forwardInput(16)
	feat, _ := m.MainForward(x, false)
	before := feat.Clone()
	check := func(after string) {
		t.Helper()
		for i, v := range feat.Data() {
			if math.Float32bits(v) != math.Float32bits(before.Data()[i]) {
				t.Fatalf("feat element %d changed after %s: %x became %x",
					i, after, math.Float32bits(before.Data()[i]), math.Float32bits(v))
			}
		}
	}
	m.MainExit.Forward(feat, false)
	check("MainExit")
	if _, err := m.ExtForward(x, feat, false); err != nil {
		t.Fatal(err)
	}
	check("ExtForward")
}

// TestSharedMEANetConcurrentEvalBitwise runs eval forwards from 8 goroutines
// on one shared MEANet — what the fleet harness and a multi-connection cloud
// do — and requires each to match the serial result bit for bit. Under -race
// it also proves the eval path keeps no shared scratch state.
func TestSharedMEANetConcurrentEvalBitwise(t *testing.T) {
	m := forwardMEANet(t)
	sizes := []int{1, 4, 16, 37}
	want := make([][3]uint64, len(sizes))
	for i, n := range sizes {
		out := blockOutputs(m, forwardInput(n))
		want[i] = [3]uint64{hashBits(out[0]), hashBits(out[1]), hashBits(out[2])}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < len(sizes); r++ {
				i := (g + r) % len(sizes)
				out := blockOutputs(m, forwardInput(sizes[i]))
				got := [3]uint64{hashBits(out[0]), hashBits(out[1]), hashBits(out[2])}
				if got != want[i] {
					t.Errorf("goroutine %d batch %d: hashes %#x, serial %#x", g, sizes[i], got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
