//go:build !race

package meanet_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/tensor"
)

// quietestPerImage runs run ten times in each of five windows and returns
// the fewest kB and allocations per image of a batch-image call that any
// window measured. A refill of scratch is charged to whichever window it
// lands in, so the quietest window is the steady state.
func quietestPerImage(batch int, run func()) (kb, allocs float64) {
	const windows, reps = 5, 10
	kb, allocs = math.Inf(1), math.Inf(1)
	for w := 0; w < windows; w++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < reps; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		images := float64(reps * batch)
		kb = min(kb, float64(m1.TotalAlloc-m0.TotalAlloc)/1e3/images)
		allocs = min(allocs, float64(m1.Mallocs-m0.Mallocs)/images)
	}
	return kb, allocs
}

// TestEdgeForwardAllocCeiling pins what one eval forward of the edge network
// allocates per image: the main block and its exit, then the adaptive and
// extension blocks and the extension exit, over a 16-image batch of the
// benchmark's 3x12x12 inputs with two kernel workers. Beyond the layers'
// outputs the forward allocates only the call-site closures of its forks and
// a goroutine and WaitGroup for each fork that takes a helper: conv
// workspaces and GEMM pack buffers come from shared free lists, the conv
// packs its unfold straight from the images, and eval BN, ReLU and the
// residual add run in place on tensors their own composite produced. The kB
// ceiling sits 25 % above the 35.6 kB measured when it was set (35.4 now),
// the allocation ceiling 25 % above the measured 9.2 per image; with a
// goroutine for every chunk of every fork it measured 13.7, with one fork
// per k block over a formed unfold 36.5 kB and 49.2, and with the per-image
// im2col/GEMM and allocated BN/ReLU/add outputs 825.5 kB and 349.6. The race
// detector's instrumentation allocates, so the file is excluded under -race.
func TestEdgeForwardAllocCeiling(t *testing.T) {
	const (
		batch       = 16
		maxKBPerImg = 44.5
		maxAllocs   = 11.5
	)
	// Each fork allocates a little, so pin the worker count the ceilings
	// were measured at.
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(2)
	rng := rand.New(rand.NewSource(4))
	backbone, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	m.ExtExit = models.NewExit(rng, "alloc.extexit", m.ExtOutChannels(), 10)
	x := tensor.Randn(rng, 1, batch, 3, 12, 12)
	forward := func() {
		feat, _ := m.MainForward(x, false)
		if _, err := m.ExtForward(x, feat, false); err != nil {
			t.Fatal(err)
		}
	}
	forward() // fill the free lists
	kb, allocs := quietestPerImage(batch, forward)
	t.Logf("eval forward: %.1f kB and %.1f allocations per image", kb, allocs)
	if kb > maxKBPerImg {
		t.Errorf("eval forward allocates %.1f kB per image, ceiling %.1f", kb, maxKBPerImg)
	}
	if allocs > maxAllocs {
		t.Errorf("eval forward makes %.1f allocations per image, ceiling %.1f", allocs, maxAllocs)
	}
}

// TestEdgeTrainStepAllocCeiling pins what one step of Algorithm 1's edge
// training allocates per image: edgeTrainStep over a 16-image batch with two
// kernel workers. Beyond the layers' outputs, caches and gradients the step
// allocates only small per-fork bookkeeping: the train-mode conv runs on the
// forward tiles and caches its input rather than its unfold, and its
// backward re-unfolds one image at a time into a shared per-worker
// workspace, whose per-image products find the helper taken and run inline.
// The kB ceiling sits 25 % above the 109.6 kB measured when it was set
// (108.1 now), the allocation ceiling 25 % above the measured 36.3 per
// image; with a goroutine for every chunk of every fork, nested ones
// included, it measured 92.3, with one fork per k block of every product
// 112.0 kB and 157.2, and with a batch-sized unfold cache and fresh
// per-image product tensors 311.9 kB and 377.2.
func TestEdgeTrainStepAllocCeiling(t *testing.T) {
	const (
		batch       = 16
		maxKBPerImg = 137.0
		maxAllocs   = 45.4
	)
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(2)
	step := edgeTrainStep(t, batch)
	step() // fill the free lists and the optimizer's velocity
	kb, allocs := quietestPerImage(batch, step)
	t.Logf("edge train step: %.1f kB and %.1f allocations per image", kb, allocs)
	if kb > maxKBPerImg {
		t.Errorf("edge train step allocates %.1f kB per image, ceiling %.1f", kb, maxKBPerImg)
	}
	if allocs > maxAllocs {
		t.Errorf("edge train step makes %.1f allocations per image, ceiling %.1f", allocs, maxAllocs)
	}
}
