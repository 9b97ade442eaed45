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

// TestEdgeForwardAllocCeiling pins what one eval forward of the edge network
// allocates per image: the main block and its exit, then the adaptive and
// extension blocks and the extension exit, over a 16-image batch of the
// benchmark's 3x12x12 inputs with two kernel workers. Beyond the layers'
// outputs the forward allocates only small per-fork bookkeeping: conv
// workspaces and GEMM panels are pooled, and eval BN, ReLU and the residual
// add run in place on tensors their own composite produced. The ceilings
// sit 25 % above the measured 36.5 kB and 49.2 allocations per image; the
// per-image im2col/GEMM with allocated BN/ReLU/add outputs measured 825.5 kB
// and 349.6 allocations. The race detector's instrumentation allocates, so
// the file is excluded under -race.
func TestEdgeForwardAllocCeiling(t *testing.T) {
	const (
		batch       = 16
		windows     = 5
		reps        = 10
		maxKBPerImg = 45.6
		maxAllocs   = 61.5
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
	forward() // fill the pools
	// A GC empties the pools, and the refill is charged to whichever window
	// it lands in, so take the quietest of several windows.
	kb, allocs := math.Inf(1), math.Inf(1)
	for w := 0; w < windows; w++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < reps; i++ {
			forward()
		}
		runtime.ReadMemStats(&m1)
		images := float64(reps * batch)
		kb = min(kb, float64(m1.TotalAlloc-m0.TotalAlloc)/1e3/images)
		allocs = min(allocs, float64(m1.Mallocs-m0.Mallocs)/images)
	}
	t.Logf("eval forward: %.1f kB and %.1f allocations per image", kb, allocs)
	if kb > maxKBPerImg {
		t.Errorf("eval forward allocates %.1f kB per image, ceiling %.1f", kb, maxKBPerImg)
	}
	if allocs > maxAllocs {
		t.Errorf("eval forward makes %.1f allocations per image, ceiling %.1f", allocs, maxAllocs)
	}
}
