//go:build !race

package meanet_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
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
// benchmark's 3x12x12 inputs with two kernel workers. Beyond the outputs
// that leave a module (the main features and the exits' logits, pooled
// storage that escapes) the forward allocates only the call-site closures
// of its forks
// and a goroutine and WaitGroup for each fork that takes a helper: layer
// outputs a composite consumed (an exit's pooled features too) go back to
// the activation pool and come out of it again, and so do the combined input and the extension output, which
// ExtForward hands back once the next block has read them; conv workspaces
// and GEMM pack buffers come from shared free lists, the conv packs its
// unfold straight from the images, and eval BN, ReLU, the residual add and
// the adaptive sum run in place on tensors their own composite produced.
// The kB ceiling sits 25 % above the 3.2 kB measured when it was set, the
// allocation ceiling 25 % above the measured 8.2 per image; with the exits'
// pooled features and logits allocated on the heap it measured 3.3 kB and
// 8.3, with the combined input and the extension output left to the
// garbage collector it
// measured 7.0 kB and 8.4, with every conv output a fresh allocation
// 35.4 kB, with a goroutine for every chunk of every fork 13.7
// allocations, with one fork per k block over a formed unfold 36.5 kB and
// 49.2, and with the per-image im2col/GEMM and allocated BN/ReLU/add
// outputs 825.5 kB and 349.6. The race detector's
// instrumentation allocates, so the file is excluded under -race.
func TestEdgeForwardAllocCeiling(t *testing.T) {
	const (
		batch       = 16
		maxKBPerImg = 4.0
		maxAllocs   = 10.3
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

// TestInferBatchedRepAllocCeiling pins what one call of Algorithm 2
// allocates per image on the edge-only batch shape: InferBatchedRep without
// a cloud over mixedBatch's 16 images, 8 of them on the extension path, with
// two kernel workers. Beyond the decisions, the main exit's and the
// extension exit's softmax, the chunks' and the
// hard instances' bookkeeping and the forks' closures, the call allocates
// nothing: the chunks' main features go back to the activation pool once
// phase 3 has read them, phase 3 gathers its raw images and features into
// pooled storage and hands it back after the extension path, and that path
// hands back its combined input and extension output, each exit hands back
// its pooled features once its Linear has read them, and the call hands
// back each exit's logits once their softmax is taken. The kB ceiling sits
// 25 % above the 0.98 kB measured when it was set (1.17 with the exits'
// features and logits on the heap), the allocation ceiling 25 %
// above the 13.9 per image measured with them; with every tensor that
// crossed a module boundary left to the garbage collector it measured
// 7.30 kB and 14.2.
func TestInferBatchedRepAllocCeiling(t *testing.T) {
	const (
		batch       = 16
		maxKBPerImg = 1.23
		maxAllocs   = 17.4
	)
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(2)
	m, x, _ := mixedBatch(t)
	infer := func() {
		if _, err := m.InferBatchedRep(x, core.Policy{UseCloud: false}, protocol.RepRaw, nil); err != nil {
			t.Fatal(err)
		}
	}
	infer() // fill the free lists
	kb, allocs := quietestPerImage(batch, infer)
	t.Logf("Algorithm 2 batch: %.2f kB and %.1f allocations per image", kb, allocs)
	if kb > maxKBPerImg {
		t.Errorf("Algorithm 2 batch allocates %.2f kB per image, ceiling %.2f", kb, maxKBPerImg)
	}
	if allocs > maxAllocs {
		t.Errorf("Algorithm 2 batch makes %.1f allocations per image, ceiling %.1f", allocs, maxAllocs)
	}
}

// TestEdgeTrainStepAllocCeiling pins what one step of Algorithm 1's edge
// training allocates per image: edgeTrainStep, core's EdgeTrainStep between
// the gradients' zeroing and the SGD update, over a 16-image batch with two
// kernel workers. Beyond the exits' logits and loss gradient, the
// rectifier masks and small per-fork bookkeeping, the step
// allocates nothing: the frozen main block runs in eval mode, so its
// consumed conv outputs are recycled; train-mode BN, ReLU and the residual
// add run in place on the conv outputs, forward and backward; the conv
// outputs, BN's normalized inputs, the exits' pooled features and every
// layer's input gradient come from the activation pool and go back to it
// once the step's Backward is
// done with them, and so does what crossed a module boundary (the main
// features, the combined input, the extension output and the gradients the
// extension exit and the extension block returned), which EdgeTrainStep
// hands back after Backward; the adaptive block's raw-image gradient is
// never formed (BackwardParams); the train-mode conv caches its input
// rather than its unfold, and its backward packs each image's unfold
// straight from that input and forms the input gradient a tile of images
// at a time, in a shared per-worker workspace, whose products find the
// helper taken and run inline. The kB ceiling sits 25 % above the 2.2 kB
// measured when it was set, the allocation ceiling 25 % above the measured
// 24.5 per image; with the exits' features, logits and input gradients on
// the heap it measured 3.6 kB, with a per-image Im2Col and Wᵀ·dy product and the
// raw-image gradient formed and dropped it measured 3.8 kB and 29.8, with
// what crossed a module boundary left to the garbage collector 15.0 kB and
// 30.1, with the rectifier masks made afresh each step 17.5 kB and 30.4,
// with every train-mode layer
// allocating its output, caches and gradient 86.6 kB and 34.9
// allocations, with every eval conv output a fresh allocation 108.1 kB,
// with a goroutine for every chunk of every fork, nested ones included,
// 92.3 allocations, with one fork per k block of every product 112.0 kB and
// 157.2, and with a batch-sized unfold cache and fresh per-image product
// tensors 311.9 kB and 377.2.
func TestEdgeTrainStepAllocCeiling(t *testing.T) {
	const (
		batch       = 16
		maxKBPerImg = 2.8
		maxAllocs   = 30.6
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

// TestStageSpanAllocCeiling pins what one relay hop's eval forward allocates
// per image: a span of deploy.ServingChain's units over the edge network and
// a features tail, run as one nn.Sequential the way cloud.Server.routeSpan
// runs a hop's span, with two kernel workers. The span's input is the
// decoded activation and its output goes on the wire, so both are the
// caller's; in between, BN and ReLU run in place on what the span owns and
// consumed outputs go back to the activation pool. Units [3, 9) over 16
// images are the main block's two residual groups, then the tail's stem
// conv, BN and ReLU and its residual block: their kB ceiling sits 25 %
// above the 4.9 kB measured when it was set, the allocation ceiling 25 %
// above the measured 5.7 per image; running the units one Forward at a
// time with every conv output a fresh allocation, as hops did before,
// measured 38.7 kB and 6.7. Units [6, 11) over 4 images are chain-relay's
// second hop at the solver's cuts [5 6]: the tail's stem BN and ReLU, its
// residual block and its GAP+FC exit, a span that starts at a norm. Its
// ceilings sit 25 % above the 0.66 kB and 11.2 allocations per image
// measured when they were set; with ownership reported only by convs and
// composites, so that the norm's output escaped, the ReLU after it copied
// to the heap and the exit allocated its features and logits, it measured
// 5.54 kB and 12.5.
func TestStageSpanAllocCeiling(t *testing.T) {
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
	cls, err := deploy.BuildTailNet(rng, m.MainOutChannels(), 20)
	if err != nil {
		t.Fatal(err)
	}
	chain := deploy.ServingChain(m, &cloud.Tail{Body: cls.Backbone, Exit: cls.Exit})
	for _, c := range []struct {
		cut0, cut1, batch      int
		maxKBPerImg, maxAllocs float64
	}{
		{3, 9, 16, 6.1, 7.1},
		{6, 11, 4, 0.83, 14.0},
	} {
		x := nn.NewSequential("front", chain[:c.cut0]...).Forward(tensor.Randn(rng, 1, c.batch, 3, 12, 12), false)
		span := func() {
			nn.NewSequential("span", chain[c.cut0:c.cut1]...).Forward(x, false)
		}
		span() // fill the free lists
		kb, allocs := quietestPerImage(c.batch, span)
		label := fmt.Sprintf("hop span [%d,%d) at batch %d", c.cut0, c.cut1, c.batch)
		t.Logf("%s: %.2f kB and %.1f allocations per image", label, kb, allocs)
		if kb > c.maxKBPerImg {
			t.Errorf("%s allocates %.2f kB per image, ceiling %.2f", label, kb, c.maxKBPerImg)
		}
		if allocs > c.maxAllocs {
			t.Errorf("%s makes %.1f allocations per image, ceiling %.1f", label, allocs, c.maxAllocs)
		}
	}
}

// TestPartitionedForwardAllocCeiling pins what the cloud's raw forward of a
// partitioned deployment allocates per image: cloud.Partitioned over the
// edge main block and a deploy.BuildTailNet features tail, the model
// offload-wan's server answers raw uploads with, over a 16-image batch with
// two kernel workers. The logits leave; the main block's features and the
// tail's stem and residual outputs and its exit's pooled features go back
// to the activation pool once the next step has consumed them, as every
// conv output inside them does. The kB ceiling sits 25 % above the 0.46 kB
// measured when it was set, the allocation ceiling 25 % above the measured
// 6.9 per image; with the exit's features and logits on the heap it
// measured 0.59 kB, and forwarding the
// main block, the tail body and the tail exit one Forward at a time, which
// dropped each of their outputs, measured 10.3 kB and 7.2.
func TestPartitionedForwardAllocCeiling(t *testing.T) {
	const (
		batch       = 16
		maxKBPerImg = 0.58
		maxAllocs   = 8.6
	)
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(2)
	model, x := partitionedCloud(t, batch)
	forward := func() { model.Logits(x, false) }
	forward() // fill the free lists
	kb, allocs := quietestPerImage(batch, forward)
	t.Logf("partitioned forward: %.2f kB and %.2f allocations per image", kb, allocs)
	if kb > maxKBPerImg {
		t.Errorf("partitioned forward allocates %.2f kB per image, ceiling %.2f", kb, maxKBPerImg)
	}
	if allocs > maxAllocs {
		t.Errorf("partitioned forward makes %.1f allocations per image, ceiling %.1f", allocs, maxAllocs)
	}
}

// TestServedRoundTripAllocCeiling pins what one served round trip allocates,
// process-wide, client and server together: a features-mode TCPClient.Infer
// of one main-block feature tensor over loopback into a batching server whose
// tail is an Identity body and the main exit, the cloud-fanin shape. The
// client encodes the request into a pooled buffer, both ends frame it and
// read it into pooled buffers and release them once decoded, and the server
// decodes the tensor and stacks the collector's batch into pooled floats.
// What is left is the frame headers, the reply (its results, frame and
// payload, all under the wire pool's floor), the timers of the collector
// and the client's wait, the closures and the goroutine of the collector
// lane. The kB ceiling sits 25 % above the 1.82 kB measured when it was
// set, the allocation ceiling 25 % above the measured 35.0; with the
// tail exit's features and logits on the heap it measured 1.88 kB and 36.0,
// and with a fresh buffer
// at each of the five wire copies of the payload it measured 14.6 kB and
// 43.0.
func TestServedRoundTripAllocCeiling(t *testing.T) {
	const (
		maxKBPerReq = 2.3
		maxAllocs   = 43.8
	)
	rng := rand.New(rand.NewSource(4))
	backbone, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	tail := &cloud.Tail{Body: nn.Identity{}, Exit: m.MainExit}
	srv, err := cloud.NewServer(cloud.Partitioned(m.Main, tail), tail,
		cloud.WithBatching(cloud.BatchConfig{MaxBatch: 8, Linger: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := edge.DialCloud(srv.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	feat := m.Main.Forward(tensor.Randn(rng, 1, 1, 3, 12, 12), false).Sample(0)
	req := protocol.InferRequest{Rep: protocol.RepFeatures, Tensor: feat}
	infer := func() {
		if _, err := client.Infer(req); err != nil {
			t.Fatal(err)
		}
	}
	infer() // fill the pools
	kb, allocs := quietestPerImage(1, infer)
	t.Logf("served round trip: %.2f kB and %.1f allocations per request", kb, allocs)
	if kb > maxKBPerReq {
		t.Errorf("served round trip allocates %.2f kB per request, ceiling %.2f", kb, maxKBPerReq)
	}
	if allocs > maxAllocs {
		t.Errorf("served round trip makes %.1f allocations per request, ceiling %.1f", allocs, maxAllocs)
	}
}
