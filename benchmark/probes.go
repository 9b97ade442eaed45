package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// Direct timing probes: per-layer numbers taken from outside by timing calls
// into each module's public functions. Each workload runs the probes of the
// layers on its own path; the rest of its per-layer metrics stay 0.

func runProbes(name string, sys *system, a *armed, quick bool, res *result) error {
	p := prober{sys: sys, res: res, div: 1}
	if quick {
		p.div = 10 // -smoke: exercise every probe, measure nothing
	}
	switch name {
	case "edge-only":
		p.matMul()
		p.forwardReplay()
		return p.core()
	case "offload-wan":
		p.forwardReplay()
		p.protocol(a.probeX)
		return p.core()
	case "cloud-fanin", "replica-fanout":
		p.protocol(a.probeX)
	case "chain-relay":
		p.protocol(a.probeX)
		return p.profile()
	case "train-edge":
		p.matMul()
		return p.trainStep()
	}
	return nil
}

// prober runs the probes of one workload's traced pass.
type prober struct {
	sys *system
	res *result
	div int // repetition divisor
}

// reps scales a probe's repetition count, keeping at least two.
func (p prober) reps(n int) int { return max(n/p.div, 2) }

// allocDelta runs fn and returns the bytes and objects it allocated.
func allocDelta(fn func()) (bytes, objects uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
}

// matMul times tensor.MatMul at the main block's largest im2col GEMM:
// group 1's 3x3 convolution over 8 channels at 12x12, W[8, 8*3*3] x
// cols[8*3*3, 12*12], once per image of a 16-image batch.
func (p prober) matMul() {
	const m, k, n, perBatch = 8, 72, 144, 16
	res, batches := p.res, p.reps(400)
	w, cols := newTensor(m, k), newTensor(k, n)
	for i := range w.Data() {
		w.Data()[i] = float32(i%7) - 3
	}
	for i := range cols.Data() {
		cols.Data()[i] = float32(i%5) - 2
	}
	matMul(w, cols) // warm
	var elapsed time.Duration
	bytes, _ := allocDelta(func() {
		start := time.Now()
		for i := 0; i < perBatch*batches; i++ {
			matMul(w, cols)
		}
		elapsed = time.Since(start)
	})
	calls := float64(perBatch * batches)
	res.set("tensor.matmul_gflops", 2*m*k*n*calls/elapsed.Seconds()/1e9)
	res.set("tensor.matmul_alloc_kb_per_call", float64(bytes)/1e3/calls)
}

// layerKind names a chain unit by its Go type: *nn.Conv2D → "conv2d".
func layerKind(l Layer) string {
	t := fmt.Sprintf("%T", l)
	return strings.ToLower(t[strings.LastIndexByte(t, '.')+1:])
}

// replayChain runs chain unit by unit on x (eval mode) reps times and returns
// the summed milliseconds per unit.
func replayChain(chain []Layer, x *Tensor, reps int) []float64 {
	ms := make([]float64, len(chain))
	for r := 0; r < reps; r++ {
		h := x
		for i, u := range chain {
			start := time.Now()
			h = u.Forward(h, false)
			ms[i] += float64(time.Since(start)) / 1e6
		}
	}
	return ms
}

// forwardReplay replays FlattenChain(m.Main, m.MainExit) at batch 16 and
// reports milliseconds per batch summed per Go type, plus what the replay
// allocates per image.
func (p prober) forwardReplay() {
	sys, res, reps := p.sys, p.res, p.reps(40)
	x := sys.batches(runtimeBatch)[0].x
	replayChain(sys.mainChain, x, 2) // warm
	var ms []float64
	bytes, objects := allocDelta(func() { ms = replayChain(sys.mainChain, x, reps) })
	perKind := map[string]float64{}
	for i, u := range sys.mainChain {
		perKind[layerKind(u)] += ms[i] / float64(reps)
	}
	for _, lm := range layerMetrics {
		if kind, ok := strings.CutPrefix(lm.name, "nn.forward_ms."); ok {
			res.set(lm.name, perKind[kind])
		}
	}
	images := float64(reps * runtimeBatch)
	res.set("nn.forward_alloc_kb_per_image", float64(bytes)/1e3/images)
	res.set("nn.forward_allocs_per_image", float64(objects)/images)
}

// core times MainForward, ExtForward on the hard sub-batch, and
// InferBatchedRep (no cloud) over one cycle of the stream, and alternates
// Runtime.Classify against InferBatchedRep on the same batches.
func (p prober) core() error {
	sys, res := p.sys, p.res
	m := sys.m
	rt, err := newRuntime(m, Policy{}, nil, nil)
	if err != nil {
		return err
	}
	bs := sys.batches(runtimeBatch)
	bs = bs[:p.reps(len(bs))]
	var mainNs, extNs, inferNs, classifyNs time.Duration
	for k := range bs {
		b := &bs[k]
		start := time.Now()
		m.MainForward(b.x, false)
		mainNs += time.Since(start)

		var hard []int
		for _, ti := range b.idx {
			if sys.edgeRef[ti].Exit == exitExtension {
				hard = append(hard, ti)
			}
		}
		if len(hard) > 0 {
			subX, _ := sys.test.Batch(hard)
			subF := m.Main.Forward(subX, false)
			start = time.Now()
			if _, err := m.ExtForward(subX, subF, false); err != nil {
				return err
			}
			extNs += time.Since(start)
		}

		// Alternate which of the pair runs first so drift cancels.
		for turn := 0; turn < 2; turn++ {
			if (k+turn)%2 == 0 {
				start = time.Now()
				if _, err := m.InferBatchedRep(b.x, Policy{}, repRaw, nil); err != nil {
					return err
				}
				inferNs += time.Since(start)
			} else {
				start = time.Now()
				if _, err := rt.Classify(b.x); err != nil {
					return err
				}
				classifyNs += time.Since(start)
			}
		}
	}
	n := float64(len(bs))
	res.set("core.main_forward_ms_per_batch", float64(mainNs)/1e6/n)
	res.set("core.ext_forward_ms_per_batch", float64(extNs)/1e6/n)
	res.set("core.infer_self_ms_per_batch", float64(inferNs-mainNs-extNs)/1e6/n)
	res.set("edge.runtime_self_us_per_batch", float64(classifyNs-inferNs)/1e3/n)
	return nil
}

// protocol round-trips x — a tensor this workload puts on the wire —
// through EncodeTensor/DecodeTensor.
func (p prober) protocol(x *Tensor) {
	res, reps := p.res, p.reps(300)
	payload := encodeTensor(x)
	var encNs, decNs time.Duration
	var derr error
	bytes, objects := allocDelta(func() {
		for i := 0; i < reps; i++ {
			start := time.Now()
			p := encodeTensor(x)
			mid := time.Now()
			if _, err := decodeTensor(p); err != nil {
				derr = err
			}
			encNs += mid.Sub(start)
			decNs += time.Since(mid)
		}
	})
	if derr != nil {
		res.fail(fmt.Errorf("protocol probe: decode of an encoded tensor: %w", derr))
	}
	wire := float64(frameWireSize(len(payload)))
	n := float64(reps)
	res.set("protocol.encode_us_per_batch", float64(encNs)/1e3/n)
	res.set("protocol.decode_us_per_batch", float64(decNs)/1e3/n)
	res.set("protocol.roundtrip_alloc_kb", float64(bytes)/1e3/n)
	res.set("protocol.roundtrip_allocs", float64(objects)/n)
	res.set("protocol.wire_bytes_per_element", wire/float64(x.Numel()))
	res.set("protocol.frame_overhead_bytes", wire-4*float64(x.Numel()))
}

// profile compares the placement solver's cost model with a replay of
// the serving chain: the largest gap, in percentage points, between a unit's
// share of the chain's MACs and its share of the measured forward time.
func (p prober) profile() error {
	sys, res := p.sys, p.res
	costs, _, err := chainCosts(sys.chain, inShape)
	if err != nil {
		return err
	}
	x := sys.batches(chainBatch)[0].x
	replayChain(sys.chain, x, 2) // warm
	ms := replayChain(sys.chain, x, p.reps(100))
	var macs, total float64
	for i := range costs {
		macs += float64(costs[i].MACs)
		total += ms[i]
	}
	var worst float64
	for i := range costs {
		gap := 100 * (float64(costs[i].MACs)/macs - ms[i]/total)
		worst = max(worst, gap, -gap)
	}
	res.set("profile.mac_share_err_pp", worst)

	var solves []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := placePipeline(sys.chain, inShape, chainDevices, chainLinks); err != nil {
			return err
		}
		solves = append(solves, float64(time.Since(start))/1e6)
	}
	res.set("profile.place_pipeline_ms", median(solves))
	return nil
}

// trainStep re-enacts one batch-32 step of TrainEdgeBlocks on a fresh
// clone's edge blocks: train-mode forward, backward, SGD step.
func (p prober) trainStep() error {
	sys, res, reps := p.sys, p.res, p.reps(10)
	m, err := sys.cloneMEANet()
	if err != nil {
		return err
	}
	var idx, labels []int
	for i, y := range sys.train.Y {
		if m.Dict.IsHard(y) && len(idx) < trainBatch {
			idx = append(idx, i)
			labels = append(labels, m.Dict.ToHard[y])
		}
	}
	x, _ := sys.train.Batch(idx)
	feat := m.Main.Forward(x, false) // frozen main: eval mode, as TrainEdgeBlocks runs it
	params := m.EdgeParams()
	sgd := newSGD(0.01, 0.9, 5e-4)
	var fwd, bwd, step time.Duration
	for r := 0; r < reps; r++ {
		zeroGrads(params)
		t0 := time.Now()
		logits, err := m.ExtForward(x, feat, true)
		if err != nil {
			return err
		}
		t1 := time.Now()
		_, dy := softmaxCrossEntropy(logits, labels)
		m.Adaptive.Backward(m.Extension.Backward(m.ExtExit.Backward(dy)))
		t2 := time.Now()
		sgd.Step(params)
		fwd, bwd, step = fwd+t1.Sub(t0), bwd+t2.Sub(t1), step+time.Since(t2)
	}
	n := float64(reps)
	res.set("nn.train_forward_ms_per_batch", float64(fwd)/1e6/n)
	res.set("nn.train_backward_ms_per_batch", float64(bwd)/1e6/n)
	res.set("opt.sgd_step_ms_per_batch", float64(step)/1e6/n)
	return nil
}
