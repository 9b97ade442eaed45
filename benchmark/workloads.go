package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"
)

// workload is one traffic mix. All six are closed loop: every caller in this
// system blocks on its reply, exactly as edge.Runtime.Classify does.
type workload struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text
	// arm stands the workload up on sys. tr == nil arms the plain system;
	// otherwise every seam the public API exposes gets the tracer's
	// decorator. nproc sizes connections and callers.
	arm func(sys *system, tr *tracer, nproc int) (*armed, error)
}

var workloads = []workload{
	{"edge-only", "beta=0: all time is tensor/nn/core forward on the edge; kernel and allocation work shows here, transport changes must not", armEdgeOnly},
	{"offload-wan", "the paper's operating point: beta=0.25 of 16-image batches go raw up a 10ms/2Mbps uplink, so wire format and representation show here", armOffloadWAN},
	{"cloud-fanin", "many pipelined single-feature requests into one micro-batching server with a GAP+FC tail: framing, demux, dispatch and batcher dominate", armCloudFanin},
	{"replica-fanout", "one MultiClient over three sleep-modelled replicas (2/2/12 ms): measures routing quality and router overhead, not the host", armReplicaFanout},
	{"chain-relay", "routed 3-stage chain at solver-placed cuts with real compute on every hop: the only path through stage.go, chain.go and relay frames", armChainRelay},
	{"train-edge", "Algorithm 1 steps 5-8 on a hard-class shard: train-mode forward, backward and SGD, so inference-only gains that cost training show as a regression", armTrainEdge},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// armed is a workload standing on a system, ready to take calls.
type armed struct {
	callers int
	call    callFunc
	// counters snapshots the cumulative books of every component.
	counters func() counters
	// books checks a window's counter delta against what was sent.
	books func(d counters, w *window) error
	close func()

	// What the traced pass needs to turn seam counters into layer metrics.
	uplink    Link      // the edge's shaped link (zero when unshaped)
	interlink Link      // chain-relay's hop1→hop2 link
	estimate  transport // whose LinkEstimate the linkest.* metrics check; nil = none
	hops      int       // chain-relay: cloud hops
	// clientCall: a call is nothing but one transport call (cloud-fanin), so
	// call minus wire time is the client's own time.
	clientCall bool
	probeX     *Tensor // a tensor this workload puts on the wire (protocol.* probes)
}

// counters are cumulative; a window's books are the difference of two.
type counters struct {
	uplinkBytes int64 // BytesSent of every edge-side client

	// edge.Runtime books (edge-only, offload-wan)
	n, exitMain, exitExt, exitCloud    int64
	cloudFailed, shedFallbacks, rawUps int64

	// chain client books
	chainInstances, chainFallbacks, chainFailures int64

	// replica router books
	replicaOffloads, stragglerOffloads, failovers int64

	// cloud servers (summed over every server of the workload)
	serverRequests, serverErrors, serverSheds int64
	served, relayed                           int64
	batchedRequests                           int64
}

func (a counters) sub(b counters) counters {
	return counters{
		uplinkBytes: a.uplinkBytes - b.uplinkBytes,
		n:           a.n - b.n, exitMain: a.exitMain - b.exitMain, exitExt: a.exitExt - b.exitExt, exitCloud: a.exitCloud - b.exitCloud,
		cloudFailed: a.cloudFailed - b.cloudFailed, shedFallbacks: a.shedFallbacks - b.shedFallbacks, rawUps: a.rawUps - b.rawUps,
		chainInstances: a.chainInstances - b.chainInstances, chainFallbacks: a.chainFallbacks - b.chainFallbacks, chainFailures: a.chainFailures - b.chainFailures,
		replicaOffloads: a.replicaOffloads - b.replicaOffloads, stragglerOffloads: a.stragglerOffloads - b.stragglerOffloads, failovers: a.failovers - b.failovers,
		serverRequests: a.serverRequests - b.serverRequests, serverErrors: a.serverErrors - b.serverErrors, serverSheds: a.serverSheds - b.serverSheds,
		served: a.served - b.served, relayed: a.relayed - b.relayed,
		batchedRequests: a.batchedRequests - b.batchedRequests,
	}
}

// degraded counts what the ISSUE's failed_frac counts besides errored calls:
// instances that fell back to the edge, batches that took the chain's direct
// fallback, and replica failovers.
func (c counters) degraded() int64 {
	return c.cloudFailed + c.shedFallbacks + c.chainFallbacks + c.chainFailures + c.failovers
}

// addServer folds one server's Stats into the counters.
func (c *counters) addServer(srv *CloudServer) {
	st := srv.Stats()
	c.serverRequests += int64(st.Requests)
	c.serverErrors += int64(st.Errors)
	c.serverSheds += int64(st.Sheds)
	c.served += int64(st.InstancesServed)
	c.relayed += int64(st.Relayed)
	c.batchedRequests += int64(st.BatchedRequests)
}

// addRuntime folds a runtime's Report into the counters.
func (c *counters) addRuntime(rt *Runtime) {
	rep := rt.Report()
	c.n += int64(rep.N)
	c.exitMain += int64(rep.Exits[exitMain])
	c.exitExt += int64(rep.Exits[exitExtension])
	c.exitCloud += int64(rep.Exits[exitCloud])
	c.cloudFailed += int64(rep.CloudFailures)
	c.shedFallbacks += int64(rep.ShedFallbacks)
	c.rawUps += int64(rep.RawUploads)
}

func booksErrorf(format string, args ...any) error {
	return fmt.Errorf("books: "+format, args...)
}

// serverBooks is the part every networked workload shares: no server errors,
// no sheds.
func serverBooks(d counters) error {
	if d.serverErrors != 0 {
		return booksErrorf("Server.Stats().Errors = %d, want 0", d.serverErrors)
	}
	if d.serverSheds != 0 {
		return booksErrorf("servers shed %d requests, want 0", d.serverSheds)
	}
	return nil
}

// listen starts a server on an ephemeral loopback port.
func listen(raw logitModel, tail *CloudTail, opts ...ServerOption) (*CloudServer, error) {
	srv, err := newCloudServer(raw, tail, opts...)
	if err != nil {
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return srv, nil
}

// dialConfig is the DialConfig for a connection over link. Untraced it is the
// product's own dial; traced, the conn seam (DialConfig.Redial) brackets the
// shaper: name sees writes as the client issues them, name+".wire" as the
// bytes reach the socket.
func dialConfig(addr string, link Link, tr *tracer, name string) DialConfig {
	if tr == nil {
		return DialConfig{Link: link}
	}
	return DialConfig{Redial: func() (net.Conn, error) {
		raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return tr.seam(shapeConn(tr.seam(raw, name+".wire"), link), name), nil
	}}
}

func dial(addr string, link Link, tr *tracer, name string) (featureOne, error) {
	return dialCloud(addr, dialConfig(addr, link, tr, name))
}

// closers tears down in reverse order of construction.
type closers []io.Closer

func (cs closers) close() {
	for i := len(cs) - 1; i >= 0; i-- {
		cs[i].Close()
	}
}

// labelHits counts predictions that match the stream's labels.
func (s *system) labelHits(idx []int, pred func(i int) int) float64 {
	hits := 0.0
	for i, ti := range idx {
		if pred(i) == s.test.Y[ti] {
			hits++
		}
	}
	return hits
}

// --- edge-only and offload-wan: one edge.Runtime, 16-image batches ---

const runtimeBatch = 16

// tracedMEANet is m with each block behind a timing decorator (the []nn.Layer
// seam: a MEANet's blocks are exported *nn.Sequential fields), so the serial
// sub-pass sees the forward compute INSIDE a Runtime.Classify call.
func tracedMEANet(m *MEANet, tr *tracer) *MEANet {
	if tr == nil {
		return m
	}
	tm := *m
	tm.Main = sequentialOf(tr.wrapLayer(m.Main, "core.main"))
	tm.MainExit = sequentialOf(tr.wrapLayer(m.MainExit, "core.main_exit"))
	tm.Adaptive = sequentialOf(tr.wrapLayer(m.Adaptive, "core.adaptive"))
	tm.Extension = sequentialOf(tr.wrapLayer(m.Extension, "core.extension"))
	tm.ExtExit = sequentialOf(tr.wrapLayer(m.ExtExit, "core.ext_exit"))
	return &tm
}

// runtimeCall classifies stream batches on rt and checks every decision:
// offloaded instances must carry the monolithic cloud forward's answer,
// everything else the edge-only Algorithm 2 reference.
func runtimeCall(sys *system, rt *Runtime, bs []batch, offload bool) callFunc {
	return func(seq int64) (int, float64, error) {
		b := &bs[seq%int64(len(bs))]
		ds, err := rt.Classify(b.x)
		if err != nil {
			return 0, 0, err
		}
		if len(ds) != len(b.idx) {
			return 0, 0, oracleErrorf("request %d: %d decisions for %d images", seq, len(ds), len(b.idx))
		}
		for i, ti := range b.idx {
			want := sys.edgeRef[ti]
			if offload && sys.offloads[ti] {
				want.Exit, want.Pred = exitCloud, sys.cloudPred[ti]
			}
			if ds[i].Pred != want.Pred || ds[i].Exit != want.Exit {
				return 0, 0, oracleErrorf("request %d image %d (test #%d): got pred %d at exit %s, want pred %d at exit %s",
					seq, i, ti, ds[i].Pred, ds[i].Exit, want.Pred, want.Exit)
			}
		}
		return len(ds), sys.labelHits(b.idx, func(i int) int { return ds[i].Pred }), nil
	}
}

// runtimeBooks balances an edge.Runtime window: every instance took exactly
// one exit, and β is exactly what the stream positions sent imply — a
// speed-up cannot come from routing fewer items up.
func runtimeBooks(sys *system, bs []batch, offload bool) func(d counters, w *window) error {
	return func(d counters, w *window) error {
		if d.n != w.items || d.exitMain+d.exitExt+d.exitCloud != d.n {
			return booksErrorf("main %d + extension %d + cloud %d != N %d (items %d)", d.exitMain, d.exitExt, d.exitCloud, d.n, w.items)
		}
		var wantCloud int64
		if offload {
			for s := w.seqFrom; s < w.seqTo; s++ {
				for _, ti := range bs[s%int64(len(bs))].idx {
					if sys.offloads[ti] {
						wantCloud++
					}
				}
			}
		}
		if d.exitCloud != wantCloud {
			return booksErrorf("beta: %d instances exited at the cloud, calibration implies %d of %d", d.exitCloud, wantCloud, d.n)
		}
		if d.cloudFailed != 0 || d.shedFallbacks != 0 {
			return booksErrorf("%d cloud failures, %d shed fallbacks, want 0", d.cloudFailed, d.shedFallbacks)
		}
		if d.rawUps != wantCloud || d.served != wantCloud {
			return booksErrorf("%d raw uploads, %d served by the cloud, want %d each", d.rawUps, d.served, wantCloud)
		}
		return serverBooks(d)
	}
}

func armEdgeOnly(sys *system, tr *tracer, nproc int) (*armed, error) {
	rt, err := newRuntime(tracedMEANet(sys.m, tr), Policy{UseCloud: false}, nil, nil)
	if err != nil {
		return nil, err
	}
	bs := sys.batches(runtimeBatch)
	return &armed{
		callers: 1,
		call:    runtimeCall(sys, rt, bs, false),
		counters: func() counters {
			var c counters
			c.addRuntime(rt)
			return c
		},
		books: runtimeBooks(sys, bs, false),
		close: func() {},
	}, nil
}

var wanLink = Link{Latency: 10 * time.Millisecond, Mbps: 2}

func armOffloadWAN(sys *system, tr *tracer, nproc int) (*armed, error) {
	model := sys.rawModel
	if tr != nil {
		model = tr.wrapModel(model)
	}
	srv, err := listen(model, sys.tail)
	if err != nil {
		return nil, err
	}
	client, err := dial(srv.Addr().String(), wanLink, tr, "uplink")
	if err != nil {
		srv.Close()
		return nil, err
	}
	cs := closers{srv, client}
	rt, err := newRuntime(tracedMEANet(sys.m, tr),
		Policy{Threshold: sys.threshold, UseCloud: true, CloudRetries: 1}, client, nil)
	if err == nil {
		err = rt.SetOffloadMode(offloadRaw)
	}
	if err != nil {
		cs.close()
		return nil, err
	}
	bs := sys.batches(runtimeBatch)
	// The wire probe uses a typical upload: beta of one batch.
	probe, _ := sys.test.Batch(sys.order[:int(math.Round(targetBeta*runtimeBatch))])
	return &armed{
		callers: 1,
		call:    runtimeCall(sys, rt, bs, true),
		counters: func() counters {
			c := counters{uplinkBytes: int64(client.BytesSent())}
			c.addRuntime(rt)
			c.addServer(srv)
			return c
		},
		books:    runtimeBooks(sys, bs, true),
		close:    cs.close,
		uplink:   wanLink,
		estimate: client,
		probeX:   probe,
	}, nil
}

// --- cloud-fanin: many pipelined single-feature requests, one batching server ---

const (
	faninCallersPerConn = 8
	faninMaxBatch       = 8
	faninLinger         = time.Millisecond
)

func armCloudFanin(sys *system, tr *tracer, nproc int) (*armed, error) {
	// The tail is one GAP+FC (the main exit), so the transport and the
	// micro-batcher do most of the work.
	var exit Layer = sys.m.MainExit
	if tr != nil {
		exit = tr.wrapLayer(exit, "cloud.model")
	}
	tail := &CloudTail{Body: identityLayer(), Exit: exit}
	srv, err := listen(partitioned(sys.m.Main, tail), tail,
		withBatching(BatchConfig{MaxBatch: faninMaxBatch, Linger: faninLinger}))
	if err != nil {
		return nil, err
	}
	cs := closers{srv}
	conns := make([]featureOne, nproc)
	for i := range conns {
		if conns[i], err = dial(srv.Addr().String(), Link{}, tr, "uplink"); err != nil {
			cs.close()
			return nil, err
		}
		cs = append(cs, conns[i])
	}
	// Pre-computed main-block features, one CHW tensor per test image.
	feats := make([]*Tensor, sys.test.N)
	for lo := 0; lo < sys.test.N; lo += 64 {
		idx := make([]int, min(64, sys.test.N-lo))
		for i := range idx {
			idx[i] = lo + i
		}
		x, _ := sys.test.Batch(idx)
		f := sys.m.Main.Forward(x, false)
		for i := range idx {
			feats[lo+i] = f.Sample(i)
		}
	}
	n := int64(len(sys.order))
	return &armed{
		callers: nproc * faninCallersPerConn,
		call: func(seq int64) (int, float64, error) {
			ti := sys.order[seq%n]
			pred, _, err := conns[seq%int64(len(conns))].ClassifyFeatures(feats[ti])
			if err != nil {
				return 0, 0, err
			}
			if want := sys.edgeRef[ti].MainPred; pred != want {
				return 0, 0, oracleErrorf("request %d (test #%d): cloud answered %d, local main-exit argmax is %d", seq, ti, pred, want)
			}
			hit := 0.0
			if pred == sys.test.Y[ti] {
				hit = 1
			}
			return 1, hit, nil
		},
		counters: func() counters {
			var c counters
			for _, cl := range conns {
				c.uplinkBytes += int64(cl.BytesSent())
			}
			c.addServer(srv)
			return c
		},
		books: func(d counters, w *window) error {
			if d.served != w.items || d.batchedRequests != w.items {
				return booksErrorf("server classified %d instances (%d through the batcher) for %d requests", d.served, d.batchedRequests, w.items)
			}
			return serverBooks(d)
		},
		close:      cs.close,
		estimate:   conns[0],
		clientCall: true,
		probeX:     feats[sys.order[0]],
	}, nil
}

// --- replica-fanout: one MultiClient over three sleep-modelled replicas ---

const (
	replicaBatch = 8
	// replicaCallersPerCPU: callers here sleep on a replica, they do not
	// compute, so two per CPU stay within the load-generation budget. With
	// one per CPU the two fast replicas absorb everything and the straggler's
	// share hovers at 5% — exactly the cliff of latency_p95_ms, which then
	// flips between 2.6 and 12 ms from seed to seed (spread 75% over ten).
	replicaCallersPerCPU = 2
)

var replicaDelays = []time.Duration{2 * time.Millisecond, 2 * time.Millisecond, 12 * time.Millisecond}

// sleepModel is the benchmark's own zero-CPU cloud model: flat logits behind
// a serialized sleep, so a replica's whole serving cost is its modelled
// delay and the workload measures the router, not the host.
type sleepModel struct {
	classes int
	delay   time.Duration
	mu      sync.Mutex // one accelerator per replica: queued forwards serialize
}

func (m *sleepModel) Logits(x *Tensor, train bool) *Tensor {
	m.mu.Lock()
	time.Sleep(m.delay)
	m.mu.Unlock()
	return newTensor(x.Dim(0), m.classes)
}

func armReplicaFanout(sys *system, tr *tracer, nproc int) (*armed, error) {
	var cs closers
	var srvs []*CloudServer
	var clients []CloudClient
	var addrs []string
	for _, d := range replicaDelays {
		var model logitModel = &sleepModel{classes: sys.classes, delay: d}
		if tr != nil {
			model = tr.wrapModel(model)
		}
		srv, err := listen(model, nil)
		if err != nil {
			cs.close()
			return nil, err
		}
		cs = append(cs, srv)
		srvs = append(srvs, srv)
		addr := srv.Addr().String()
		cl, err := dial(addr, Link{}, tr, "uplink")
		if err != nil {
			cs.close()
			return nil, err
		}
		cs = append(cs, cl)
		var replica CloudClient = cl
		if tr != nil {
			replica = tr.wrapClient(cl)
		}
		clients = append(clients, replica)
		addrs = append(addrs, addr)
	}
	mc, err := newMulti(clients, addrs, MultiConfig{Seed: sys.streamSeed})
	if err != nil {
		cs.close()
		return nil, err
	}
	straggler := addrs[len(addrs)-1]
	bs := sys.batches(replicaBatch)
	return &armed{
		callers: replicaCallersPerCPU * nproc,
		call: func(seq int64) (int, float64, error) {
			b := &bs[seq%int64(len(bs))]
			preds, _, err := mc.ClassifyBatch(b.imgs)
			if err != nil {
				return 0, 0, err
			}
			if len(preds) != len(b.imgs) {
				return 0, 0, oracleErrorf("request %d: %d predictions for %d images", seq, len(preds), len(b.imgs))
			}
			// Flat logits: the stand-in's known answer is class 0, whichever
			// replica served the batch (routing never changes predictions).
			for i, p := range preds {
				if p != 0 {
					return 0, 0, oracleErrorf("request %d image %d: replica answered %d, the flat-logits model answers 0", seq, i, p)
				}
			}
			return len(preds), float64(len(preds)), nil
		},
		counters: func() counters {
			c := counters{uplinkBytes: int64(mc.BytesSent())}
			for _, st := range mc.ReplicaStats() {
				c.replicaOffloads += int64(st.Offloads)
				c.failovers += int64(st.Failures + st.Sheds)
				if st.Addr == straggler {
					c.stragglerOffloads += int64(st.Offloads)
				}
			}
			for _, srv := range srvs {
				c.addServer(srv)
			}
			return c
		},
		books: func(d counters, w *window) error {
			if d.replicaOffloads != w.attempted() || d.served != w.items {
				return booksErrorf("replicas answered %d round trips and served %d images for %d calls of %d images", d.replicaOffloads, d.served, w.attempted(), w.items)
			}
			if d.failovers != 0 {
				return booksErrorf("%d replica failovers, want 0", d.failovers)
			}
			return serverBooks(d)
		},
		// Closing the router closes its replica transports; the closers then
		// close them again (a no-op) and the servers.
		close:  func() { mc.Close(); cs.close() },
		probeX: bs[0].x,
	}, nil
}

// --- chain-relay: edge stage + two routed stage servers ---

const (
	chainBatch = 4
	// chainDeviceRate is the equal compute-rate prior the solver prices
	// every device with; only its ratio to the link times matters.
	chainDeviceRate = 2e8
)

var (
	chainUplink    = Link{Latency: time.Millisecond, Mbps: 10}
	chainInterlink = Link{Latency: 500 * time.Microsecond, Mbps: 200}
	chainLinks     = []Link{chainUplink, chainInterlink}
	chainDevices   = []Device{
		{Name: "edge", MACsPerSec: chainDeviceRate},
		{Name: "hop1", MACsPerSec: chainDeviceRate},
		{Name: "hop2", MACsPerSec: chainDeviceRate},
	}
)

func armChainRelay(sys *system, tr *tracer, nproc int) (*armed, error) {
	place, err := placePipeline(sys.chain, inShape, chainDevices, chainLinks)
	if err != nil {
		return nil, fmt.Errorf("place pipeline: %w", err)
	}
	// Every hop holds the same units; traced, each location gets its own
	// decorated copy so a unit forward is attributed to where it ran.
	at := func(where string) []Layer {
		if tr == nil {
			return sys.chain
		}
		return tr.wrapLayers(sys.chain, where)
	}
	var none logitModel
	opt2, _, err := withStage(at("stage.hop2"), "", DialConfig{})
	if err != nil {
		return nil, err
	}
	srv2, err := listen(none, nil, opt2)
	if err != nil {
		return nil, err
	}
	cs := closers{srv2}
	addr2 := srv2.Addr().String()
	opt1, down, err := withStage(at("stage.hop1"), addr2, dialConfig(addr2, chainInterlink, tr, "interlink"))
	if err != nil {
		cs.close()
		return nil, err
	}
	cs = append(cs, down)
	srv1, err := listen(none, nil, opt1)
	if err != nil {
		cs.close()
		return nil, err
	}
	// srv1 closes before its downstream transport (reverse order).
	cs = append(cs, srv1)
	addr1 := srv1.Addr().String()
	cc, err := dialRoutedChain(addr1, dialConfig(addr1, chainUplink, tr, "uplink"), at("stage.edge"), place.Cuts)
	if err != nil {
		cs.close()
		return nil, err
	}
	cs = append(cs, cc)
	bs := sys.batches(chainBatch)
	// The wire probe uses what the uplink carries: the activation at cut 0.
	probe := bs[0].x
	for _, u := range sys.chain[:place.Cuts[0]] {
		probe = u.Forward(probe, false)
	}
	return &armed{
		callers: nproc,
		call: func(seq int64) (int, float64, error) {
			b := &bs[seq%int64(len(bs))]
			preds, _, err := cc.ClassifyBatch(b.imgs)
			if err != nil {
				return 0, 0, err
			}
			if len(preds) != len(b.idx) {
				return 0, 0, oracleErrorf("request %d: %d predictions for %d images", seq, len(preds), len(b.idx))
			}
			for i, ti := range b.idx {
				if preds[i] != sys.cloudPred[ti] {
					return 0, 0, oracleErrorf("request %d image %d (test #%d): chain answered %d, the monolithic Partitioned forward answers %d",
						seq, i, ti, preds[i], sys.cloudPred[ti])
				}
			}
			return len(preds), sys.labelHits(b.idx, func(i int) int { return preds[i] }), nil
		},
		counters: func() counters {
			st := cc.ChainStats()
			c := counters{
				uplinkBytes:    int64(cc.BytesSent()),
				chainInstances: int64(st.ChainInstances),
				chainFallbacks: int64(st.FallbackInstances),
				chainFailures:  int64(st.ChainFailures + st.DirectFailures),
			}
			c.addServer(srv1)
			c.addServer(srv2)
			return c
		},
		books: func(d counters, w *window) error {
			if d.chainInstances != w.items || d.chainFallbacks != 0 || d.chainFailures != 0 {
				return booksErrorf("chain %d + direct %d != N %d (%d chain failures)", d.chainInstances, d.chainFallbacks, w.items, d.chainFailures)
			}
			if d.relayed != w.items || d.served != w.items {
				return booksErrorf("hop 1 relayed %d and hop 2 served %d of %d instances", d.relayed, d.served, w.items)
			}
			return serverBooks(d)
		},
		close:     cs.close,
		uplink:    chainUplink,
		interlink: chainInterlink,
		estimate:  cc,
		hops:      2,
		probeX:    probe,
	}, nil
}

// --- train-edge: Algorithm 1 steps 5-8 on a fresh clone ---

const (
	trainShard = 32 // hard-class instances the edge "got from the environment"
	trainBatch = 16 // → trainShard/trainBatch SGD steps per call
	// trainFixedCalls adaptation calls run at arm time; the accuracy oracle
	// compares the shard's hard-class accuracy before and after exactly these,
	// so it does not depend on how many calls the timed window fits.
	trainFixedCalls = 8
)

func armTrainEdge(sys *system, tr *tracer, nproc int) (*armed, error) {
	m, err := sys.cloneMEANet()
	if err != nil {
		return nil, err
	}
	// The shard is the edge's local data, part of the bench system: it and
	// the fixed adaptation calls below are seeded by the system seed, so
	// accuracy_pct does not move with the stream seed. The stream seed orders
	// the samples within the timed calls.
	var hard []int
	for i, y := range sys.train.Y {
		if m.Dict.IsHard(y) {
			hard = append(hard, i)
		}
	}
	rng := rand.New(rand.NewSource(sys.seed + 7))
	rng.Shuffle(len(hard), func(i, j int) { hard[i], hard[j] = hard[j], hard[i] })
	shard := sys.train.Subset(hard[:min(trainShard, len(hard))])

	var loss float64
	cfg := defaultTrainConfig(1, sys.seed)
	cfg.Batch = trainBatch
	// A fixed small rate: DefaultTrainConfig's schedule collapses at one
	// epoch, and continual adaptation fine-tunes rather than retrains.
	cfg.LR.Initial, cfg.LR.Milestones = 0.01, nil
	cfg.Progress = func(_ int, l float64) { loss = l }
	step := func(seed int64) error {
		cfg.Seed = seed
		if err := trainEdgeBlocks(m, shard, cfg); err != nil {
			return err
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			return oracleErrorf("training call (seed %d): loss %v is not finite", seed, loss)
		}
		return nil
	}
	_, before, err := hardSubsetAccuracy(m, shard, 64)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < trainFixedCalls; i++ {
		if err := step(sys.seed + i); err != nil {
			return nil, err
		}
	}
	_, after, err := hardSubsetAccuracy(m, shard, 64)
	if err != nil {
		return nil, err
	}
	if after < before {
		return nil, oracleErrorf("the shard's hard-class accuracy fell from %.4f to %.4f over %d adaptation calls", before, after, trainFixedCalls)
	}
	// accuracy_pct is the adapted model's hard-class accuracy on the test
	// split (300 instances: one flipped prediction moves it 0.33%, not 3%).
	_, adapted, err := hardSubsetAccuracy(m, sys.test, 64)
	if err != nil {
		return nil, err
	}
	hits := adapted * float64(shard.N)
	return &armed{
		callers: 1, // training mutates the clone
		call: func(seq int64) (int, float64, error) {
			if err := step(sys.streamSeed + seq); err != nil {
				return 0, 0, err
			}
			return shard.N, hits, nil
		},
		counters: func() counters { return counters{} },
		books:    func(counters, *window) error { return nil },
		close:    func() {},
	}, nil
}
