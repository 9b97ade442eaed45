package deploy_test

// The serving conformance matrix. Algorithm 2's decisions, and every
// confidence the cloud tier returns, must be bitwise the same whatever
// carries the offload: no cloud, an in-process model, one TCP server, a
// micro-batching server under concurrent single-instance fan-in, a replica
// set behind edge.MultiClient, or a routed stage chain at any cut. They must
// also be the same in either §III-C representation (raw pixels or main-block
// features), at any batch size and at any kernel worker count.
//
// One seeded fixture and one oracle serve every row. The oracle runs the
// main and extension blocks and the partitioned cloud model
// cloud.Partitioned(main, tail) on one image at a time, called directly: no
// transport and no batching code. The weights are untrained for the reason
// the partition sweep gives: every path reuses the same layer objects in the
// same order, so agreement is structural, and untrained weights are as
// strong a test as trained ones. Each row also balances its books: exits,
// modeled upload bytes, wire bytes against the servers' counters, and the
// instances each hop served or relayed.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim/fleet"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// The matrix's batch and kernel-worker axes: a lone image, a batch that
// reaches all three exits, the benchmark's 16-image batch, and the whole
// pool in one batch.
var (
	conformanceBatches = []int{1, 7, 16, 64}
	conformanceWorkers = []int{1, 2}
)

// conformancePool is the number of images every row classifies, each
// 3×conformanceSide×conformanceSide.
const (
	conformancePool = 64
	conformanceSide = 8
)

// conformance is the matrix's fixture and its oracle.
type conformance struct {
	m     *core.MEANet
	tail  *cloud.Tail
	chain []nn.Layer
	x     *tensor.Tensor   // the pool, NCHW
	feats []*tensor.Tensor // each pool image's main-block features, CHW
	th    float64          // entropy threshold of every row's policy
	edge  []core.Decision  // the oracle's decision with no cloud
	cloud []protocol.Result
	cost  *edge.CostParams
}

// newConformance builds the fixture. The hard classes are the main exit's
// most frequent prediction plus classes it never predicts, so both edge
// exits stay common; the threshold is the median oracle entropy. The pool
// takes cloud, extension and main exits in turn from a larger seeded draw,
// so any 3 consecutive images, and so every batch of 7 or more, reach all
// three exits.
func newConformance(t *testing.T) *conformance {
	t.Helper()
	m, tail := deploy.BuildSweepNet(t)
	rng := rand.New(rand.NewSource(31))
	cands := tensor.Randn(rng, 1, 4*conformancePool, 3, conformanceSide, conformanceSide)
	n := cands.Dim(0)
	one := func(x *tensor.Tensor, i int) *tensor.Tensor {
		per := x.Numel() / x.Dim(0)
		return tensor.FromSlice(x.Data()[i*per:(i+1)*per], 1, 3, conformanceSide, conformanceSide)
	}

	mains := make([]core.Decision, n)
	feats := make([]*tensor.Tensor, n) // NCHW, one image each
	count := map[int]int{}
	entropies := make([]float64, n)
	for i := range mains {
		feat, logits := m.MainForward(one(cands, i), false)
		row := tensor.Softmax(logits).Row(0)
		p := argmaxRow(row)
		mains[i] = core.Decision{Pred: p, MainPred: p, Exit: core.ExitMain,
			Entropy: tensor.Entropy(row), ConfMain: float64(row[p])}
		feats[i] = feat
		count[p]++
		entropies[i] = mains[i].Entropy
	}
	top := -1
	for c, k := range count {
		if top < 0 || k > count[top] || (k == count[top] && c < top) {
			top = c
		}
	}
	hard := []int{top}
	for c := 0; len(hard) < 10; c++ {
		if count[c] == 0 {
			hard = append(hard, c)
		}
	}
	var err error
	if m.Dict, err = core.NewClassDict(hard); err != nil {
		t.Fatal(err)
	}
	m.ExtExit = models.NewExit(rng, "conformance.extexit", m.ExtOutChannels(), len(hard))
	sort.Float64s(entropies)
	f := &conformance{m: m, tail: tail, chain: deploy.ServingChain(m, tail), th: entropies[n/2]}

	var groups [3][]int // cloud, extension, main
	for i, d := range mains {
		switch {
		case d.Entropy > f.th:
			groups[0] = append(groups[0], i)
		case m.Dict.IsHard(d.MainPred):
			groups[1] = append(groups[1], i)
		default:
			groups[2] = append(groups[2], i)
		}
	}
	per := cands.Numel() / n
	f.x = tensor.New(conformancePool, 3, conformanceSide, conformanceSide)
	model := cloud.Partitioned(m.Main, tail)
	for p := 0; p < conformancePool; p++ {
		g := &groups[p%3]
		if len(*g) == 0 {
			t.Fatalf("fixture: the seeded draw has too few images for exit group %d", p%3)
		}
		i := (*g)[0]
		*g = (*g)[1:]
		copy(f.x.Data()[p*per:(p+1)*per], cands.Data()[i*per:(i+1)*per])
		d := mains[i]
		xi := one(f.x, p)
		if m.Dict.IsHard(d.MainPred) {
			logits, err := m.ExtForward(xi, feats[i], false)
			if err != nil {
				t.Fatal(err)
			}
			row := tensor.Softmax(logits).Row(0)
			p2 := argmaxRow(row)
			d.ConfExt = float64(row[p2])
			if d.ConfExt > d.ConfMain {
				d.Pred = m.Dict.FromHard[p2]
			}
			d.Exit = core.ExitExtension
		}
		f.edge = append(f.edge, d)
		f.feats = append(f.feats, feats[i].Sample(0))
		f.cloud = append(f.cloud, protocol.ResultOf(model.Logits(xi, false).Row(0)))
	}
	f.cost = &edge.CostParams{
		Compute:      energy.EdgeGPUCIFAR(),
		WiFi:         energy.DefaultWiFi(),
		ImageBytes:   int64(4 * per),
		FeatureBytes: int64(4 * f.feats[0].Numel()),
	}
	return f
}

func argmaxRow(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// want is the oracle's decision for pool image i, with the cloud reachable
// or not.
func (f *conformance) want(i int, useCloud bool) core.Decision {
	d := f.edge[i]
	if !useCloud || d.Entropy <= f.th {
		return d
	}
	return core.Decision{Pred: int(f.cloud[i].Pred), MainPred: d.MainPred, Exit: core.ExitCloud,
		Entropy: d.Entropy, ConfMain: d.ConfMain, CloudAttempts: 1}
}

// sameDecision reports whether two decisions agree field for field, the
// floats bitwise.
func sameDecision(a, b core.Decision) bool {
	return a == b && math.Float64bits(a.Entropy) == math.Float64bits(b.Entropy) &&
		math.Float64bits(a.ConfMain) == math.Float64bits(b.ConfMain) &&
		math.Float64bits(a.ConfExt) == math.Float64bits(b.ConfExt)
}

func sameResult(a, b protocol.Result) bool {
	return a.Pred == b.Pred && math.Float32bits(a.Conf) == math.Float32bits(b.Conf)
}

// cloudConn is every built-in transport: the runtime's call surface and the
// live signals.
type cloudConn interface {
	edge.CloudClient
	edge.Transport
}

// recorder is the transport the runtime offloads through. It keeps every
// result the cloud tier returned, in order, so the confidences, which a
// Decision does not carry, are checked too.
type recorder struct {
	cloudConn
	results []protocol.Result
}

func (r *recorder) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	reply, err := r.cloudConn.Infer(req)
	if err == nil {
		r.results = append(r.results, reply.Results...)
	}
	return reply, err
}

// tier is one row's cloud side.
type tier struct {
	tr   cloudConn         // what the runtime offloads through; nil = edge only
	hops [][]*cloud.Server // hop k's replica set
	legs []edge.Transport  // legs[k] uploads into hop k
	// single, when set, also sends each cloud-bound image on its own, CHW,
	// concurrently with the runtime's stream, into hop 0.
	single    *edge.TCPClient
	hellos    uint64 // capability handshakes hop 0 answered
	collector bool   // hop 0 micro-batches single instances
	multi     *edge.MultiClient
	close     []func() error
}

func (tr *tier) shutdown() {
	for i := len(tr.close) - 1; i >= 0; i-- {
		tr.close[i]()
	}
}

// server starts one partitioned server (raw model tail∘main, features tail).
func (f *conformance) server(t *testing.T, tr *tier, opts ...cloud.Option) *cloud.Server {
	t.Helper()
	srv, err := cloud.NewServer(cloud.Partitioned(f.m.Main, f.tail), f.tail, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	tr.close = append(tr.close, srv.Close)
	return srv
}

func (f *conformance) dial(t *testing.T, tr *tier, addr string) *edge.TCPClient {
	t.Helper()
	c, err := edge.DialCloud(addr, edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr.close = append(tr.close, c.Close)
	return c
}

// chainTier stands up a routed stage chain of len(cuts) hops, every hop
// mounting the whole serving chain, behind an edge chain client.
func (f *conformance) chainTier(t *testing.T, cuts ...core.CutPoint) *tier {
	t.Helper()
	hops := make([]fleet.ChainHop, len(cuts))
	for i := range hops {
		hops[i].Chain = f.chain
	}
	ch, err := fleet.StartChain(hops)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tier{close: []func() error{func() error { ch.Close(); return nil }}}
	cc, err := edge.NewRoutedChainClient(f.dial(t, tr, ch.Addr()), edge.ChainConfig{Chain: f.chain, Cuts: cuts})
	if err != nil {
		t.Fatal(err)
	}
	tr.tr = cc
	tr.legs = []edge.Transport{cc}
	for i, srv := range ch.Servers {
		tr.hops = append(tr.hops, []*cloud.Server{srv})
		if i > 0 { // StartChain dials back to front: Clients[0] feeds the last hop
			tr.legs = append(tr.legs, ch.Clients[len(ch.Clients)-i])
		}
	}
	return tr
}

// conformanceTransport is one value of the transport axis.
type conformanceTransport struct {
	name  string
	reps  []protocol.Rep
	start func(t *testing.T, f *conformance) *tier
}

func conformanceTransports(f *conformance) []conformanceTransport {
	both := []protocol.Rep{protocol.RepRaw, protocol.RepFeatures}
	rawOnly := []protocol.Rep{protocol.RepRaw}
	ts := []conformanceTransport{
		{"edge-only", rawOnly, func(*testing.T, *conformance) *tier { return &tier{} }},
		{"in-process", both, func(t *testing.T, f *conformance) *tier {
			ip := &edge.InProcClient{Model: cloud.Partitioned(f.m.Main, f.tail), Tail: f.tail}
			if caps, known := ip.Capabilities(); !known || !caps.TailCapable || caps.ServesChain {
				t.Fatalf("in-process capabilities %+v (known %v), want a tail and no chain", caps, known)
			}
			act := protocol.InferRequest{Rep: protocol.RepActivation, TTL: 1, Pos: 1, Tensor: f.x}
			if _, err := ip.Infer(act); err == nil {
				t.Fatal("in-process client served an activation request")
			}
			return &tier{tr: ip}
		}},
		{"tcp", both, func(t *testing.T, f *conformance) *tier {
			tr := &tier{}
			srv := f.server(t, tr)
			c := f.dial(t, tr, srv.Addr().String())
			tr.tr, tr.single = c, c
			tr.hops, tr.legs = [][]*cloud.Server{{srv}}, []edge.Transport{c}
			return tr
		}},
		{"cloud-fanin", both, func(t *testing.T, f *conformance) *tier {
			tr := &tier{}
			srv := f.server(t, tr, cloud.WithBatching(cloud.BatchConfig{MaxBatch: 8}))
			c := f.dial(t, tr, srv.Addr().String())
			tr.tr, tr.single, tr.collector = c, c, true
			tr.hops, tr.legs = [][]*cloud.Server{{srv}}, []edge.Transport{c}
			return tr
		}},
		{"replica-fanout", both, func(t *testing.T, f *conformance) *tier {
			tr := &tier{}
			srvs := []*cloud.Server{f.server(t, tr), f.server(t, tr)}
			mc, err := edge.DialMultiCloud([]string{srvs[0].Addr().String(), srvs[1].Addr().String()},
				edge.DialConfig{}, edge.MultiConfig{})
			if err != nil {
				t.Fatal(err)
			}
			tr.close = append(tr.close, mc.Close)
			tr.tr, tr.multi, tr.hellos = mc, mc, 2
			tr.hops, tr.legs = [][]*cloud.Server{srvs}, []edge.Transport{mc}
			return tr
		}},
	}
	for cut := 1; cut < len(f.chain); cut++ {
		ts = append(ts, conformanceTransport{fmt.Sprintf("chain-relay/cut=%d", cut), rawOnly,
			func(t *testing.T, f *conformance) *tier { return f.chainTier(t, core.CutPoint(cut)) }})
	}
	mb := deploy.MainBoundary(f.m)
	return append(ts, conformanceTransport{fmt.Sprintf("chain-relay/2-hop=%d,%d", mb/2, mb), rawOnly,
		func(t *testing.T, f *conformance) *tier { return f.chainTier(t, mb/2, mb) }})
}

// TestServingConformance runs every row of the matrix: transport ×
// representation × batch × kernel workers. Rows are named
// transport/representation/batch=B/workers=W.
func TestServingConformance(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	f := newConformance(t)
	for _, tp := range conformanceTransports(f) {
		for _, rep := range tp.reps {
			for _, batch := range conformanceBatches {
				for _, workers := range conformanceWorkers {
					t.Run(fmt.Sprintf("%s/%s/batch=%d/workers=%d", tp.name, rep, batch, workers), func(t *testing.T) {
						tensor.SetParallelism(workers)
						tr := tp.start(t, f)
						defer tr.shutdown()
						f.check(t, tr, rep, batch)
					})
				}
			}
		}
	}
}

// check streams the pool through an edge runtime over tr in batches of
// batch and holds the row to the oracle and to its books.
func (f *conformance) check(t *testing.T, tr *tier, rep protocol.Rep, batch int) {
	t.Helper()
	useCloud := tr.tr != nil
	rec := &recorder{cloudConn: tr.tr}
	var client edge.CloudClient
	if useCloud {
		client = rec
	}
	rt, err := edge.NewRuntime(f.m, core.Policy{Threshold: f.th, UseCloud: useCloud}, client, f.cost)
	if err != nil {
		t.Fatal(err)
	}
	if rep == protocol.RepFeatures {
		if err := rt.SetOffloadMode(edge.OffloadFeatures); err != nil {
			t.Fatal(err)
		}
	}

	var wantCloud []protocol.Result
	exits := map[core.ExitPoint]int{}
	for i := range f.edge {
		d := f.want(i, useCloud)
		exits[d.Exit]++
		if d.Exit == core.ExitCloud {
			wantCloud = append(wantCloud, f.cloud[i])
		}
	}
	nCloud := uint64(len(wantCloud))

	// The single-instance calls run beside the stream, through the server's
	// collector when it batches.
	var singles sync.WaitGroup
	singleErrs := make(chan error, nCloud)
	if tr.single != nil {
		for i := range f.edge {
			if f.want(i, useCloud).Exit != core.ExitCloud {
				continue
			}
			singles.Add(1)
			go func(i int) {
				defer singles.Done()
				var pred int
				var conf float64
				var err error
				if rep == protocol.RepFeatures {
					pred, conf, err = tr.single.ClassifyFeatures(f.feats[i])
				} else {
					pred, conf, err = tr.single.Classify(f.x.Sample(i))
				}
				if err == nil && !sameResult(protocol.Result{Pred: int32(pred), Conf: float32(conf)}, f.cloud[i]) {
					err = fmt.Errorf("single image %d: %d/%v, oracle %+v", i, pred, conf, f.cloud[i])
				}
				if err != nil {
					singleErrs <- err
				}
			}(i)
		}
	}

	var got []core.Decision
	var cloudBatches uint64
	per := f.x.Numel() / conformancePool
	for s := 0; s < conformancePool; s += batch {
		e := min(s+batch, conformancePool)
		dec, err := rt.Classify(tensor.FromSlice(f.x.Data()[s*per:e*per], e-s, 3, conformanceSide, conformanceSide))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, dec...)
		for i := s; i < e; i++ {
			if f.want(i, useCloud).Exit == core.ExitCloud {
				cloudBatches++
				break
			}
		}
	}
	singles.Wait()
	close(singleErrs)
	for err := range singleErrs {
		t.Fatal(err)
	}

	for i, d := range got {
		if want := f.want(i, useCloud); !sameDecision(d, want) {
			t.Fatalf("image %d: decision %+v, oracle %+v", i, d, want)
		}
	}
	if len(rec.results) != len(wantCloud) {
		t.Fatalf("cloud tier returned %d results, oracle sends %d instances", len(rec.results), len(wantCloud))
	}
	for k, r := range rec.results {
		if !sameResult(r, wantCloud[k]) {
			t.Fatalf("cloud result %d: %+v, oracle %+v", k, r, wantCloud[k])
		}
	}

	// The runtime's books. The oracle's exits sum to the pool, so matching
	// them per exit point balances edge + cloud exits against N.
	rp := rt.Report()
	if rp.N != conformancePool || rp.Exits[core.ExitMain] != exits[core.ExitMain] ||
		rp.Exits[core.ExitExtension] != exits[core.ExitExtension] || rp.Exits[core.ExitCloud] != exits[core.ExitCloud] {
		t.Fatalf("exits %v over %d instances, oracle %v over %d", rp.Exits, rp.N, exits, conformancePool)
	}
	if rp.ShedEvents != 0 || rp.ShedFallbacks != 0 || rp.CloudFailures != 0 {
		t.Fatalf("clean row shed %d (%d fallbacks) and failed %d", rp.ShedEvents, rp.ShedFallbacks, rp.CloudFailures)
	}
	raw, feat, up := int(nCloud), 0, f.cost.ImageBytes
	if rep == protocol.RepFeatures {
		raw, feat, up = 0, int(nCloud), f.cost.FeatureBytes
	}
	if rp.BytesSent != int64(nCloud)*up || rp.RawUploads != raw || rp.FeatureUploads != feat {
		t.Fatalf("modeled uploads: %d bytes, %d raw, %d feature; want %d × %d bytes in %s",
			rp.BytesSent, rp.RawUploads, rp.FeatureUploads, nCloud, up, rep)
	}

	// The wire's books, hop by hop.
	var nSingles uint64
	if tr.single != nil {
		nSingles = nCloud
	}
	for k, hop := range tr.hops {
		var st cloud.Stats
		for _, srv := range hop {
			s := srv.Stats()
			st.BytesIn += s.BytesIn
			st.Requests += s.Requests
			st.InstancesServed += s.InstancesServed
			st.Relayed += s.Relayed
			st.BatchedRequests += s.BatchedRequests
			st.Batches += s.Batches
			st.Sheds += s.Sheds
			st.Errors += s.Errors
		}
		if sent := tr.legs[k].BytesSent(); sent != st.BytesIn {
			t.Fatalf("hop %d: %d wire bytes sent, %d received", k, sent, st.BytesIn)
		}
		served, relayed, requests := nCloud, uint64(0), cloudBatches
		if k < len(tr.hops)-1 {
			served, relayed = 0, nCloud
		}
		if k == 0 {
			served += nSingles
			requests += nSingles + tr.hellos
		}
		if st.InstancesServed != served || st.Relayed != relayed || st.Requests != requests {
			t.Fatalf("hop %d: served %d, relayed %d in %d requests; want %d, %d in %d",
				k, st.InstancesServed, st.Relayed, st.Requests, served, relayed, requests)
		}
		if st.Sheds != 0 || st.Errors != 0 {
			t.Fatalf("hop %d: %d sheds, %d errors on a clean row", k, st.Sheds, st.Errors)
		}
		var batched uint64
		if k == 0 && tr.collector {
			batched = nSingles
		}
		if st.BatchedRequests != batched || (batched == 0) != (st.Batches == 0) || st.Batches > batched {
			t.Fatalf("hop %d: collector served %d requests in %d forwards, want the %d singles", k, st.BatchedRequests, st.Batches, batched)
		}
	}
	if tr.multi != nil {
		var offloads uint64
		for _, rs := range tr.multi.ReplicaStats() {
			if rs.Failures != 0 || rs.Sheds != 0 {
				t.Fatalf("replica %s: %d failures, %d sheds on a clean row", rs.Addr, rs.Failures, rs.Sheds)
			}
			offloads += rs.Offloads
		}
		if offloads != cloudBatches {
			t.Fatalf("replicas answered %d offloads, the stream made %d", offloads, cloudBatches)
		}
	}
	if len(tr.hops) > 0 && cloudBatches > 0 && tr.multi == nil {
		if est := tr.tr.LinkEstimate(); est.Samples == 0 {
			t.Fatal("round trips fed no link-estimator samples")
		}
	}
}
