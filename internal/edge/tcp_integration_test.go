package edge_test

// Integration tests of the full edge-cloud path over real TCP, including
// link shaping and transport fault injection. They live in package edge_test
// to exercise only the public APIs of edge and cloud together.

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

func buildCloudModel(t *testing.T, seed int64) *models.Classifier {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "itest", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return models.NewClassifier(rng, b, 4)
}

func TestTCPRoundTripOverShapedLink(t *testing.T) {
	cls := buildCloudModel(t, 1)
	srv, err := cloud.NewServer(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := edge.DialCloud(srv.Addr().String(), edge.DialConfig{
		Link: netsim.Link{Latency: 5 * time.Millisecond, Mbps: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(2))
	img := tensor.Randn(rng, 1, 3, 8, 8)
	start := time.Now()
	pred, conf, err := client.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("shaped round trip took %v, want ≥ link latency", elapsed)
	}
	if pred < 0 || pred >= 4 || conf <= 0 {
		t.Fatalf("implausible result %d/%v", pred, conf)
	}
	if client.BytesSent() == 0 {
		t.Fatal("client byte counter not updated")
	}
}

func TestTCPClientTimesOutOnSilentServer(t *testing.T) {
	// A listener that accepts and never answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Swallow everything, never respond.
			buf := make([]byte, 4096)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}
	}()
	client, err := edge.DialCloud(ln.Addr().String(), edge.DialConfig{RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rng := rand.New(rand.NewSource(3))
	start := time.Now()
	if _, _, err := client.Classify(tensor.Randn(rng, 1, 3, 8, 8)); err == nil {
		t.Fatal("classify succeeded against a silent server")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout did not bound the round trip")
	}
}

func TestTCPClientSurvivesInjectedTransportFault(t *testing.T) {
	cls := buildCloudModel(t, 4)
	srv, err := cloud.NewServer(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Enough budget for one full request, then the link breaks.
	faulty := netsim.InjectFault(conn, netsim.FailWrites, 1200)
	client := edge.NewClientOnConn(faulty, edge.DialConfig{RequestTimeout: time.Second})
	defer client.Close()

	rng := rand.New(rand.NewSource(5))
	img := tensor.Randn(rng, 1, 3, 8, 8) // 3*8*8*4 ≈ 768B payload + header
	if _, _, err := client.Classify(img); err != nil {
		t.Fatalf("first classify should fit the budget: %v", err)
	}
	if _, _, err := client.Classify(img); err == nil {
		t.Fatal("classify succeeded over a broken link")
	}
}

// TestBatchedServerMatchesUnbatchedBitwise is the acceptance test of the
// micro-batching path: N concurrent edge clients offload to a batching
// server, and every prediction and confidence must be bitwise identical to
// the unbatched server running the same model — batching is a pure
// throughput optimisation, never a numerics change. This holds because the
// tensor kernels accumulate in the same order for every batch size.
func TestBatchedServerMatchesUnbatchedBitwise(t *testing.T) {
	cls := buildCloudModel(t, 40)
	// Both servers also mount the classifier's own layers as a features tail
	// (units [cut, end)) and as a serving chain, for the same-answers table at
	// the end; the raw traffic in between never touches either.
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	const cut = 3
	tail := &cloud.Tail{Body: nn.NewSequential("tailbody", chain[cut:len(chain)-1]...), Exit: chain[len(chain)-1]}
	stage := cloud.WithStage(cloud.StageConfig{Chain: chain})
	plain, err := cloud.NewServer(cls, tail, stage)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	batched, err := cloud.NewServer(cls, tail, stage,
		cloud.WithBatching(cloud.BatchConfig{MaxBatch: 8, Linger: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	if err := batched.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer batched.Close()

	const clients, perClient = 6, 4
	const total = clients * perClient
	rng := rand.New(rand.NewSource(41))
	imgs := make([]*tensor.Tensor, total)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 1, 3, 8, 8)
	}

	// Reference: the unbatched server, one request at a time.
	ref, err := edge.DialCloud(plain.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	wantPred := make([]int, total)
	wantConf := make([]float64, total)
	for i, img := range imgs {
		wantPred[i], wantConf[i], err = ref.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
	}

	// Measurement: N concurrent clients against the batching server.
	gotPred := make([]int, total)
	gotConf := make([]float64, total)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := edge.DialCloud(batched.Addr().String(), edge.DialConfig{})
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := c * perClient; i < (c+1)*perClient; i++ {
				pred, conf, err := client.Classify(imgs[i])
				if err != nil {
					errs <- err
					return
				}
				gotPred[i], gotConf[i] = pred, conf
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i := range imgs {
		if gotPred[i] != wantPred[i] {
			t.Fatalf("image %d: batched pred %d, unbatched %d", i, gotPred[i], wantPred[i])
		}
		if gotConf[i] != wantConf[i] {
			t.Fatalf("image %d: batched conf %v != unbatched %v (must be bitwise identical)",
				i, gotConf[i], wantConf[i])
		}
	}

	st := batched.Stats()
	if st.BatchedRequests != total {
		t.Fatalf("collector served %d requests, want %d", st.BatchedRequests, total)
	}
	if st.Batches >= st.BatchedRequests {
		t.Fatalf("no coalescing: %d batches for %d requests", st.Batches, st.BatchedRequests)
	}
	t.Logf("coalesced %d requests into %d forwards", st.BatchedRequests, st.Batches)

	// Same answers from the one frame: a raw, a features and an activation
	// request — one instance and a batch of 16 each — get the monolithic
	// forward's predictions and confidences, bitwise, from the unbatched
	// server, from the batching server (whose collector serves the single
	// instances) and from the in-process client, which serves no chain and
	// says so.
	viaBatched, err := edge.DialCloud(batched.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer viaBatched.Close()
	inproc := &edge.InProcClient{Model: cls, Tail: tail}
	if caps, known := inproc.Capabilities(); !known || !caps.TailCapable || caps.ServesChain {
		t.Fatalf("in-process capabilities %+v (known %v), want a tail and no chain", caps, known)
	}
	for _, n := range []int{1, 16} {
		x := tensor.Randn(rng, 1, n, 3, 8, 8)
		logits := cls.Logits(x, false)
		want := make([]protocol.Result, n)
		for i := range want {
			want[i] = protocol.ResultOf(logits.Row(i))
		}
		feat := x
		for _, u := range chain[:cut] {
			feat = u.Forward(feat, false)
		}
		one := func(b *tensor.Tensor) *tensor.Tensor { // one instance travels as CHW
			if n == 1 {
				return b.Sample(0)
			}
			return b
		}
		for _, req := range []protocol.InferRequest{
			{Rep: protocol.RepRaw, Tensor: one(x)},
			{Rep: protocol.RepFeatures, Tensor: one(feat)},
			{Rep: protocol.RepActivation, TTL: 1, Pos: cut, Tensor: feat},
		} {
			transports := map[string]edge.Transport{"tcp": ref, "tcp/batching": viaBatched}
			if req.Rep != protocol.RepActivation {
				transports["in-process"] = inproc
			} else if _, err := inproc.Infer(req); err == nil {
				t.Fatal("in-process client served an activation request")
			}
			for name, tr := range transports {
				reply, err := tr.Infer(req)
				if err != nil {
					t.Fatalf("%s ×%d over %s: %v", req.Rep, n, name, err)
				}
				if len(reply.Results) != n {
					t.Fatalf("%s ×%d over %s: %d results", req.Rep, n, name, len(reply.Results))
				}
				for i, r := range reply.Results {
					if r != want[i] {
						t.Fatalf("%s ×%d over %s, instance %d: %+v, monolithic forward %+v (must be bitwise identical)",
							req.Rep, n, name, i, r, want[i])
					}
				}
			}
		}
	}
	if after := batched.Stats(); after.BatchedRequests != total+2 {
		t.Fatalf("collector served %d requests, want %d (the table's two single instances go through it)",
			after.BatchedRequests, total+2)
	}
}

// TestPipelinedClientConcurrentRequests drives one TCP connection from many
// goroutines at once: the pipelined client must match responses back to the
// right caller by frame ID.
func TestPipelinedClientConcurrentRequests(t *testing.T) {
	cls := buildCloudModel(t, 50)
	srv, err := cloud.NewServer(cls, nil)
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

	inproc := &edge.InProcClient{Model: cls}
	rng := rand.New(rand.NewSource(51))
	const n = 12
	imgs := make([]*tensor.Tensor, n)
	want := make([]int, n)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 1, 3, 8, 8)
		p, _, err := inproc.Classify(imgs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pred, _, err := client.Classify(imgs[i])
			if err != nil {
				errs <- err
				return
			}
			if pred != want[i] {
				t.Errorf("request %d: pred %d, want %d (response routed to wrong caller?)", i, pred, want[i])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSingleConnectionFillsBatches pins the interplay of the two halves of
// the serving path: one pipelined client firing concurrent requests over a
// single TCP connection must be enough for the server's collector to form
// multi-request batches — the server keeps reading while requests wait in
// the collector.
func TestSingleConnectionFillsBatches(t *testing.T) {
	cls := buildCloudModel(t, 70)
	srv, err := cloud.NewServer(cls, nil,
		cloud.WithBatching(cloud.BatchConfig{MaxBatch: 8, Linger: 100 * time.Millisecond}))
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

	rng := rand.New(rand.NewSource(71))
	const n = 8
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 1, 3, 8, 8)
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := client.Classify(imgs[i]); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.BatchedRequests != n {
		t.Fatalf("collector served %d requests, want %d", st.BatchedRequests, n)
	}
	if st.Batches >= n {
		t.Fatalf("one pipelined connection did not coalesce: %d batches for %d requests", st.Batches, n)
	}
	t.Logf("one connection: %d requests in %d forwards", st.BatchedRequests, st.Batches)
}

// TestClassifyBatchEndToEnd ships a client-assembled batch in one frame and
// checks it against per-image classification.
func TestClassifyBatchEndToEnd(t *testing.T) {
	cls := buildCloudModel(t, 60)
	srv, err := cloud.NewServer(cls, nil)
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

	rng := rand.New(rand.NewSource(61))
	imgs := make([]*tensor.Tensor, 5)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 1, 3, 8, 8)
	}
	preds, confs, err := client.ClassifyBatch(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(imgs) || len(confs) != len(imgs) {
		t.Fatalf("batch returned %d/%d results for %d images", len(preds), len(confs), len(imgs))
	}
	for i, img := range imgs {
		pred, conf, err := client.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
		if preds[i] != pred || confs[i] != conf {
			t.Fatalf("image %d: batch %d/%v, single %d/%v", i, preds[i], confs[i], pred, conf)
		}
	}
	// Shape-mismatched batches are rejected client-side.
	if _, _, err := client.ClassifyBatch([]*tensor.Tensor{
		tensor.Randn(rng, 1, 3, 8, 8), tensor.Randn(rng, 1, 3, 4, 4),
	}); err == nil {
		t.Fatal("mixed-shape batch accepted")
	}
}

// TestBatchedOffloadEndToEndBitwise is the acceptance test of the batched
// offload path over real TCP: an edge runtime whose whole batch qualifies
// for the cloud must issue exactly ONE round trip per input batch (not one
// per complex instance), with predictions bitwise identical to the serial
// per-instance path — in the raw mode and in the §III-C features mode.
func TestBatchedOffloadEndToEndBitwise(t *testing.T) {
	cloudCls := buildCloudModel(t, 80)
	srv, err := cloud.NewServer(cloudCls, nil)
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

	// A small untrained edge MEANet: its entropies are all positive, so a
	// zero threshold routes every instance to the cloud.
	rng := rand.New(rand.NewSource(81))
	backbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "edgeitest", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := edge.NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, client, nil)
	if err != nil {
		t.Fatal(err)
	}

	const batches, perBatch = 3, 8
	inputs := make([]*tensor.Tensor, batches)
	for i := range inputs {
		inputs[i] = tensor.Randn(rng, 1, perBatch, 3, 8, 8)
	}
	before := srv.Stats().Requests
	var batchedDec []core.Decision
	for _, x := range inputs {
		dec, err := rt.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		batchedDec = append(batchedDec, dec...)
	}
	if got := srv.Stats().Requests - before; got != batches {
		t.Fatalf("batched offload cost %d round trips for %d input batches, want %d",
			got, batches, batches)
	}

	// Serial reference: one round trip per instance through the same server.
	before = srv.Stats().Requests
	var serialDec []core.Decision
	for _, x := range inputs {
		dec, err := m.InferBatchedRep(x, core.Policy{Threshold: 0, UseCloud: true}, core.RepRaw,
			func(sub *tensor.Tensor) ([]int, []float64, []error, error) {
				preds, confs := make([]int, sub.Dim(0)), make([]float64, sub.Dim(0))
				errs := make([]error, sub.Dim(0))
				for i := range preds {
					preds[i], confs[i], errs[i] = client.Classify(sub.Sample(i))
				}
				return preds, confs, errs, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		serialDec = append(serialDec, dec...)
	}
	if got := srv.Stats().Requests - before; got != batches*perBatch {
		t.Fatalf("serial reference cost %d round trips, want %d", got, batches*perBatch)
	}
	for i := range batchedDec {
		if batchedDec[i].Exit != core.ExitCloud {
			t.Fatalf("instance %d did not exit at cloud: %+v", i, batchedDec[i])
		}
		if batchedDec[i].Pred != serialDec[i].Pred || batchedDec[i].Exit != serialDec[i].Exit {
			t.Fatalf("instance %d: batched %d/%v, serial %d/%v (must be bitwise identical)",
				i, batchedDec[i].Pred, batchedDec[i].Exit, serialDec[i].Pred, serialDec[i].Exit)
		}
	}

	// Features mode: a tail-equipped server must give bitwise-identical
	// results for one classify-features-batch frame vs serial feature calls.
	tail := &cloud.Tail{Body: nn.Identity{}, Exit: models.NewExit(rng, "itail", 8, 4)}
	fsrv, err := cloud.NewServer(cloudCls, tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsrv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer fsrv.Close()
	fclient, err := edge.DialCloud(fsrv.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fclient.Close()
	feats := make([]*tensor.Tensor, 6)
	for i := range feats {
		feats[i] = tensor.Randn(rng, 1, 8, 3, 3)
	}
	fBefore := fsrv.Stats().Requests
	preds, confs, err := fclient.ClassifyFeaturesBatch(feats)
	if err != nil {
		t.Fatal(err)
	}
	if got := fsrv.Stats().Requests - fBefore; got != 1 {
		t.Fatalf("feature batch cost %d round trips, want 1", got)
	}
	for i, feat := range feats {
		pred, conf, err := fclient.ClassifyFeatures(feat)
		if err != nil {
			t.Fatal(err)
		}
		if preds[i] != pred || confs[i] != conf {
			t.Fatalf("feature %d: batch %d/%v, serial %d/%v (must be bitwise identical)",
				i, preds[i], confs[i], pred, conf)
		}
	}
}

// TestOffloadModesEndToEndBitwiseTCP is the acceptance test of the adaptive
// feature-vs-raw offload over real TCP: a tail-equipped server whose raw
// model is the partitioned composition tail∘main must produce bitwise
// identical predictions whether the edge uploads raw pixels, main-block
// features, or lets auto mode choose — and with FeatureBytes < ImageBytes,
// auto must resolve to features and send strictly fewer bytes than raw, both
// in the modeled accounting and on the wire.
func TestOffloadModesEndToEndBitwiseTCP(t *testing.T) {
	// An edge MEANet whose main block downsamples: 3×16×16 input (768-elem
	// images), main output 4×8×8 (256-elem features) — features are the
	// cheaper upload in float32 wire bytes too.
	rng := rand.New(rand.NewSource(90))
	backbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "edgeoffload", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	tail := &cloud.Tail{Body: nn.Identity{}, Exit: models.NewExit(rng, "offtail", m.MainOutChannels(), 4)}
	srv, err := cloud.NewServer(cloud.Partitioned(m.Main, tail), tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const batches, perBatch = 2, 6
	inputs := make([]*tensor.Tensor, batches)
	for i := range inputs {
		inputs[i] = tensor.Randn(rng, 1, perBatch, 3, 16, 16)
	}
	// Modeled costs use the float32 wire sizes: features strictly cheaper.
	cost := &edge.CostParams{
		Compute:      energy.EdgeGPUCIFAR(),
		WiFi:         energy.DefaultWiFi(),
		ImageBytes:   4 * 3 * 16 * 16,                        // 3072
		FeatureBytes: 4 * int64(m.MainOutChannels()) * 8 * 8, // 1024
	}

	type run struct {
		dec   []core.Decision
		rep   edge.Report
		wire  uint64
		trips uint64
	}
	runMode := func(mode edge.OffloadMode) run {
		t.Helper()
		client, err := edge.DialCloud(srv.Addr().String(), edge.DialConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		rt, err := edge.NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, client, cost)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetOffloadMode(mode); err != nil {
			t.Fatal(err)
		}
		before := srv.Stats().Requests
		var dec []core.Decision
		for _, x := range inputs {
			d, err := rt.Classify(x)
			if err != nil {
				t.Fatal(err)
			}
			dec = append(dec, d...)
		}
		return run{dec: dec, rep: rt.Report(), wire: client.BytesSent(), trips: srv.Stats().Requests - before}
	}

	raw := runMode(edge.OffloadRaw)
	feat := runMode(edge.OffloadFeatures)
	auto := runMode(edge.OffloadAuto)

	for _, r := range []run{raw, feat, auto} {
		if r.trips != batches {
			t.Fatalf("offload cost %d round trips for %d batches, want %d", r.trips, batches, batches)
		}
	}
	for i := range raw.dec {
		if raw.dec[i].Exit != core.ExitCloud {
			t.Fatalf("instance %d did not exit at cloud: %+v", i, raw.dec[i])
		}
		if raw.dec[i].Pred != feat.dec[i].Pred || raw.dec[i].Pred != auto.dec[i].Pred ||
			raw.dec[i].Exit != feat.dec[i].Exit || raw.dec[i].Exit != auto.dec[i].Exit {
			t.Fatalf("instance %d diverged across modes: raw %+v, features %+v, auto %+v (must be bitwise identical)",
				i, raw.dec[i], feat.dec[i], auto.dec[i])
		}
	}

	// Auto resolved to features: strictly fewer bytes than raw, modeled and
	// on the wire.
	const n = batches * perBatch
	if raw.rep.BytesSent != n*cost.ImageBytes || raw.rep.RawUploads != n {
		t.Fatalf("raw accounting: %+v", raw.rep)
	}
	if auto.rep.BytesSent != n*cost.FeatureBytes || auto.rep.FeatureUploads != n {
		t.Fatalf("auto accounting (should match features): %+v", auto.rep)
	}
	if auto.rep.BytesSent >= raw.rep.BytesSent {
		t.Fatalf("auto modeled bytes %d not strictly fewer than raw %d", auto.rep.BytesSent, raw.rep.BytesSent)
	}
	if auto.wire >= raw.wire {
		t.Fatalf("auto wire bytes %d not strictly fewer than raw %d", auto.wire, raw.wire)
	}
	if auto.wire != feat.wire {
		t.Fatalf("auto wire bytes %d differ from features %d", auto.wire, feat.wire)
	}
}

func TestTCPClientClosedClassifyFails(t *testing.T) {
	cls := buildCloudModel(t, 6)
	srv, err := cloud.NewServer(cls, nil)
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
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	rng := rand.New(rand.NewSource(7))
	if _, _, err := client.Classify(tensor.Randn(rng, 1, 3, 8, 8)); err == nil {
		t.Fatal("classify succeeded on closed client")
	}
}

// TestWireByteCountersAgree pins the wire-byte accounting fix: the client's
// BytesSent and the server's BytesIn both count whole frames (header
// included), so after a mixed workload — single classifies, a batch frame,
// pings — the two ends must agree bitwise. Before the fix the client omitted
// the 17-byte frame header, so the counters drifted by one header per
// request.
func TestWireByteCountersAgree(t *testing.T) {
	cls := buildCloudModel(t, 100)
	srv, err := cloud.NewServer(cls, nil)
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

	rng := rand.New(rand.NewSource(101))
	if err := client.Ping(); err != nil { // zero-payload frame: header only
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := client.Classify(tensor.Randn(rng, 1, 3, 8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	imgs := make([]*tensor.Tensor, 4)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 1, 3, 8, 8)
	}
	if _, _, err := client.ClassifyBatch(imgs); err != nil {
		t.Fatal(err)
	}

	// Every request has been answered, so the server has read every frame
	// the client wrote.
	sent := client.BytesSent()
	if sent == 0 {
		t.Fatal("client byte counter not updated")
	}
	if got := srv.Stats().BytesIn; got != sent {
		t.Fatalf("client sent %d wire bytes, server received %d — counters must agree bitwise", sent, got)
	}
}

// TestTCPClientLinkEstimateAndLoad exercises the live-estimation plumbing end
// to end over a shaped link: after a few round trips the client must hold a
// plausible RTT/bandwidth estimate and the server's piggybacked load status.
func TestTCPClientLinkEstimateAndLoad(t *testing.T) {
	cls := buildCloudModel(t, 110)
	srv, err := cloud.NewServer(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := edge.DialCloud(srv.Addr().String(), edge.DialConfig{
		Link: netsim.Link{Latency: 3 * time.Millisecond, Mbps: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(111))
	imgs := make([]*tensor.Tensor, 4)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 1, 3, 8, 8)
	}
	const trips = 5
	for i := 0; i < trips; i++ {
		if _, _, err := client.ClassifyBatch(imgs); err != nil {
			t.Fatal(err)
		}
	}
	est := client.LinkEstimate()
	if est.Samples != trips {
		t.Fatalf("estimator folded %d samples, want %d", est.Samples, trips)
	}
	// ~12KB batch frames through a 20 Mbps + 3ms link: the effective
	// throughput estimate must land below the configured bandwidth (the
	// send phase includes the latency) but within the right order of
	// magnitude, and the turnaround must be positive.
	if est.Mbps <= 1 || est.Mbps > 25 {
		t.Fatalf("implausible bandwidth estimate %.2f Mbps for a 20 Mbps link", est.Mbps)
	}
	if est.RTT <= 0 || est.RTT > time.Second {
		t.Fatalf("implausible RTT estimate %v", est.RTT)
	}
	load, ok := client.CloudLoad()
	if !ok {
		t.Fatal("no load status piggybacked on result frames")
	}
	// An unbatched server reports no queue; the dispatch that answered us
	// counted itself in Active, so the signal is within [0, small].
	if load.QueueDepth != 0 {
		t.Fatalf("unbatched server reported queue depth %d", load.QueueDepth)
	}
}
