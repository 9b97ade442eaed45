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

// TestRuntimeAutoPicksCheaperRepresentation: over real TCP to a
// tail-equipped server whose raw model is tail∘main, auto mode uploads the
// representation the cost model prices lower. With FeatureBytes < ImageBytes
// it ships features: the modeled bytes, the feature upload count and the
// wire bytes are the features mode's, strictly below raw's, and so is the
// communication energy. With features the dearer upload it ships raw. The
// predictions never move (TestServingConformance pins them bitwise).
func TestRuntimeAutoPicksCheaperRepresentation(t *testing.T) {
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

	const n = 6
	x := tensor.Randn(rng, 1, n, 3, 16, 16)
	cost := &edge.CostParams{
		Compute:      energy.EdgeGPUCIFAR(),
		WiFi:         energy.DefaultWiFi(),
		ImageBytes:   4 * 3 * 16 * 16,                        // 3072
		FeatureBytes: 4 * int64(m.MainOutChannels()) * 8 * 8, // 1024
	}
	type run struct {
		dec  []core.Decision
		rep  edge.Report
		wire uint64
	}
	runMode := func(mode edge.OffloadMode) run {
		t.Helper()
		client, err := edge.DialCloud(srv.Addr().String(), edge.DialConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		// Threshold 0: every instance of the untrained net goes to the cloud.
		rt, err := edge.NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, client, cost)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetOffloadMode(mode); err != nil {
			t.Fatal(err)
		}
		dec, err := rt.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		return run{dec: dec, rep: rt.Report(), wire: client.BytesSent()}
	}

	raw := runMode(edge.OffloadRaw)
	feat := runMode(edge.OffloadFeatures)
	auto := runMode(edge.OffloadAuto)
	if auto.rep.BytesSent != n*cost.FeatureBytes || auto.rep.FeatureUploads != n || auto.rep.RawUploads != 0 {
		t.Fatalf("auto did not pick the cheaper features representation: %+v", auto.rep)
	}
	if auto.rep.BytesSent >= raw.rep.BytesSent {
		t.Fatalf("auto modeled bytes %d not strictly fewer than raw %d", auto.rep.BytesSent, raw.rep.BytesSent)
	}
	if auto.wire != feat.wire || auto.wire >= raw.wire {
		t.Fatalf("wire bytes: auto %d, features %d, raw %d; want auto == features < raw", auto.wire, feat.wire, raw.wire)
	}
	if auto.rep.Energy.CommJ != feat.rep.Energy.CommJ || feat.rep.Energy.CommJ >= raw.rep.Energy.CommJ {
		t.Fatalf("comm energy: auto %v, features %v, raw %v; want auto == features < raw",
			auto.rep.Energy.CommJ, feat.rep.Energy.CommJ, raw.rep.Energy.CommJ)
	}

	// When features are the dearer representation, auto uploads raw.
	cost.FeatureBytes = 4 * cost.ImageBytes
	dear := runMode(edge.OffloadAuto)
	if dear.rep.BytesSent != n*cost.ImageBytes || dear.rep.RawUploads != n || dear.rep.FeatureUploads != 0 {
		t.Fatalf("auto should upload raw when features cost more: %+v", dear.rep)
	}
	for i := range raw.dec {
		if raw.dec[i].Exit != core.ExitCloud {
			t.Fatalf("instance %d did not exit at the cloud: %+v", i, raw.dec[i])
		}
		for _, r := range []run{feat, auto, dear} {
			if r.dec[i].Pred != raw.dec[i].Pred {
				t.Fatalf("instance %d: %d, raw %d (predictions must not depend on the representation)",
					i, r.dec[i].Pred, raw.dec[i].Pred)
			}
		}
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
