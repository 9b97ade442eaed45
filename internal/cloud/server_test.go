package cloud

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// testClassifier returns a small untrained (but deterministic) classifier.
func testClassifier(t *testing.T, seed int64) *models.Classifier {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "cloudtest", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return models.NewClassifier(rng, b, 5)
}

func startServer(t *testing.T, cls *models.Classifier, tail *Tail) *Server {
	t.Helper()
	s, err := NewServer(cls, tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestServerClassifyMatchesLocalModel(t *testing.T) {
	cls := testClassifier(t, 1)
	s := startServer(t, cls, nil)
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(2))
	img := tensor.Randn(rng, 1, 3, 8, 8)
	pred, conf, err := client.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	// Local reference.
	inproc := &edge.InProcClient{Model: cls}
	wantPred, wantConf, err := inproc.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if pred != wantPred {
		t.Fatalf("remote pred %d, local pred %d", pred, wantPred)
	}
	if diff := conf - wantConf; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("remote conf %v, local conf %v", conf, wantConf)
	}
}

func TestServerPing(t *testing.T) {
	s := startServer(t, testClassifier(t, 3), nil)
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestServerRejectsWrongGeometry(t *testing.T) {
	s := startServer(t, testClassifier(t, 4), nil)
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rng := rand.New(rand.NewSource(5))
	// 5 channels instead of 3: kernels must reject it, server must answer
	// with an error frame, and the connection must survive.
	if _, _, err := client.Classify(tensor.Randn(rng, 1, 5, 8, 8)); err == nil {
		t.Fatal("wrong-geometry image accepted")
	}
	// The same client still works afterwards.
	if _, _, err := client.Classify(tensor.Randn(rng, 1, 3, 8, 8)); err != nil {
		t.Fatalf("connection dead after error frame: %v", err)
	}
}

// TestServerDropsCorruptStream writes bytes that are deliberately NOT a
// frame — proving the server drops a corrupt stream — so it is a designated
// raw writer.
//
// meanet:frame-writer
func TestServerDropsCorruptStream(t *testing.T) {
	s := startServer(t, testClassifier(t, 6), nil)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not a MEA1 frame at all....")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a corrupt stream instead of dropping it")
	}
}

// inferPayload encodes one MsgInfer payload.
func inferPayload(t testing.TB, req protocol.InferRequest) []byte {
	t.Helper()
	payload, err := protocol.EncodeInfer(req)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestServerFeatureMode(t *testing.T) {
	cls := testClassifier(t, 7)
	rng := rand.New(rand.NewSource(8))
	tail := &Tail{
		Body: nn.Identity{},
		Exit: models.NewExit(rng, "tail", 4, 5),
	}
	s := startServer(t, cls, tail)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	feat := tensor.Randn(rng, 1, 4, 4, 4)
	err = protocol.WriteFrame(conn, protocol.Frame{
		Type: protocol.MsgInfer, ID: 77, Payload: inferPayload(t, protocol.InferRequest{Rep: protocol.RepFeatures, Tensor: feat}),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := protocol.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != protocol.MsgResultBatch || f.ID != 77 {
		t.Fatalf("feature response %s id %d", f.Type, f.ID)
	}
}

func TestClientClassifyFeaturesEndToEnd(t *testing.T) {
	cls := testClassifier(t, 20)
	rng := rand.New(rand.NewSource(21))
	tail := &Tail{
		Body: nn.Identity{},
		Exit: models.NewExit(rng, "tail2", 8, 5),
	}
	s := startServer(t, cls, tail)
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	feat := tensor.Randn(rng, 1, 8, 3, 3)
	pred, conf, err := client.ClassifyFeatures(feat)
	if err != nil {
		t.Fatal(err)
	}
	if pred < 0 || pred >= 5 || conf <= 0 || conf > 1 {
		t.Fatalf("implausible feature-mode result %d/%v", pred, conf)
	}
	// Reference: run the tail locally.
	batch := feat.Reshape(1, 8, 3, 3)
	want := tail.Logits(batch, false).ArgMaxRows()[0]
	if pred != want {
		t.Fatalf("feature-mode pred %d, local tail pred %d", pred, want)
	}
	// Raw and feature modes interleave on one connection.
	if _, _, err := client.Classify(tensor.Randn(rng, 1, 3, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.ClassifyFeatures(feat); err != nil {
		t.Fatal(err)
	}
}

func TestServerFeatureModeUnsupported(t *testing.T) {
	s := startServer(t, testClassifier(t, 9), nil)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rng := rand.New(rand.NewSource(10))
	feat := tensor.Randn(rng, 1, 4, 4, 4)
	err = protocol.WriteFrame(conn, protocol.Frame{
		Type: protocol.MsgInfer, ID: 1, Payload: inferPayload(t, protocol.InferRequest{Rep: protocol.RepFeatures, Tensor: feat}),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := protocol.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != protocol.MsgError {
		t.Fatalf("expected error frame, got %s", f.Type)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	cls := testClassifier(t, 11)
	s := startServer(t, cls, nil)
	const clients, perClient = 6, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perClient; i++ {
				if _, _, err := client.Classify(tensor.Randn(rng, 1, 3, 8, 8)); err != nil {
					errs <- err
					return
				}
			}
		}(int64(c))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.Stats().Requests; got != clients*perClient {
		t.Fatalf("server saw %d requests, want %d", got, clients*perClient)
	}
}

func TestServerCloseIsIdempotentAndDrains(t *testing.T) {
	s := startServer(t, testClassifier(t, 12), nil)
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	if _, _, err := client.Classify(tensor.Randn(rng, 1, 3, 8, 8)); err == nil {
		t.Fatal("classify succeeded against a closed server")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, nil); err == nil {
		t.Fatal("nil classifier accepted")
	}
}

// deadWriteConn is a net.Conn whose reads replay a canned request stream and
// whose writes always fail — the shape of a peer that vanished mid-pipeline.
type deadWriteConn struct {
	r      *bytes.Reader
	mu     sync.Mutex
	writes int
	closes int
}

func (c *deadWriteConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *deadWriteConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	return 0, io.ErrClosedPipe
}
func (c *deadWriteConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closes++
	return nil
}
func (c *deadWriteConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *deadWriteConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *deadWriteConn) SetDeadline(t time.Time) error      { return nil }
func (c *deadWriteConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *deadWriteConn) SetWriteDeadline(t time.Time) error { return nil }

// TestHandleConnLatchesFirstWriteFailure is the regression test for the
// writeResp error latch: several requests answered onto a dead connection
// must count ONE error and attempt ONE write and close, not one per
// in-flight dispatch.
func TestHandleConnLatchesFirstWriteFailure(t *testing.T) {
	s, err := NewServer(testClassifier(t, 30), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := protocol.WriteFrame(&buf, protocol.Frame{Type: protocol.MsgPing, ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	conn := &deadWriteConn{r: bytes.NewReader(buf.Bytes())}
	s.active.Add(1) // handleConn's removeConn decrements it
	s.wg.Add(1)
	s.handleConn(conn)
	if got := s.errorCount.Load(); got != 1 {
		t.Fatalf("Errors = %d after a dead connection, want 1 (latched)", got)
	}
	if conn.writes != 1 {
		t.Fatalf("server attempted %d writes on a dead connection, want 1", conn.writes)
	}
	// One close from the latch plus one from removeConn's normal teardown.
	if conn.closes != 2 {
		t.Fatalf("connection closed %d times, want 2", conn.closes)
	}
}

// featTestTail builds a small deterministic feature tail.
func featTestTail(t *testing.T, seed int64, inFeat, classes int) *Tail {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return &Tail{Body: nn.Identity{}, Exit: models.NewExit(rng, "tailtest", inFeat, classes)}
}

// TestFeatureBatchFrameMatchesSerial ships a client-assembled feature batch
// (one NCHW features request) and checks it bitwise against per-feature
// ClassifyFeatures calls.
func TestFeatureBatchFrameMatchesSerial(t *testing.T) {
	tail := featTestTail(t, 31, 8, 5)
	s := startServer(t, testClassifier(t, 31), tail)
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(32))
	feats := make([]*tensor.Tensor, 6)
	for i := range feats {
		feats[i] = tensor.Randn(rng, 1, 8, 3, 3)
	}
	preds, confs, err := client.ClassifyFeaturesBatch(feats)
	if err != nil {
		t.Fatal(err)
	}
	for i, feat := range feats {
		pred, conf, err := client.ClassifyFeatures(feat)
		if err != nil {
			t.Fatal(err)
		}
		if preds[i] != pred || confs[i] != conf {
			t.Fatalf("feature %d: batch %d/%v, single %d/%v (must be bitwise identical)",
				i, preds[i], confs[i], pred, conf)
		}
	}
}

// TestFeatureBatchFrameUnsupported: a server with no tail must answer the
// feature batch frame with an error frame, not kill the connection.
func TestFeatureBatchFrameUnsupported(t *testing.T) {
	s := startServer(t, testClassifier(t, 33), nil)
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rng := rand.New(rand.NewSource(34))
	if _, _, err := client.ClassifyFeaturesBatch([]*tensor.Tensor{tensor.Randn(rng, 1, 8, 3, 3)}); err == nil {
		t.Fatal("tail-less server accepted a feature batch")
	}
	// The connection survives the error frame.
	if _, _, err := client.Classify(tensor.Randn(rng, 1, 3, 8, 8)); err != nil {
		t.Fatalf("connection dead after feature batch rejection: %v", err)
	}
}

// TestFeatureModeThroughCollector: with batching enabled on a server that
// has a tail, concurrent single-feature requests coalesce through their own
// collector and stay bitwise identical to the unbatched feature path.
func TestFeatureModeThroughCollector(t *testing.T) {
	cls := testClassifier(t, 35)
	tail := featTestTail(t, 35, 8, 5)
	plain := startServer(t, cls, tail)
	batched, err := NewServer(cls, tail,
		WithBatching(BatchConfig{MaxBatch: 8, Linger: 100 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	if err := batched.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { batched.Close() })

	rng := rand.New(rand.NewSource(36))
	const n = 8
	feats := make([]*tensor.Tensor, n)
	for i := range feats {
		feats[i] = tensor.Randn(rng, 1, 8, 3, 3)
	}
	ref, err := edge.DialCloud(plain.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	wantPred := make([]int, n)
	wantConf := make([]float64, n)
	for i, f := range feats {
		wantPred[i], wantConf[i], err = ref.ClassifyFeatures(f)
		if err != nil {
			t.Fatal(err)
		}
	}

	client, err := edge.DialCloud(batched.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	gotPred := make([]int, n)
	gotConf := make([]float64, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pred, conf, err := client.ClassifyFeatures(feats[i])
			if err != nil {
				errs <- err
				return
			}
			gotPred[i], gotConf[i] = pred, conf
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range feats {
		if gotPred[i] != wantPred[i] || gotConf[i] != wantConf[i] {
			t.Fatalf("feature %d: collector %d/%v, unbatched %d/%v (must be bitwise identical)",
				i, gotPred[i], gotConf[i], wantPred[i], wantConf[i])
		}
	}
	st := batched.Stats()
	if st.BatchedRequests != n {
		t.Fatalf("feature collector served %d requests, want %d", st.BatchedRequests, n)
	}
	if st.Batches >= n {
		t.Fatalf("feature requests did not coalesce: %d batches for %d requests", st.Batches, n)
	}
	t.Logf("feature mode: %d requests in %d forwards", st.BatchedRequests, st.Batches)
}

func TestServerStatsByteCounters(t *testing.T) {
	cls := testClassifier(t, 14)
	s := startServer(t, cls, nil)
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rng := rand.New(rand.NewSource(15))
	if _, _, err := client.Classify(tensor.Randn(rng, 1, 3, 8, 8)); err != nil {
		t.Fatal(err)
	}
	// The client can read its reply before the handler goroutine adds that
	// frame to BytesOut (the count follows the write), so wait for it.
	st := s.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.BytesOut == 0 && time.Now().Before(deadline); st = s.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Fatalf("byte counters not updated: %+v", st)
	}
	if st.TotalConns != 1 {
		t.Fatalf("TotalConns = %d, want 1", st.TotalConns)
	}
}

// TestServerShedsUnderSaturation drives the admission-control path: with the
// in-flight limit exceeded, classify requests (single and batch frames) are
// answered with shed frames carrying the RetryAfter hint and load snapshot,
// pings still work, and service resumes once the load drains.
func TestServerShedsUnderSaturation(t *testing.T) {
	cls := testClassifier(t, 40)
	s, err := NewServer(cls, nil, WithShedding(ShedPolicy{MaxInFlight: 1, RetryAfter: 123 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Saturate: pin the in-flight gauge past the limit.
	s.inflight.Add(5)
	rng := rand.New(rand.NewSource(41))
	img := tensor.Randn(rng, 1, 3, 8, 8)
	_, _, err = client.Classify(img)
	var shed *edge.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("saturated classify returned %v, want *edge.ShedError", err)
	}
	if !errors.Is(err, edge.ErrShed) {
		t.Fatal("shed error does not match edge.ErrShed")
	}
	if shed.RetryAfter != 123*time.Millisecond {
		t.Fatalf("RetryAfter hint %v, want 123ms", shed.RetryAfter)
	}
	if !shed.HasLoad {
		t.Fatal("shed frame carried no load snapshot")
	}
	// Batch frames are shed too.
	if _, _, err := client.ClassifyBatch([]*tensor.Tensor{img, img}); !errors.Is(err, edge.ErrShed) {
		t.Fatalf("saturated batch returned %v, want shed", err)
	}
	// Probes are never shed: a busy server must stay observable.
	if err := client.Ping(); err != nil {
		t.Fatalf("ping shed or failed under saturation: %v", err)
	}
	if got := s.Stats().Sheds; got != 2 {
		t.Fatalf("server counted %d sheds, want 2", got)
	}
	if got := client.Sheds(); got != 2 {
		t.Fatalf("client counted %d sheds, want 2", got)
	}
	if got := s.Stats().Requests; got != 1 { // the ping; sheds are refusals, not requests
		t.Fatalf("sheds counted as requests: %d", got)
	}

	// Load drains: the SAME connection serves again.
	s.inflight.Add(-5)
	if _, _, err := client.Classify(img); err != nil {
		t.Fatalf("classify after drain: %v", err)
	}
	if got := s.Stats().InstancesServed; got != 1 {
		t.Fatalf("InstancesServed = %d after one served classify, want 1", got)
	}
}

// TestServerShedsOnQueueDepth covers the second admission limit: parked
// collector work past MaxQueue sheds new classify frames.
func TestServerShedsOnQueueDepth(t *testing.T) {
	cls := testClassifier(t, 42)
	s, err := NewServer(cls, nil,
		WithBatching(BatchConfig{MaxBatch: 8, Linger: time.Millisecond}),
		WithShedding(ShedPolicy{MaxQueue: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(43))
	img := tensor.Randn(rng, 1, 3, 8, 8)
	// Pin the queue gauge past the limit (the collector itself would drain a
	// real queue nondeterministically fast).
	s.batch.queued.Add(3)
	if _, _, err := client.Classify(img); !errors.Is(err, edge.ErrShed) {
		t.Fatalf("deep queue returned %v, want shed", err)
	}
	s.batch.queued.Add(-3)
	if _, _, err := client.Classify(img); err != nil {
		t.Fatalf("classify after queue drain: %v", err)
	}
	// Default RetryAfter hint applies when the policy leaves it zero.
	if s.shedPol.RetryAfter != 50*time.Millisecond {
		t.Fatalf("default RetryAfter = %v, want 50ms", s.shedPol.RetryAfter)
	}
}

// TestShedWritesLatchedOnDeadConn is the regression test for the shutdown
// race: shed frames (written inline by the read loop) and results (written
// by in-flight dispatches) interleave on one connection, and BOTH must go
// through the same first-write-failure latch — on a dead connection the
// server attempts ONE write, counts ONE error and closes once (plus the
// normal teardown close), no matter how sheds and results interleave.
func TestShedWritesLatchedOnDeadConn(t *testing.T) {
	s, err := NewServer(testClassifier(t, 44), nil, WithShedding(ShedPolicy{MaxInFlight: 1}))
	if err != nil {
		t.Fatal(err)
	}
	s.inflight.Add(5) // every classify frame sheds
	rng := rand.New(rand.NewSource(45))
	img := inferPayload(t, protocol.InferRequest{Rep: protocol.RepRaw, Tensor: tensor.Randn(rng, 1, 3, 8, 8)})
	var buf bytes.Buffer
	for i := 0; i < 6; i++ {
		f := protocol.Frame{Type: protocol.MsgPing, ID: uint64(i)}
		if i%2 == 0 {
			f = protocol.Frame{Type: protocol.MsgInfer, ID: uint64(i), Payload: img}
		}
		if err := protocol.WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	conn := &deadWriteConn{r: bytes.NewReader(buf.Bytes())}
	s.active.Add(1) // handleConn's removeConn decrements it
	s.wg.Add(1)
	s.handleConn(conn)
	if got := s.errorCount.Load(); got != 1 {
		t.Fatalf("Errors = %d after a dead connection, want 1 (latched)", got)
	}
	if conn.writes != 1 {
		t.Fatalf("server attempted %d writes on a dead connection, want 1", conn.writes)
	}
	if conn.closes != 2 {
		t.Fatalf("connection closed %d times, want 2", conn.closes)
	}
}

// TestRetiredFrameTypesRejected names the pre-MsgInfer peer: each retired
// request type — with a well-formed payload of its day — and the retired
// single-result reply type are answered with a MsgError that names MsgInfer,
// counted in Stats.Errors; nothing panics, nothing is served, and the SAME
// connection keeps serving a following MsgInfer.
//
// meanet:frame-writer
func TestRetiredFrameTypesRejected(t *testing.T) {
	cls := testClassifier(t, 60)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	s, err := NewServer(cls, nil, WithStage(StageConfig{Chain: chain}),
		WithBatching(BatchConfig{MaxBatch: 4, Linger: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(f protocol.Frame) protocol.Frame {
		t.Helper()
		if err := protocol.WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
		resp, err := protocol.ReadFrame(conn)
		if err != nil {
			t.Fatalf("connection did not survive a type-%d frame: %v", f.Type, err)
		}
		if resp.ID != f.ID {
			t.Fatalf("reply for frame %d, want %d", resp.ID, f.ID)
		}
		return resp
	}

	rng := rand.New(rand.NewSource(61))
	img := tensor.Randn(rng, 1, 3, 8, 8)
	batch := tensor.Randn(rng, 1, 2, 3, 8, 8)
	oldResult := make([]byte, 8) // int32 class + float32 confidence
	oldRoute := append([]byte{4, 0, 0, 0}, protocol.EncodeTensor(batch)...)
	retired := []struct {
		typ     protocol.MsgType
		was     string
		payload []byte
	}{
		{1, "classify-raw", protocol.EncodeTensor(img)},
		{2, "classify-features", protocol.EncodeTensor(img)},
		{3, "result", oldResult},
		{7, "classify-batch", protocol.EncodeTensor(batch)},
		{9, "classify-features-batch", protocol.EncodeTensor(batch)},
		{13, "relay-routed", oldRoute},
	}
	for i, r := range retired {
		if !r.typ.Retired() {
			t.Fatalf("type %d (%s) is not marked retired", r.typ, r.was)
		}
		resp := exchange(protocol.Frame{Type: r.typ, ID: uint64(i + 1), Payload: r.payload})
		if resp.Type != protocol.MsgError || !strings.Contains(string(resp.Payload), "MsgInfer") {
			t.Fatalf("retired type %d (%s) answered with %s %q, want a MsgError naming MsgInfer",
				r.typ, r.was, resp.Type, resp.Payload)
		}
		if st := s.Stats(); st.Errors != uint64(i+1) || st.InstancesServed != 0 {
			t.Fatalf("after retired type %d: %+v, want %d errors and nothing served", r.typ, st, i+1)
		}
	}

	resp := exchange(protocol.Frame{Type: protocol.MsgInfer, ID: 99,
		Payload: inferPayload(t, protocol.InferRequest{Rep: protocol.RepRaw, Tensor: batch})})
	if resp.Type != protocol.MsgResultBatch {
		t.Fatalf("MsgInfer after the retired frames answered with %s %q", resp.Type, resp.Payload)
	}
	reply, err := protocol.DecodeReply(resp.Payload)
	if err != nil || len(reply.Results) != 2 {
		t.Fatalf("MsgInfer reply: %d results, %v", len(reply.Results), err)
	}
	if st := s.Stats(); st.Errors != uint64(len(retired)) || st.InstancesServed != 2 {
		t.Fatalf("after recovery: %+v, want still %d errors and 2 instances served", st, len(retired))
	}
}
