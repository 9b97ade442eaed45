package cloud

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// heldTensor is a tensor a test keeps a reference to, beside a copy of the
// bits it had when it was taken.
type heldTensor struct {
	t    *tensor.Tensor
	bits []float32
}

func hold(t *tensor.Tensor) heldTensor {
	return heldTensor{t: t, bits: slices.Clone(t.Data())}
}

func (h heldTensor) intact() bool { return slices.Equal(h.t.Data(), h.bits) }

// recordingDown is an in-process next hop: it finishes the serving chain on
// the activation it is handed and keeps that activation for good, the way a
// transport that retained its request would.
type recordingDown struct {
	chain []nn.Layer

	mu   sync.Mutex
	held []heldTensor // guarded by mu
}

func (d *recordingDown) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	d.mu.Lock()
	d.held = append(d.held, hold(req.Tensor))
	d.mu.Unlock()
	logits := nn.NewSequential("rest", d.chain[req.Pos:]...).Forward(req.Tensor, false)
	reply := protocol.InferReply{Results: make([]protocol.Result, req.Instances())}
	for i := range reply.Results {
		reply.Results[i] = protocol.ResultOf(logits.Row(i))
	}
	return reply, nil
}

func (d *recordingDown) Probe(uint8) ([]protocol.StageStatus, error) { return nil, nil }
func (d *recordingDown) LinkEstimate() linkest.Estimate              { return linkest.Estimate{} }

// gatedModel blocks every forward until its gate is closed.
type gatedModel struct {
	Model
	gate chan struct{}
}

func (m *gatedModel) Logits(x *tensor.Tensor, train bool) *tensor.Tensor {
	<-m.gate
	return m.Model.Logits(x, train)
}

// checkPoolBounds fails t when either wire-side pool retains more than its
// stated constant.
func checkPoolBounds(t *testing.T) {
	if b := protocol.PoolBytes(); b > protocol.MaxPoolBytes {
		t.Errorf("wire pool retains %d bytes, bound %d", b, protocol.MaxPoolBytes)
	}
	if b := requestFloats.Bytes(); b > requestPoolBytes {
		t.Errorf("request pool retains %d bytes, bound %d", b, requestPoolBytes)
	}
}

// settleHeld waits until the process holds want unreleased frame payloads,
// and fails t if it never does: a count that stays above want is a payload
// dropped unreleased, one below it a payload released twice.
func settleHeld(t *testing.T, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for protocol.HeldPayloads() != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := protocol.HeldPayloads(); got != want {
		t.Fatalf("%s: %d frame payloads held once traffic quiesced, want %d", what, got, want)
	}
}

// TestWireBuffersNeverAlias pins the lifetimes of the pooled wire buffers on
// both ends of a round trip: the client's encoded request and frame, the
// server's request payload, its decoded request tensor and its collector's
// stacked input all go back to their pools while other requests are in
// flight, and none may be handed out while something still reads it. Eight
// goroutines pipeline single-feature requests (the collector), 16-image raw
// batches (one direct forward) and activation relays through a one-hop
// stage (a span that returns its input and forwards it, one that does not,
// and one that ends the chain here) over ONE connection into a batching
// server whose feature tail has an Identity body; every reply must match a
// serial replay bitwise, and every reply and every activation the next hop
// kept must still hold its bits after all later round trips. Shed, error
// and timed-out frames must release their payloads exactly once, and
// neither pool may retain more than its stated constant.
func TestWireBuffersNeverAlias(t *testing.T) {
	if protocol.MaxPoolBytes > 8<<20 || requestPoolBytes > 8<<20 {
		t.Fatalf("pool bounds %d and %d bytes, want at most 8 MiB each", protocol.MaxPoolBytes, requestPoolBytes)
	}
	base := protocol.HeldPayloads()
	cls := testClassifier(t, 71)
	tail := featTestTail(t, 71, 8, 5)
	// Unit 0 is an Identity, so a span [0, 1) hands its input on as its
	// output: the decoded request tensor itself goes to the next hop.
	chain := append([]nn.Layer{nn.Identity{}}, core.FlattenChain(cls.Backbone, cls.Exit)...)
	down := &recordingDown{chain: chain}
	client := dialHop(t, listenOn(t, cls, tail,
		WithBatching(BatchConfig{MaxBatch: 8, Linger: time.Millisecond}),
		WithStage(StageConfig{Chain: chain, Downstream: down})))

	rng := rand.New(rand.NewSource(72))
	var reqs []protocol.InferRequest
	for i := 0; i < 6; i++ {
		reqs = append(reqs,
			protocol.InferRequest{Rep: protocol.RepFeatures, Tensor: tensor.Randn(rng, 1, 8, 3, 3)},
			protocol.InferRequest{Rep: protocol.RepFeatures, Tensor: tensor.Randn(rng, 1, 8, 3, 3)},
			protocol.InferRequest{Rep: protocol.RepRaw, Tensor: tensor.Randn(rng, 1, 16, 3, 8, 8)},
			protocol.InferRequest{Rep: protocol.RepActivation, TTL: 4, Bounds: []int{1}, Tensor: tensor.Randn(rng, 1, 4, 3, 8, 8)},
			protocol.InferRequest{Rep: protocol.RepActivation, TTL: 4, Bounds: []int{3}, Tensor: tensor.Randn(rng, 1, 4, 3, 8, 8)},
			protocol.InferRequest{Rep: protocol.RepActivation, TTL: 4, Tensor: tensor.Randn(rng, 1, 4, 3, 8, 8)},
		)
	}
	want := make([][]protocol.Result, len(reqs))
	for i, req := range reqs {
		reply, err := client.Infer(req)
		if err != nil {
			t.Fatalf("serial request %d (%s): %v", i, req.Rep, err)
		}
		want[i] = reply.Results
		checkPoolBounds(t)
	}

	// A scribbler churns both pools with the lengths this traffic uses and
	// poisons every buffer it takes, so a buffer handed back while something
	// still reads it is overwritten within microseconds, not only when the
	// next request of its size happens to come along.
	var payloads, floats []int
	for _, req := range reqs {
		n := protocol.InferWireSize(len(req.Bounds), req.Tensor.Shape()...)
		payloads = append(payloads, n, n-protocol.FrameWireSize(0))
		floats = append(floats, req.Tensor.Numel())
	}
	for k := 2; k <= 8; k++ {
		floats = append(floats, k*reqs[0].Tensor.Numel()) // stacked collector inputs
	}
	stop := make(chan struct{})
	scribbled := make(chan struct{})
	go func() {
		defer close(scribbled)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b := protocol.NewBuffer(payloads[i%len(payloads)])
			b = b[:cap(b)]
			for j := range b {
				b[j] = 0xa5
			}
			protocol.Recycle(b)
			f := requestFloats.Get(floats[i%len(floats)])
			for j := range f {
				f[j] = float32(math.NaN())
			}
			requestFloats.Put(f)
		}
	}()
	const goroutines, calls = 8, 120
	type heldReply struct {
		req  int
		got  []protocol.Result
		bits []protocol.Result
	}
	helds := make([][]heldReply, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				i := (g*7 + c) % len(reqs)
				reply, err := client.Infer(reqs[i])
				if err != nil {
					t.Errorf("goroutine %d call %d (request %d, %s): %v", g, c, i, reqs[i].Rep, err)
					return
				}
				if !slices.Equal(reply.Results, want[i]) {
					t.Errorf("goroutine %d call %d (request %d, %s): results %v, serial replay %v", g, c, i, reqs[i].Rep, reply.Results, want[i])
					return
				}
				helds[g] = append(helds[g], heldReply{i, reply.Results, slices.Clone(reply.Results)})
				checkPoolBounds(t)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-scribbled
	if t.Failed() {
		t.FailNow()
	}
	for g, hs := range helds {
		for c, h := range hs {
			if !slices.Equal(h.got, h.bits) || !slices.Equal(h.got, want[h.req]) {
				t.Fatalf("goroutine %d: the reply to call %d changed over %d later round trips", g, c, len(hs)-1-c)
			}
		}
	}
	down.mu.Lock()
	kept := down.held
	down.mu.Unlock()
	if len(kept) == 0 {
		t.Fatal("no activation reached the next hop")
	}
	for i, h := range kept {
		if !h.intact() {
			t.Fatalf("activation %d of %d the next hop kept changed over later round trips", i, len(kept))
		}
	}
	settleHeld(t, base, "pipelined traffic")

	// An error frame: the server releases the request's payload, the
	// client the error text's.
	if _, err := client.Infer(protocol.InferRequest{Rep: protocol.RepRaw, Tensor: tensor.Randn(rng, 1, 2, 5, 8, 8)}); err == nil {
		t.Fatal("a 5-channel batch was served")
	}
	settleHeld(t, base, "error frame")
	checkPoolBounds(t)

	// A shed frame: with one dispatch allowed in flight and that one parked
	// in the model, a second connection's request is read and refused.
	gated := &gatedModel{Model: cls, gate: make(chan struct{})}
	shedder := listenOn(t, gated, nil, WithShedding(ShedPolicy{MaxInFlight: 1}))
	first, second := dialHop(t, shedder), dialHop(t, shedder)
	parked := make(chan error, 1)
	go func() {
		_, err := first.Infer(reqs[2])
		parked <- err
	}()
	for shedder.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := second.Infer(reqs[2]); !errors.Is(err, protocol.ErrShed) {
		t.Fatalf("request past the in-flight limit answered %v, want a shed", err)
	}
	close(gated.gate)
	if err := <-parked; err != nil {
		t.Fatalf("parked request: %v", err)
	}
	settleHeld(t, base, "shed frame")
	checkPoolBounds(t)

	// A timed-out frame: the reply arrives after its caller gave up, and
	// the client's read loop drops and releases it. The ping behind it on
	// the same connection returns only once the read loop has passed it.
	slow := &gatedModel{Model: cls, gate: make(chan struct{})}
	late := listenOn(t, slow, nil)
	lateClient, err := edge.DialCloud(late.Addr().String(), edge.DialConfig{RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer lateClient.Close()
	if _, err := lateClient.Infer(reqs[2]); err == nil || errors.Is(err, protocol.ErrShed) {
		t.Fatalf("request to a parked model answered %v, want a timeout", err)
	}
	close(slow.gate)
	if err := pingUntilAnswered(lateClient); err != nil {
		t.Fatal(err)
	}
	settleHeld(t, base, "timed-out frame")
	checkPoolBounds(t)
}

// listenOn brings up a server on loopback.
func listenOn(t *testing.T, raw Model, tail *Tail, opts ...Option) *Server {
	t.Helper()
	s, err := NewServer(raw, tail, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// pingUntilAnswered pings c until a ping comes back: the first ones may time
// out behind a reply the server is still computing.
func pingUntilAnswered(c *edge.TCPClient) error {
	var err error
	for i := 0; i < 100; i++ {
		if err = c.Ping(); err == nil {
			return nil
		}
	}
	return fmt.Errorf("ping never answered: %w", err)
}
