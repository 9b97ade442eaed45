package cloud

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// startStageServer brings up one stage hop on loopback.
func startStageServer(t *testing.T, chain []nn.Layer, down Downstream) *Server {
	t.Helper()
	s, err := NewServer(nil, nil, WithStage(StageConfig{Chain: chain, Downstream: down}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialHop(t *testing.T, s *Server) *edge.TCPClient {
	t.Helper()
	c, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// relayRouted ships one source-routed activation request through a transport.
func relayRouted(c Downstream, batch *tensor.Tensor, ttl uint8, pos int, bounds []int) ([]protocol.Result, []protocol.StageStatus, error) {
	reply, err := c.Infer(protocol.InferRequest{Rep: protocol.RepActivation, TTL: ttl, Pos: pos, Bounds: bounds, Tensor: batch})
	return reply.Results, reply.Hops, err
}

// TestRelayTTLExhausted drives a frame whose hop budget runs out at a
// non-terminal hop: the chain must answer with an error instead of
// forwarding — the cycle guard.
func TestRelayTTLExhausted(t *testing.T) {
	cls := testClassifier(t, 43)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	terminal := startStageServer(t, chain, nil)
	first := startStageServer(t, chain, dialHop(t, terminal))
	client := dialHop(t, first)

	rng := rand.New(rand.NewSource(44))
	batch := tensor.Randn(rng, 1, 1, 3, 8, 8)
	if _, _, err := relayRouted(client, batch, 0, 0, []int{1}); err == nil || !strings.Contains(err.Error(), "TTL exhausted") {
		t.Fatalf("ttl=0 through a non-terminal hop: %v", err)
	}
	// A terminal hop needs no hop budget: ttl=0 straight at it still serves.
	direct := dialHop(t, terminal)
	mid := chain[0].Forward(batch, false)
	if _, _, err := relayRouted(direct, mid, 0, 1, nil); err != nil {
		t.Fatalf("ttl=0 at the terminal hop refused: %v", err)
	}
}

// TestStageOnlyServerRejectsClassify pins the pure-relay-hop contract: a
// server with only a chain answers classify frames with an error (not a
// crash, not a hang) and keeps the connection serving relays.
func TestStageOnlyServerRejectsClassify(t *testing.T) {
	cls := testClassifier(t, 45)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	s := startStageServer(t, chain, nil)
	client := dialHop(t, s)
	rng := rand.New(rand.NewSource(46))
	img := tensor.Randn(rng, 1, 3, 8, 8)
	if _, _, err := client.Classify(img); err == nil || !strings.Contains(err.Error(), "raw mode not supported") {
		t.Fatalf("stage-only server served a raw classify: %v", err)
	}
	if _, _, err := relayRouted(client, img.Reshape(1, 3, 8, 8), 1, 0, nil); err != nil {
		t.Fatalf("relay broken after rejected classify: %v", err)
	}
}

// TestRelayRejectsMalformedPayloads: garbage payloads and unbatched tensors
// get error frames; the connection survives.
//
// meanet:frame-writer
func TestRelayRejectsMalformedPayloads(t *testing.T) {
	cls := testClassifier(t, 47)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	s := startStageServer(t, chain, nil)
	client := dialHop(t, s)

	rng := rand.New(rand.NewSource(48))
	flat := tensor.Randn(rng, 1, 192) // rank 1, no batch dim — client itself must refuse
	if _, _, err := relayRouted(client, flat, 1, 0, nil); err == nil {
		t.Fatal("client relayed a non-NCHW tensor")
	}
	// The server-side rank check needs a hand-built frame.
	// (The encoder refuses it too, so: activation header, TTL 1, no route.)
	payload := append([]byte{byte(protocol.RepActivation), 1, 0, 0, 0}, protocol.EncodeTensor(tensor.Randn(rng, 1, 6))...)
	f := protocol.Frame{
		Type:    protocol.MsgInfer,
		ID:      7,
		Payload: payload,
	}
	resp := s.dispatch(f)
	if resp.Type != protocol.MsgError || !strings.Contains(string(resp.Payload), "NCHW") {
		t.Fatalf("rank-3 activation answered with %s %q", resp.Type, resp.Payload)
	}
	if resp := s.dispatch(protocol.Frame{Type: protocol.MsgInfer, ID: 8, Payload: []byte{1, 2}}); resp.Type != protocol.MsgError {
		t.Fatalf("garbage relay payload answered with %s", resp.Type)
	}
}

// In-process fake downstreams for the slot-release and shed-propagation
// tests: the hop must work against any transport that carries relays.

// failingDown fails every attempt at the transport level.
type failingDown struct{ calls atomic.Int64 }

func (d *failingDown) Infer(protocol.InferRequest) (protocol.InferReply, error) {
	d.calls.Add(1)
	return protocol.InferReply{}, errors.New("dial tcp: connection refused (test stand-in)")
}

func (d *failingDown) Probe(uint8) ([]protocol.StageStatus, error) {
	return nil, errors.New("dial tcp: connection refused (test stand-in)")
}

func (d *failingDown) LinkEstimate() linkest.Estimate { return linkest.Estimate{} }

// sheddingDown refuses every attempt by admission control, carrying a hint.
type sheddingDown struct {
	retry time.Duration
	calls atomic.Int64
}

func (d *sheddingDown) Infer(protocol.InferRequest) (protocol.InferReply, error) {
	d.calls.Add(1)
	return protocol.InferReply{}, &protocol.ShedError{RetryAfter: d.retry}
}

func (d *sheddingDown) Probe(uint8) ([]protocol.StageStatus, error) {
	return nil, &protocol.ShedError{RetryAfter: d.retry}
}

func (d *sheddingDown) LinkEstimate() linkest.Estimate { return linkest.Estimate{} }

// forwardingChain is the two-unit chain of the fake-downstream tests: the hop
// runs unit 0 and must forward unit 1's span.
var forwardingChain = []nn.Layer{nn.Identity{}, nn.Identity{}}

// TestRelaySlotReleasedOnDownstreamError pins the relay-slot accounting on
// the failure path: with a single relay slot and a dead downstream, every
// sequential relay must still be ANSWERED (with the downstream error), not
// parked behind a leaked slot. Before reading this as trivial, note the slot
// is taken in the read loop and released in a deferred recv on the dispatch
// goroutine — this test is what keeps that pairing honest.
func TestRelaySlotReleasedOnDownstreamError(t *testing.T) {
	down := &failingDown{}
	s, err := NewServer(nil, nil, WithStage(StageConfig{Chain: forwardingChain, Downstream: down}))
	if err != nil {
		t.Fatal(err)
	}
	s.stageInflight = 1
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(49))
	batch := tensor.Randn(rng, 1, 1, 3, 8, 8)
	for i := 0; i < 3; i++ {
		_, _, err := relayRouted(client, batch, 4, 0, []int{1})
		if err == nil || !strings.Contains(err.Error(), "downstream relay") {
			t.Fatalf("relay %d: want the downstream error surfaced promptly, got %v", i, err)
		}
	}
	if got := down.calls.Load(); got != 3 {
		t.Fatalf("dead downstream attempted %d times for 3 relays", got)
	}
}

// TestDownstreamShedPropagatesAsShed pins the chain shed contract end to end:
// a downstream refusal by admission control must come back upstream as
// MsgShed — errors.Is(_, ErrShed) with the RetryAfter hint preserved — never
// as a generic MsgError, or the edge would charge a failure (and burn a
// retry) for what is a zero-charge hold.
func TestDownstreamShedPropagatesAsShed(t *testing.T) {
	const hint = 40 * time.Millisecond
	down := &sheddingDown{retry: hint}
	s, err := NewServer(nil, nil, WithStage(StageConfig{Chain: forwardingChain, Downstream: down}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(50))
	_, _, err = relayRouted(client, tensor.Randn(rng, 1, 1, 3, 8, 8), 4, 0, []int{1})
	if !errors.Is(err, protocol.ErrShed) {
		t.Fatalf("downstream shed surfaced as a non-shed error: %v", err)
	}
	var se *protocol.ShedError
	if !errors.As(err, &se) {
		t.Fatalf("shed error lost its type through the chain: %v", err)
	}
	if se.RetryAfter != hint {
		t.Fatalf("retry-after hint %v survived the hop as %v", hint, se.RetryAfter)
	}
}

// TestNewServerStageOnly: a pure relay hop needs no models, but a server with
// neither models nor a chain is still rejected.
func TestNewServerStageOnly(t *testing.T) {
	if _, err := NewServer(nil, nil); err == nil {
		t.Fatal("model-less, stage-less server accepted")
	}
	if _, err := NewServer(nil, nil, WithStage(StageConfig{Chain: []nn.Layer{nn.Identity{}}})); err != nil {
		t.Fatalf("stage-only server rejected: %v", err)
	}
}

// TestLegacyStaticRelayRejected names the legacy static peer: a type-12 frame
// still carrying an activation payload (TTL byte + tensor, the deleted static
// relay) is answered with a MsgError that says what replaced it, counted in
// Stats.Errors — never a panic, never a dropped connection: the very next
// frames on the SAME connection, a chain probe on the same wire value and a
// routed relay, are served.
func TestLegacyStaticRelayRejected(t *testing.T) {
	cls := testClassifier(t, 52)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	s := startStageServer(t, chain, nil)
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
			t.Fatalf("connection did not survive: %v", err)
		}
		if resp.ID != f.ID {
			t.Fatalf("reply for frame %d, want %d", resp.ID, f.ID)
		}
		return resp
	}

	rng := rand.New(rand.NewSource(53))
	batch := tensor.Randn(rng, 1, 2, 3, 8, 8)
	legacy := append([]byte{4}, protocol.EncodeTensor(batch)...)
	resp := exchange(protocol.Frame{Type: protocol.MsgRelay, ID: 1, Payload: legacy})
	if resp.Type != protocol.MsgError {
		t.Fatalf("legacy static relay answered with %s", resp.Type)
	}
	for _, want := range []string{"static relay was removed", "MsgInfer"} {
		if !strings.Contains(string(resp.Payload), want) {
			t.Fatalf("legacy error %q does not say %q", resp.Payload, want)
		}
	}
	if st := s.Stats(); st.Errors != 1 || st.InstancesServed != 0 {
		t.Fatalf("legacy frame accounting: %+v, want 1 error and nothing served", st)
	}

	if resp := exchange(protocol.Frame{Type: protocol.MsgRelay, ID: 2, Payload: protocol.EncodeRelayProbe(4)}); resp.Type != protocol.MsgResultBatch {
		t.Fatalf("probe after the legacy frame answered with %s %q", resp.Type, resp.Payload)
	}
	routed := inferPayload(t, protocol.InferRequest{Rep: protocol.RepActivation, TTL: 4, Tensor: batch})
	if resp := exchange(protocol.Frame{Type: protocol.MsgInfer, ID: 3, Payload: routed}); resp.Type != protocol.MsgResultBatch {
		t.Fatalf("routed relay after the legacy frame answered with %s %q", resp.Type, resp.Payload)
	}
	if st := s.Stats(); st.Errors != 1 || st.InstancesServed != 2 {
		t.Fatalf("after recovery: %+v, want still 1 error and 2 instances served", st)
	}
}

// relayMember is a replica-set member for the hop-level failover test: an
// edge.Transport that carries relays and answers from a script.
type relayMember struct {
	edge.NoWire
	err   func() error // nil = serve zeroed results
	calls atomic.Int64
}

func (m *relayMember) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	m.calls.Add(1)
	if m.err != nil {
		return protocol.InferReply{}, m.err()
	}
	return protocol.InferReply{Results: make([]protocol.Result, req.Instances()), Hops: []protocol.StageStatus{{}}}, nil
}

func (m *relayMember) Probe(uint8) ([]protocol.StageStatus, error) {
	if m.err != nil {
		return nil, m.err()
	}
	return []protocol.StageStatus{{}}, nil
}

func (m *relayMember) Classify(*tensor.Tensor) (int, float64, error) {
	return 0, 0, errors.New("relay-only member")
}

func (m *relayMember) ClassifyBatch([]*tensor.Tensor) ([]int, []float64, error) {
	return nil, nil, errors.New("relay-only member")
}

func deadMember() *relayMember {
	return &relayMember{err: func() error { return errors.New("dial tcp: connection refused (test stand-in)") }}
}

func sheddingMember(retry time.Duration) *relayMember {
	return &relayMember{err: func() error { return &protocol.ShedError{RetryAfter: retry} }}
}

// TestReplicaSetDownstream drives a hop whose downstream is a replica set
// behind edge.MultiClient — the hop keeps no health model of its own, so the
// router's semantics must come through the frame replies: a dead member is
// tried at most once and then left alone while the healthy one serves every
// frame; when every member sheds the hop answers MsgShed with a hold hint
// (both were offered the frame first); sheds mixed with a dead member are an
// error, not a hold — something is actually broken.
func TestReplicaSetDownstream(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	relayFrame := func(id uint64) protocol.Frame {
		payload := inferPayload(t, protocol.InferRequest{Rep: protocol.RepActivation, TTL: 4, Bounds: []int{1}, Tensor: tensor.Randn(rng, 1, 1, 3, 8, 8)})
		return protocol.Frame{Type: protocol.MsgInfer, ID: id, Payload: payload}
	}
	hopOver := func(members ...*relayMember) *Server {
		clients := make([]edge.CloudClient, len(members))
		for i, m := range members {
			clients[i] = m
		}
		set, err := edge.NewMultiClient(clients, nil, edge.MultiConfig{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(nil, nil, WithStage(StageConfig{Chain: forwardingChain, Downstream: set}))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	bad, good := deadMember(), &relayMember{}
	s := hopOver(bad, good)
	for id := uint64(1); id <= 8; id++ {
		if resp := s.dispatch(relayFrame(id)); resp.Type != protocol.MsgResultBatch {
			t.Fatalf("frame %d answered with %s %q", id, resp.Type, resp.Payload)
		}
	}
	if bad.calls.Load() > 1 || good.calls.Load() != 8 {
		t.Fatalf("attempts: dead member %d, healthy member %d (want ≤1, 8)", bad.calls.Load(), good.calls.Load())
	}
	if st := s.Stats(); st.Relayed != 8 || st.Errors != 0 {
		t.Fatalf("hop stats with one dead member: %+v", st)
	}
	// A probe fails over the same way.
	if resp := s.dispatch(protocol.Frame{Type: protocol.MsgRelay, ID: 9, Payload: protocol.EncodeRelayProbe(4)}); resp.Type != protocol.MsgResultBatch {
		t.Fatalf("probe through the replica set answered with %s %q", resp.Type, resp.Payload)
	}

	shedA, shedB := sheddingMember(300*time.Millisecond), sheddingMember(700*time.Millisecond)
	resp := hopOver(shedA, shedB).dispatch(relayFrame(10))
	if resp.Type != protocol.MsgShed {
		t.Fatalf("all-shed replica set answered with %s %q, want MsgShed", resp.Type, resp.Payload)
	}
	retryAfter, _, err := protocol.DecodeShed(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if retryAfter <= 0 || retryAfter > 700*time.Millisecond {
		t.Fatalf("propagated hint %v, want within the members' hints (0, 700ms]", retryAfter)
	}
	if shedA.calls.Load() != 1 || shedB.calls.Load() != 1 {
		t.Fatalf("shed attempts: A %d, B %d (want 1, 1)", shedA.calls.Load(), shedB.calls.Load())
	}

	mixed := hopOver(sheddingMember(300*time.Millisecond), deadMember())
	if resp := mixed.dispatch(relayFrame(11)); resp.Type != protocol.MsgError {
		t.Fatalf("mixed shed+failure replica set answered with %s, want MsgError", resp.Type)
	}
	if st := mixed.Stats(); st.Errors != 1 {
		t.Fatalf("mixed outage not counted as an error: %+v", st)
	}
}
