package edge

// The chain-level exclusion window on a fake clock, against a scripted first
// hop: it opens on a failed relay, a shed opens it for the hint, overlapping
// failures extend it and never shorten it, it never skips the chain without a
// direct replica to skip to, and a probe bypasses it. Plus the replica-set
// half of the same design: MultiClient carries relays over its router,
// passing over — not excluding — a member that cannot relay.

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// scriptedHop is the far end of a chain client's transport: every request
// frame is handed to the test, which answers it when and how it likes.
type scriptedHop struct {
	t      *testing.T
	conn   net.Conn
	frames chan protocol.Frame
}

func newScriptedHop(t *testing.T) (*scriptedHop, *TCPClient) {
	t.Helper()
	near, far := net.Pipe()
	// Buffered past the most frames any scenario leaves unanswered at once
	// (three), so the reader never blocks behind the test.
	h := &scriptedHop{t: t, conn: far, frames: make(chan protocol.Frame, 16)}
	go func() {
		for {
			f, err := protocol.ReadFrame(far)
			if err != nil {
				close(h.frames)
				return
			}
			h.frames <- f
		}
	}()
	client := NewClientOnConn(near, DialConfig{RequestTimeout: 5 * time.Second})
	t.Cleanup(func() { client.Close(); far.Close() })
	return h, client
}

// next waits for the chain client's next request frame.
func (h *scriptedHop) next() protocol.Frame {
	h.t.Helper()
	select {
	case f, ok := <-h.frames:
		if !ok {
			h.t.Fatal("transport closed while waiting for a frame")
		}
		return f
	case <-time.After(5 * time.Second):
		h.t.Fatal("no frame reached the first hop")
	}
	panic("unreachable")
}

// idle asserts no frame is waiting: the last call never touched the chain.
func (h *scriptedHop) idle(why string) {
	h.t.Helper()
	select {
	case f := <-h.frames:
		h.t.Fatalf("%s: a %s frame reached the first hop", why, f.Type)
	default:
	}
}

func (h *scriptedHop) reply(f protocol.Frame, typ protocol.MsgType, payload []byte) {
	h.t.Helper()
	if err := protocol.WriteFrame(h.conn, protocol.Frame{Type: typ, ID: f.ID, Payload: payload}); err != nil {
		h.t.Fatal(err)
	}
}

func (h *scriptedHop) fail(f protocol.Frame) {
	h.reply(f, protocol.MsgError, []byte("downstream relay: connection refused (test stand-in)"))
}

func (h *scriptedHop) shed(f protocol.Frame, hint time.Duration) {
	h.reply(f, protocol.MsgShed, protocol.EncodeShed(hint, protocol.LoadStatus{}))
}

func (h *scriptedHop) serve(f protocol.Frame, n int) {
	h.reply(f, protocol.MsgResultBatch,
		protocol.EncodeReply(protocol.InferReply{Results: make([]protocol.Result, n), Hops: []protocol.StageStatus{{}}}))
}

// classifyAsync starts one single-image classify and returns its outcome
// channel, so the test can answer the relay frame in between.
func classifyAsync(c *ChainClient) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Classify(tensor.New(3, 4, 4))
		done <- err
	}()
	return done
}

func newWindowChain(t *testing.T, direct Transport) (*ChainClient, *scriptedHop, *fakeClock) {
	t.Helper()
	hop, next := newScriptedHop(t)
	c, err := NewRoutedChainClient(next, ChainConfig{
		Chain:  []nn.Layer{nn.Identity{}, nn.Identity{}},
		Cuts:   []core.CutPoint{1},
		Direct: direct,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c.mu.Lock()
	c.now = clk.now
	c.mu.Unlock()
	return c, hop, clk
}

func (c *ChainClient) windowEnd() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.until
}

func TestChainExclusionWindow(t *testing.T) {
	direct := &scriptReplica{}
	c, hop, clk := newWindowChain(t, direct)
	t0 := clk.now()
	mustServe := func(done <-chan error, what string) {
		t.Helper()
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	// Healthy: the relay is served, no window, the direct replica untouched.
	done := classifyAsync(c)
	hop.serve(hop.next(), 1)
	mustServe(done, "healthy classify")
	if !c.windowEnd().IsZero() || direct.callCount() != 0 {
		t.Fatalf("healthy chain opened a window (%v) or used the fallback (%d calls)", c.windowEnd(), direct.callCount())
	}

	// A failed relay falls back AND opens the window for the router's
	// failure exclusion.
	done = classifyAsync(c)
	hop.fail(hop.next())
	mustServe(done, "failed relay must fall back to direct")
	if got, want := c.windowEnd(), t0.Add(defaultFailureExclusion); !got.Equal(want) {
		t.Fatalf("window after a failure ends %v, want %v", got, want)
	}
	if direct.callCount() != 1 {
		t.Fatalf("fallback served %d calls, want 1", direct.callCount())
	}

	// Inside the window batches go straight to direct: one round trip, and
	// the chain is not touched.
	clk.advance(100 * time.Millisecond)
	mustServe(classifyAsync(c), "classify inside the window")
	hop.idle("classify inside the window")
	if direct.callCount() != 2 {
		t.Fatalf("fallback served %d calls, want 2", direct.callCount())
	}

	// A probe always traverses, and leaves the window where it was —
	// whether it fails or succeeds.
	for _, healthy := range []bool{false, true} {
		probed := make(chan error, 1)
		go func() { _, err := c.ProbeChain(); probed <- err }()
		f := hop.next()
		if _, err := protocol.DecodeRelayProbe(f.Payload); f.Type != protocol.MsgRelay || err != nil {
			t.Fatalf("probe inside the window sent a %s frame", f.Type)
		}
		if healthy {
			hop.serve(f, 0)
		} else {
			hop.fail(f)
		}
		if err := <-probed; (err == nil) != healthy {
			t.Fatalf("probe (healthy=%v) returned %v", healthy, err)
		}
		if got, want := c.windowEnd(), t0.Add(defaultFailureExclusion); !got.Equal(want) {
			t.Fatalf("probe (healthy=%v) moved the window to %v, want %v", healthy, got, want)
		}
	}

	// Without a direct replica there is nothing to skip to: the chain is
	// tried even inside the window, its error surfaces, the window stays.
	// (No call is in flight, so the test may disarm the fallback in place.)
	c.direct = nil
	done = classifyAsync(c)
	hop.fail(hop.next())
	if err := <-done; err == nil || !strings.Contains(err.Error(), "downstream relay") {
		t.Fatalf("unarmed chain failure surfaced as %v", err)
	}
	if got, want := c.windowEnd(), t0.Add(defaultFailureExclusion); !got.Equal(want) {
		t.Fatalf("unarmed failure moved the window to %v, want %v", got, want)
	}
	c.direct = direct

	// The window lapses: the chain is tried again, and a success leaves it
	// open for business.
	clk.advance(defaultFailureExclusion)
	done = classifyAsync(c)
	hop.serve(hop.next(), 1)
	mustServe(done, "classify after the window lapsed")
	if direct.callCount() != 2 {
		t.Fatalf("recovered chain still used the fallback (%d calls)", direct.callCount())
	}

	// Three relays in flight at once, answered one by one as time passes: a
	// shed opens the window for ITS hint; a failure whose own window would
	// end earlier must not shorten it; one whose window ends later extends
	// it. Sheds are refusals, not failures.
	t1 := clk.now()
	failures := c.ChainStats().ChainFailures
	inflight := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { inflight <- <-classifyAsync(c) }()
	}
	fa, fb, fd := hop.next(), hop.next(), hop.next()
	hop.shed(fa, time.Second)
	mustServe(inflight, "shed relay must fall back to direct")
	if got, want := c.windowEnd(), t1.Add(time.Second); !got.Equal(want) {
		t.Fatalf("window after a shed ends %v, want the hint %v", got, want)
	}
	if got := c.ChainStats().ChainFailures; got != failures {
		t.Fatalf("a shed was counted as a chain failure (%d → %d)", failures, got)
	}
	clk.advance(100 * time.Millisecond)
	hop.fail(fb)
	mustServe(inflight, "failed relay inside the window must fall back to direct")
	if got, want := c.windowEnd(), t1.Add(time.Second); !got.Equal(want) {
		t.Fatalf("an overlapping failure SHORTENED the window to %v, want %v", got, want)
	}
	clk.advance(800 * time.Millisecond)
	hop.fail(fd)
	mustServe(inflight, "failed relay inside the window must fall back to direct")
	if got, want := c.windowEnd(), t1.Add(900*time.Millisecond+defaultFailureExclusion); !got.Equal(want) {
		t.Fatalf("a later failure did not extend the window: ends %v, want %v", got, want)
	}

	// A shed that carries no hint holds for the default.
	clk.advance(time.Second)
	t2 := clk.now()
	done = classifyAsync(c)
	hop.shed(hop.next(), 0)
	mustServe(done, "hintless shed must fall back to direct")
	if got, want := c.windowEnd(), t2.Add(protocol.DefaultRetryAfter); !got.Equal(want) {
		t.Fatalf("window after a hintless shed ends %v, want %v", got, want)
	}

	// Books: every instance went down exactly one path.
	st := c.ChainStats()
	if st.ChainInstances != 2 || st.FallbackInstances != 6 || st.ChainFailures != 4 || st.DirectFailures != 0 {
		t.Fatalf("books after the scenario: %+v, want 2 chain / 6 fallback / 4 chain failures", st)
	}
}

// relayReplica is a scriptReplica that also serves a chain.
type relayReplica struct {
	scriptReplica
}

func (r *relayReplica) Capabilities() (protocol.Capabilities, bool) {
	return protocol.Capabilities{TailCapable: true, ServesChain: true}, true
}

func (r *relayReplica) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	reply, err := r.scriptReplica.Infer(req)
	if err == nil && req.Rep == protocol.RepActivation {
		reply.Hops = []protocol.StageStatus{{}}
	}
	return reply, err
}

func (r *relayReplica) Probe(uint8) ([]protocol.StageStatus, error) {
	if err := r.outcome(); err != nil {
		return nil, err
	}
	return []protocol.StageStatus{{}}, nil
}

// relayRouted ships one source-routed activation request through a router.
func relayRouted(m *MultiClient, batch *tensor.Tensor, ttl uint8, pos int, bounds []int) ([]protocol.Result, []protocol.StageStatus, error) {
	reply, err := m.Infer(protocol.InferRequest{Rep: protocol.RepActivation, TTL: ttl, Pos: pos, Bounds: bounds, Tensor: batch})
	return reply.Results, reply.Hops, err
}

// TestMultiRelayPassesOverNonRelayer: in a mixed replica set a member that
// cannot relay is passed over — never called, never charged a failure, never
// excluded — so it keeps serving the classify traffic it CAN carry; a set
// with no relayer at all fails a relay with a plain error, not a hold.
func TestMultiRelayPassesOverNonRelayer(t *testing.T) {
	plain, relayer := &scriptReplica{}, &relayReplica{}
	m, err := NewMultiClient([]CloudClient{plain, relayer}, nil, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	batch := tensor.New(2, 3, 4, 4)
	for i := 0; i < 20; i++ {
		rs, hops, err := relayRouted(m, batch, 4, 1, []int{2})
		if err != nil || len(rs) != 2 || len(hops) != 1 {
			t.Fatalf("relay %d through the mixed set: %d results, %d hops, err %v", i, len(rs), len(hops), err)
		}
	}
	if _, err := m.Probe(4); err != nil {
		t.Fatalf("probe through the mixed set: %v", err)
	}
	if plain.callCount() != 0 || relayer.callCount() != 21 {
		t.Fatalf("calls: non-relayer %d, relayer %d (want 0, 21)", plain.callCount(), relayer.callCount())
	}
	for _, rs := range m.ReplicaStats() {
		if rs.Failures != 0 || rs.Excluded {
			t.Fatalf("relay traffic charged or excluded a member: %+v", rs)
		}
	}
	// The passed-over member still serves what it can carry.
	relayer.set(nil, errors.New("connection reset (test stand-in)"))
	if _, _, err := m.ClassifyBatch(testImgs(1)); err != nil {
		t.Fatalf("classify through the mixed set: %v", err)
	}
	if plain.callCount() == 0 {
		t.Fatal("the non-relayer never served a classify")
	}

	// A dead relayer next to a member that cannot relay: a failure, not a
	// hold, and the member that was only passed over stays open.
	if _, _, err := relayRouted(m, batch, 4, 1, nil); err == nil || errors.Is(err, protocol.ErrShed) {
		t.Fatalf("relay with the only relayer dead: %v", err)
	}
	if st := m.ReplicaStats(); st[0].Excluded || st[0].Failures != 0 {
		t.Fatalf("the non-relayer was excluded by relay traffic: %+v", st[0])
	}

	none, err := NewMultiClient([]CloudClient{&scriptReplica{}, &scriptReplica{}}, nil, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := relayRouted(none, batch, 4, 1, nil); err == nil || errors.Is(err, protocol.ErrShed) {
		t.Fatalf("relay through a set with no relayer: %v", err)
	}
}

// TestMultiRelayShedSemantics: every relay-capable member shedding is ONE
// shed (the zero-charge hold propagates up the chain) even with a
// non-relaying member open beside them; a shed mixed with a dead member is a
// plain failure.
func TestMultiRelayShedSemantics(t *testing.T) {
	a, b := &relayReplica{}, &relayReplica{}
	a.set(&protocol.ShedError{RetryAfter: 300 * time.Millisecond}, nil)
	b.set(&protocol.ShedError{RetryAfter: 700 * time.Millisecond}, nil)
	m, err := NewMultiClient([]CloudClient{a, &scriptReplica{}, b}, nil, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	batch := tensor.New(1, 3, 4, 4)
	_, _, err = relayRouted(m, batch, 4, 1, nil)
	var se *protocol.ShedError
	if !errors.As(err, &se) || se.RetryAfter <= 0 || se.RetryAfter > 700*time.Millisecond {
		t.Fatalf("all relayers shed: %v, want one ShedError within the members' hints", err)
	}
	if a.callCount() != 1 || b.callCount() != 1 {
		t.Fatalf("shed attempts: %d and %d (want 1, 1)", a.callCount(), b.callCount())
	}

	c, d := &relayReplica{}, &relayReplica{}
	c.set(&protocol.ShedError{RetryAfter: 300 * time.Millisecond}, nil)
	d.set(nil, errors.New("connection reset (test stand-in)"))
	mixed, err := NewMultiClient([]CloudClient{c, d}, nil, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := relayRouted(mixed, batch, 4, 1, nil); err == nil || errors.Is(err, protocol.ErrShed) {
		t.Fatalf("shed + dead relayer: %v, want a plain failure", err)
	}
}
