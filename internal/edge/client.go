// Package edge implements the edge runtime of the distributed system: the
// cloud transports (see Transport — real TCP with optional link shaping, a
// replica router, a partitioned chain, and an in-process client for
// deterministic simulation) and the inference runtime that executes
// Algorithm 2 with exit, byte and energy accounting.
package edge

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// DialConfig configures the TCP cloud client.
type DialConfig struct {
	// RequestTimeout bounds one classify round trip (default 10s).
	RequestTimeout time.Duration
	// Link, when non-zero, shapes uploads through a simulated WiFi/WAN link.
	Link netsim.Link
	// Redial, when non-nil, lets the client replace a broken connection
	// with a fresh one (DialCloud installs a redial of the original
	// address; NewClientOnConn callers may inject their own). Without it a
	// transport error is terminal, as before.
	Redial func() (net.Conn, error)
	// RedialBackoff is the wait before the first redial after a failure
	// (default 50ms); it doubles per consecutive failed redial up to 2s
	// (redialBackoffMax) and resets on success.
	RedialBackoff time.Duration
}

const (
	// dialTimeout bounds connection establishment.
	dialTimeout = 5 * time.Second
	// redialBackoffMax caps the exponential redial backoff.
	redialBackoffMax = 2 * time.Second
)

func (c *DialConfig) fillDefaults() {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 50 * time.Millisecond
	}
}

// TCPClient talks to a cloud.Server over one TCP connection. Requests are
// pipelined: any number of goroutines may have classify calls in flight
// concurrently; frames are matched back to callers by request ID, so one
// uplink carries many overlapping offloads (which is what lets a batching
// server coalesce them).
type TCPClient struct {
	calls // Classify, ClassifyBatch and their features twins, over Infer
	cfg   DialConfig

	wmu sync.Mutex // serializes frame writes onto the connection

	// mu guards conn, gen, closed, pending, nextID, broken, backoff,
	// nextRedial, redialing
	mu      sync.Mutex
	conn    net.Conn
	gen     uint64 // connection generation; bumped on every successful redial
	closed  bool
	pending map[uint64]chan clientResult
	nextID  uint64
	broken  error // transport error observed on the CURRENT connection

	// Redial backoff state: after a failed redial the client fails fast
	// until nextRedial, doubling the wait per consecutive failure.
	backoff    time.Duration
	nextRedial time.Time
	redialing  bool // a goroutine is dialing outside the lock; others fail fast

	bytesSent atomic.Uint64
	sheds     atomic.Uint64 // requests answered with a shed frame

	est *linkest.Estimator

	sigMu    sync.Mutex // guards lastLoad, haveLoad, caps, haveCaps
	lastLoad protocol.LoadStatus
	haveLoad bool
	caps     protocol.Capabilities
	haveCaps bool
}

// clientResult carries one matched response frame (or the transport error
// that ended the connection) to the goroutine that sent the request.
type clientResult struct {
	frame protocol.Frame
	err   error
}

var _ Transport = (*TCPClient)(nil)

// DialCloud connects to a cloud server. The client redials the address
// (with exponential backoff) if the connection later breaks, so a transient
// transport error no longer bricks the client for the life of the process.
func DialCloud(addr string, cfg DialConfig) (*TCPClient, error) {
	cfg.fillDefaults()
	if err := cfg.Link.Validate(); err != nil {
		return nil, err
	}
	if cfg.Redial == nil {
		link := cfg.Link
		cfg.Redial = func() (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, dialTimeout)
			if err != nil {
				return nil, err
			}
			return netsim.Shape(conn, link), nil
		}
	}
	conn, err := cfg.Redial()
	if err != nil {
		return nil, fmt.Errorf("edge: dial cloud %s: %w", addr, err)
	}
	return newTCPClient(conn, cfg), nil
}

// NewClientOnConn wraps an existing connection (used by tests to inject
// faulty transports). Without cfg.Redial a transport error is terminal —
// there is no address to redial.
func NewClientOnConn(conn net.Conn, cfg DialConfig) *TCPClient {
	cfg.fillDefaults()
	return newTCPClient(conn, cfg)
}

func newTCPClient(conn net.Conn, cfg DialConfig) *TCPClient {
	c := &TCPClient{
		cfg:     cfg,
		conn:    conn,
		pending: make(map[uint64]chan clientResult),
		backoff: cfg.RedialBackoff,
		est:     linkest.New(),
	}
	c.calls = calls{c.Infer}
	go c.readLoop(conn, c.gen)
	return c
}

// readLoop is the demultiplexer: it owns all reads from one connection and
// routes each response frame to the goroutine whose request ID it carries.
// Frames for requests that already timed out are dropped. A read error fails
// every request in flight on this connection; with a Redial configured, a
// LATER send may replace the connection (see send), so the error is terminal
// only for this generation.
func (c *TCPClient) readLoop(conn net.Conn, gen uint64) {
	for {
		f, err := protocol.ReadFrame(conn)
		if err != nil {
			c.fail(err, gen)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[f.ID]
		if ok {
			delete(c.pending, f.ID)
		}
		// A delivered response proves the link healthy end to end; only now
		// is the redial backoff credit restored (a successful DIAL is not
		// proof — an accept-then-die endpoint would otherwise reconnect at
		// full client rate for the whole outage). Only the CURRENT
		// generation's responses count: a late frame surfacing from a dead
		// connection's read loop says nothing about the replacement path.
		if gen == c.gen {
			c.backoff = c.cfg.RedialBackoff
			c.nextRedial = time.Time{}
		}
		c.mu.Unlock()
		if ok {
			ch <- clientResult{frame: f}
		}
	}
}

// fail marks generation gen of the transport broken and fans the error out
// to all waiters. A stale generation (the connection was already replaced by
// a redial) is a no-op: its waiters were drained when that generation first
// failed, and the pending map now belongs to the new connection.
func (c *TCPClient) fail(err error, gen uint64) {
	c.mu.Lock()
	if gen != c.gen {
		c.mu.Unlock()
		return
	}
	if c.broken == nil {
		c.broken = err
	}
	waiters := c.pending
	c.pending = make(map[uint64]chan clientResult)
	c.mu.Unlock()
	for _, ch := range waiters {
		ch <- clientResult{err: err}
	}
}

// reconnectLocked replaces a broken connection with a freshly dialed one.
// Caller holds c.mu with c.broken != nil; the lock is RELEASED around the
// dial itself (which can block for dialTimeout) so concurrent senders fail
// fast with "redial in progress" and Close never waits on a dial, and is
// re-held on return. The poisoned-stream safety argument is preserved: the
// old connection is never written to again — a brand-new connection (and
// generation) carries subsequent requests, so a partial frame left by a
// failed write can never be followed by more bytes.
func (c *TCPClient) reconnectLocked() error {
	if c.cfg.Redial == nil {
		return fmt.Errorf("edge: connection broken: %w", c.broken)
	}
	if c.redialing {
		return fmt.Errorf("edge: connection broken (redial in progress): %w", c.broken)
	}
	if now := time.Now(); now.Before(c.nextRedial) {
		return fmt.Errorf("edge: connection broken (redial in %v): %w",
			c.nextRedial.Sub(now).Round(time.Millisecond), c.broken)
	}
	c.redialing = true
	c.mu.Unlock()
	conn, err := c.cfg.Redial()
	c.mu.Lock()
	c.redialing = false
	if c.closed {
		if err == nil {
			conn.Close()
		}
		return errors.New("edge: client closed")
	}
	// Either outcome CONSUMES backoff credit — a successful dial does not
	// restore it: the next redial may not run before the current backoff
	// elapses, and the wait keeps doubling, until a response frame proves the
	// link healthy (see readLoop). Otherwise an endpoint that accepts and
	// immediately dies would be redialed at full client rate.
	c.nextRedial = time.Now().Add(c.backoff)
	c.backoff = min(2*c.backoff, redialBackoffMax)
	if err != nil {
		return fmt.Errorf("edge: redial: %w", err)
	}
	old := c.conn
	c.conn = conn
	c.broken = nil
	c.gen++
	// The new path may have different characteristics; discard the dead
	// connection's link estimate rather than adapt on stale numbers (the
	// runtime falls back to its static model until fresh samples mature).
	c.est.Reset()
	go c.readLoop(conn, c.gen)
	if old != nil {
		old.Close() // stale read loop exits as a no-op (generation moved on)
	}
	return nil
}

// send registers a waiter and writes one request frame. It returns the
// request ID, the waiter channel to receive the matched response on, and how
// long the frame write took (the serialization phase the link estimator
// consumes).
func (c *TCPClient) send(msgType protocol.MsgType, payload []byte) (uint64, chan clientResult, time.Duration, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, nil, 0, errors.New("edge: client closed")
	}
	if c.broken != nil {
		if err := c.reconnectLocked(); err != nil {
			c.mu.Unlock()
			return 0, nil, 0, err
		}
	}
	c.nextID++
	id := c.nextID
	ch := make(chan clientResult, 1)
	c.pending[id] = ch
	conn := c.conn
	gen := c.gen
	c.mu.Unlock()

	c.wmu.Lock()
	writeStart := time.Now()
	err := conn.SetWriteDeadline(writeStart.Add(c.cfg.RequestTimeout))
	if err == nil {
		err = protocol.WriteFrame(conn, protocol.Frame{Type: msgType, ID: id, Payload: payload})
	}
	writeDur := time.Since(writeStart)
	c.wmu.Unlock()
	if err != nil {
		// A failed write may have left a partial frame on the wire; the
		// byte stream is no longer trustworthy, so poison the connection
		// (failing all in-flight requests) rather than let later frames be
		// parsed mid-frame by the server. A redial (never a reuse) may
		// replace it on the next send.
		c.forget(id)
		c.fail(err, gen)
		return 0, nil, 0, fmt.Errorf("edge: send: %w", err)
	}
	c.bytesSent.Add(uint64(protocol.FrameWireSize(len(payload))))
	return id, ch, writeDur, nil
}

// forget drops a waiter registration (after a failed write or a timeout).
func (c *TCPClient) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// await blocks until the response for id arrives or the request times out.
// On timeout the waiter is deregistered, so a late response frame for this
// ID is discarded by the read loop instead of being mistaken for another
// request's answer.
func (c *TCPClient) await(id uint64, ch chan clientResult) (protocol.Frame, error) {
	timer := time.NewTimer(c.cfg.RequestTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return protocol.Frame{}, fmt.Errorf("edge: receive: %w", r.err)
		}
		return r.frame, nil
	case <-timer.C:
		c.forget(id)
		return protocol.Frame{}, errors.New("edge: request timed out")
	}
}

// roundTrip sends one request frame and waits for the response frame matched
// to it — the one exchange every call below is made of. Many round trips may
// overlap on the same connection. It also returns how long the write and the
// wait took, the two phases the link estimator consumes.
func (c *TCPClient) roundTrip(typ protocol.MsgType, payload []byte) (f protocol.Frame, writeDur, waitDur time.Duration, err error) {
	id, ch, writeDur, err := c.send(typ, payload)
	if err != nil {
		return protocol.Frame{}, 0, 0, err
	}
	waitStart := time.Now()
	f, err = c.await(id, ch)
	return f, writeDur, time.Since(waitStart), err
}

// exchange round-trips one inference-family frame (a request or a chain
// probe) and decodes the one reply layout. Every success captures the
// piggybacked server load; observeLink also feeds the link estimator (a
// payload-less probe would read as an absurdly fast link). A shed decodes to
// *protocol.ShedError; a MsgError reply — the one a server predating MsgInfer
// sends included — is an ordinary cloud failure.
func (c *TCPClient) exchange(typ protocol.MsgType, payload []byte, want int, observeLink bool) (protocol.InferReply, error) {
	f, writeDur, waitDur, err := c.roundTrip(typ, payload)
	if err != nil {
		return protocol.InferReply{}, err
	}
	switch f.Type {
	case protocol.MsgResultBatch:
		reply, err := protocol.DecodeReply(f.Payload)
		if err != nil {
			return protocol.InferReply{}, err
		}
		if len(reply.Results) != want {
			return protocol.InferReply{}, fmt.Errorf("edge: reply has %d results for %d instances", len(reply.Results), want)
		}
		if observeLink {
			c.est.Record(int64(protocol.FrameWireSize(len(payload))), writeDur, waitDur)
		}
		c.noteLoad(reply.Load)
		return reply, nil
	case protocol.MsgShed:
		return protocol.InferReply{}, c.shedResult(f.Payload)
	case protocol.MsgError:
		return protocol.InferReply{}, fmt.Errorf("edge: cloud error: %s", f.Payload)
	default:
		return protocol.InferReply{}, fmt.Errorf("edge: unexpected response type %s", f.Type)
	}
}

// Infer round-trips one inference request as a MsgInfer frame over the
// pipelined transport. Each success feeds THIS connection's link estimator,
// which is what gives a chain per-hop link estimation for free.
func (c *TCPClient) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	payload, err := protocol.EncodeInfer(req)
	if err != nil {
		return protocol.InferReply{}, err
	}
	return c.exchange(protocol.MsgInfer, payload, req.Instances(), true)
}

// Probe ships a zero-instance chain probe (see protocol.EncodeRelayProbe): a
// healthy return proves every transport leg of the chain, and the returned
// statuses enumerate the hops.
func (c *TCPClient) Probe(ttl uint8) ([]protocol.StageStatus, error) {
	reply, err := c.exchange(protocol.MsgRelay, protocol.EncodeRelayProbe(ttl), 0, false)
	return reply.Hops, err
}

// shedResult decodes a shed frame into the typed *protocol.ShedError, folding
// the piggybacked load snapshot into the last-seen server load (a shed is the
// backpressure signal at its sharpest) and counting the event. The link
// estimator is deliberately NOT fed: no inference ran, so the wait phase
// measured only the admission check — folding that in would bias the RTT
// estimate fast exactly when the server is slowest.
func (c *TCPClient) shedResult(payload []byte) error {
	retryAfter, load, err := protocol.DecodeShed(payload)
	if err != nil {
		return fmt.Errorf("edge: bad shed frame: %w", err)
	}
	c.sheds.Add(1)
	c.noteLoad(load)
	if retryAfter < 0 {
		retryAfter = 0
	}
	return &protocol.ShedError{RetryAfter: retryAfter, Load: load, HasLoad: true}
}

// Sheds reports how many of this client's requests the cloud answered with a
// shed frame.
func (c *TCPClient) Sheds() uint64 { return c.sheds.Load() }

// noteLoad records a piggybacked load snapshot.
func (c *TCPClient) noteLoad(load protocol.LoadStatus) {
	c.sigMu.Lock()
	c.lastLoad = load
	c.haveLoad = true
	c.sigMu.Unlock()
}

// LinkEstimate reports the live uplink estimate accumulated over this
// client's round trips (see linkest). The edge runtime consumes it for
// closed-loop offload adaptation.
func (c *TCPClient) LinkEstimate() linkest.Estimate {
	return c.est.Estimate()
}

// CloudLoad reports the most recent backpressure signal piggybacked by the
// server on a reply. ok is false until the first one arrives.
func (c *TCPClient) CloudLoad() (protocol.LoadStatus, bool) {
	c.sigMu.Lock()
	defer c.sigMu.Unlock()
	return c.lastLoad, c.haveLoad
}

// Ping round-trips a ping frame, verifying the link end to end.
func (c *TCPClient) Ping() error {
	f, _, _, err := c.roundTrip(protocol.MsgPing, nil)
	if err != nil {
		return err
	}
	if f.Type != protocol.MsgPong {
		return fmt.Errorf("edge: bad pong (type %s id %d)", f.Type, f.ID)
	}
	return nil
}

// Hello round-trips the capability handshake and caches the reply for
// Capabilities. A MsgError reply (a server predating the handshake) is an
// error to the caller but leaves the client usable with capabilities
// unknown; transport errors likewise. Safe to call again after a redial —
// the far end's capabilities are fixed per server, so the cache only ever
// converges.
func (c *TCPClient) Hello() (protocol.Capabilities, error) {
	f, _, _, err := c.roundTrip(protocol.MsgHello, nil)
	if err != nil {
		return protocol.Capabilities{}, err
	}
	switch f.Type {
	case protocol.MsgHello:
		caps, err := protocol.DecodeHello(f.Payload)
		if err != nil {
			return protocol.Capabilities{}, fmt.Errorf("edge: hello reply: %w", err)
		}
		c.sigMu.Lock()
		c.caps = caps
		c.haveCaps = true
		c.sigMu.Unlock()
		return caps, nil
	case protocol.MsgError:
		return protocol.Capabilities{}, fmt.Errorf("edge: hello unsupported by server: %s", f.Payload)
	default:
		return protocol.Capabilities{}, fmt.Errorf("edge: bad hello reply (type %s id %d)", f.Type, f.ID)
	}
}

// Capabilities reports the far end's advertised capabilities; ok is false
// until a Hello round trip has succeeded.
func (c *TCPClient) Capabilities() (protocol.Capabilities, bool) {
	c.sigMu.Lock()
	defer c.sigMu.Unlock()
	return c.caps, c.haveCaps
}

// BytesSent reports the cumulative wire bytes uploaded (frame headers
// included — the same unit the server's BytesIn counter uses, so the two
// ends agree bitwise when every written frame was received).
func (c *TCPClient) BytesSent() uint64 {
	return c.bytesSent.Load()
}

// Close shuts the connection down; the read loop then fails any requests
// still in flight. A closed client never redials.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}

// LogitModel is a cloud-side network: logits over an NCHW batch. It is
// satisfied by *models.Classifier, cloud.Partitioned and *cloud.Tail.
type LogitModel = core.LogitModel

// InProcClient serves cloud requests from an in-process classifier — the
// deterministic transport used by simulations and benchmarks. It is safe for
// concurrent use (evaluation-mode forwards are stateless).
type InProcClient struct {
	NoWire
	// Model answers raw requests (typically a *models.Classifier).
	Model LogitModel
	// Tail, when non-nil, answers feature requests — the in-process analogue
	// of a server-side partitioned-network tail (e.g. a *cloud.Tail).
	Tail LogitModel
}

var _ Transport = (*InProcClient)(nil)

// Infer runs ONE forward pass over the request's tensor (a single instance as
// a batch of one) with the server's own post-processing, so in-process, TCP,
// single and batched predictions all agree bitwise (the tensor kernels
// accumulate in the same order for every batch size). It serves no chain.
func (c *InProcClient) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	if err := req.Validate(); err != nil {
		return protocol.InferReply{}, err
	}
	if req.Rep == protocol.RepActivation {
		return protocol.InferReply{}, errors.New("edge: in-process client serves no chain")
	}
	model := c.Model
	if req.Rep == protocol.RepFeatures {
		model = c.Tail
	}
	if model == nil {
		return protocol.InferReply{}, fmt.Errorf("edge: in-process client has no model for %s requests", req.Rep)
	}
	logits := model.Logits(req.Batch(), false)
	reply := protocol.InferReply{Results: make([]protocol.Result, req.Instances())}
	for i := range reply.Results {
		reply.Results[i] = protocol.ResultOf(logits.Row(i))
	}
	return reply, nil
}

// The CloudClient surface, spelled out because an InProcClient is built as a
// literal and has no constructor to wire an embedded calls in.
func (c *InProcClient) Classify(img *tensor.Tensor) (int, float64, error) {
	return calls{c.Infer}.Classify(img)
}
func (c *InProcClient) ClassifyBatch(imgs []*tensor.Tensor) ([]int, []float64, error) {
	return calls{c.Infer}.ClassifyBatch(imgs)
}
func (c *InProcClient) ClassifyFeaturesBatch(feats []*tensor.Tensor) ([]int, []float64, error) {
	return calls{c.Infer}.ClassifyFeaturesBatch(feats)
}

// Capabilities reports what this client can serve — always known, since
// there is no wire between the router and the model: features mode works
// exactly when a Tail is configured, and there is neither a chain nor a
// batch collector.
func (c *InProcClient) Capabilities() (protocol.Capabilities, bool) {
	return protocol.Capabilities{TailCapable: c.Tail != nil}, true
}

// NoWire is the signal half of a Transport that has no wire to probe,
// estimate or count — embed it and write Infer. Every signal answers its zero
// value: healthy, unmeasured, capabilities unknown, and a chain probe fails
// like any other chain request would.
type NoWire struct{}

func (NoWire) Probe(uint8) ([]protocol.StageStatus, error) {
	return nil, errors.New("edge: this transport serves no chain")
}
func (NoWire) Ping() error                                 { return nil }
func (NoWire) LinkEstimate() linkest.Estimate              { return linkest.Estimate{} }
func (NoWire) CloudLoad() (protocol.LoadStatus, bool)      { return protocol.LoadStatus{}, false }
func (NoWire) Capabilities() (protocol.Capabilities, bool) { return protocol.Capabilities{}, false }
func (NoWire) BytesSent() uint64                           { return 0 }
func (NoWire) Close() error                                { return nil }
