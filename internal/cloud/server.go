// Package cloud implements the cloud AI server: a TCP service that answers
// inference requests (protocol.InferRequest) with predictions and
// confidences. The request's representation picks the network: a deep CNN
// over raw images (the paper uses a ResNet101; we use the deepest/widest
// model of our zoo), optionally a partitioned-network tail over edge
// features, optionally a span of a multi-hop serving chain (stage.go).
//
// Evaluation-mode forward passes of the nn stack are stateless, so requests
// from many connections are served concurrently without locking the model.
package cloud

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// Model is a cloud-side network: logits over an NCHW batch. It is satisfied
// by *models.Classifier (the standalone cloud CNN) and by Partitioned (an
// edge main block composed with a features tail).
type Model interface {
	Logits(x *tensor.Tensor, train bool) *tensor.Tensor
}

// Tail is the cloud half of a partitioned network for the features mode
// (§III-C "sending features"): a body continuing from edge features plus an
// exit.
type Tail struct {
	Body nn.Layer
	Exit nn.Layer
}

// Logits runs the tail on a feature batch.
func (t *Tail) Logits(f *tensor.Tensor, train bool) *tensor.Tensor {
	return t.Exit.Forward(t.Body.Forward(f, train), train)
}

// Partitioned composes an edge main block with a features tail into the raw
// model of a partitioned deployment: Logits(x) = tail(main(x)). A server
// built with Partitioned(main, tail) as its raw model and tail as its
// feature tail answers raw uploads and feature uploads of the same instance
// with bitwise-identical predictions (the kernels accumulate in the same
// order wherever the split runs), which is what lets the edge switch upload
// representation freely on channel cost alone.
func Partitioned(main nn.Layer, tail *Tail) Model {
	return &partitioned{main: main, tail: tail}
}

type partitioned struct {
	main nn.Layer
	tail *Tail
}

func (p *partitioned) Logits(x *tensor.Tensor, train bool) *tensor.Tensor {
	return p.tail.Logits(p.main.Forward(x, train), train)
}

// Stats are cumulative server counters, safe to read concurrently.
type Stats struct {
	Requests    uint64
	Errors      uint64
	BytesIn     uint64
	BytesOut    uint64
	ActiveConns int64
	TotalConns  uint64
	// Batches and BatchedRequests report micro-batching effectiveness:
	// forward passes run by the collector and the classify requests they
	// served. Zero when batching is disabled.
	Batches         uint64
	BatchedRequests uint64
	// InFlight and QueueDepth snapshot the instantaneous load — the same
	// numbers piggybacked on every reply as the backpressure signal
	// (protocol.LoadStatus).
	InFlight   int64
	QueueDepth int64
	// Sheds counts inference requests answered with a shed frame by admission
	// control instead of being served (zero without a ShedPolicy). Shed
	// frames are not Requests: they were refused, not dispatched.
	Sheds uint64
	// InstancesServed counts the INSTANCES the server classified (batch
	// frames add their batch size), the unit the edge runtimes account in —
	// Requests counts frames, which under batching says little about volume.
	InstancesServed uint64
	// Relayed counts the instances a non-terminal stage server forwarded
	// downstream (terminal hops count theirs in InstancesServed instead —
	// the two never double-count one instance at one hop).
	Relayed uint64
}

// ShedPolicy bounds the load the server ACCEPTS: while either limit is hit,
// inference requests are answered with a protocol.MsgShed frame — carrying a
// RetryAfter hint and the load snapshot — instead of being parked or served.
// The limits read the same atomics the LoadStatus piggyback reads, so the
// check costs two atomic loads per request. Shedding closes the loop the
// piggybacked queue depth only hints at: a saturated server stops absorbing
// work into unbounded queues and tells every edge to serve its own instances
// for a while (the edge runtime treats a shed as an immediate edge fallback
// and holds offloads for RetryAfter). Ping frames are never shed — probes
// must work exactly when the server is busiest.
type ShedPolicy struct {
	// MaxQueue sheds while the micro-batch collectors hold at least this
	// many parked requests (0 = queue depth never sheds). Meaningful only
	// with WithBatching — client-assembled batches bypass the
	// collectors and are governed by MaxInFlight.
	MaxQueue int64
	// MaxInFlight sheds while at least this many dispatches are in flight
	// across all connections (0 = in-flight count never sheds).
	MaxInFlight int64
	// RetryAfter is the back-off hint carried in every shed frame
	// (default protocol.DefaultRetryAfter).
	RetryAfter time.Duration
}

// Server serves classification requests over TCP.
type Server struct {
	raw       Model
	feat      *Tail       // nil when the features mode is unsupported
	batch     *batcher    // nil when micro-batching is disabled
	featBatch *batcher    // features-mode collector; nil unless batching and feat are both on
	shedPol   *ShedPolicy // nil when admission control is disabled

	// Stage-server mode (WithStage): all three are fixed before Listen and
	// read-only afterwards, like raw/feat above.
	chain         []nn.Layer // full serving chain for source-routed relays; nil = stage mode off
	down          Downstream // next hop (or replica set); nil = terminal hop
	stageInflight int        // per-connection relay dispatch bound

	// Measured stage service time piggybacked on relay replies (stage.go).
	svcMu sync.Mutex          // guards svc
	svc   linkest.ServiceTime // queue-normalized per-instance seconds

	mu     sync.Mutex // guards ln, conns, closed
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	requests    atomic.Uint64
	errorCount  atomic.Uint64
	bytesIn     atomic.Uint64
	bytesOut    atomic.Uint64
	active      atomic.Int64
	total       atomic.Uint64
	inflight    atomic.Int64  // requests currently being dispatched
	sheds       atomic.Uint64 // inference requests refused by admission control
	instServed  atomic.Uint64 // instances classified (a batch counts its size)
	relayed     atomic.Uint64 // instances forwarded downstream by a non-terminal stage
	relayActive atomic.Int64  // relay stage forwards running right now (svc normalization)
}

// Option configures optional server behaviour.
type Option func(*Server)

// WithBatching enables the micro-batching layer for single-instance requests:
// concurrent requests from any number of connections are coalesced into one
// batched forward pass (see BatchConfig). Raw-image and feature-tail
// requests collect into separate batches (they run different networks); the
// feature collector exists only when the server has a tail.
func WithBatching(cfg BatchConfig) Option {
	return func(s *Server) {
		s.batch = newBatcher(cfg, s.rawLogits)
		if s.feat != nil {
			s.featBatch = newBatcher(cfg, s.featLogits)
		}
	}
}

// WithShedding enables admission control: inference requests arriving while
// the server is past the policy's limits are answered with a shed frame instead
// of being accepted (see ShedPolicy).
func WithShedding(pol ShedPolicy) Option {
	if pol.RetryAfter <= 0 {
		pol.RetryAfter = protocol.DefaultRetryAfter
	}
	return func(s *Server) { s.shedPol = &pol }
}

// rawLogits and featLogits run the raw-image classifier and the
// partitioned-network tail on an NCHW batch, in eval mode.
func (s *Server) rawLogits(x *tensor.Tensor) *tensor.Tensor  { return s.raw.Logits(x, false) }
func (s *Server) featLogits(x *tensor.Tensor) *tensor.Tensor { return s.feat.Logits(x, false) }

// NewServer builds a server around a raw-image model (typically a
// *models.Classifier, or cloud.Partitioned for a partitioned deployment).
// tail may be nil. raw may be nil ONLY for a pure stage server (WithStage):
// such a hop serves activation requests and answers raw ones with an error,
// like a tail-less server answers feature requests.
func NewServer(raw Model, tail *Tail, opts ...Option) (*Server, error) {
	s := &Server{raw: raw, feat: tail, conns: make(map[net.Conn]struct{})}
	for _, opt := range opts {
		opt(s)
	}
	if s.raw == nil && !s.stageMode() {
		return nil, errors.New("cloud: nil classifier")
	}
	return s, nil
}

// Listen binds the server to an address (use "127.0.0.1:0" for an ephemeral
// port) and starts the accept loop in a background goroutine.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cloud: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("cloud: server already closed")
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return errors.New("cloud: server already listening")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr reports the bound address (nil before Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:    s.requests.Load(),
		Errors:      s.errorCount.Load(),
		BytesIn:     s.bytesIn.Load(),
		BytesOut:    s.bytesOut.Load(),
		ActiveConns: s.active.Load(),
		TotalConns:  s.total.Load(),
	}
	if s.batch != nil {
		st.Batches = s.batch.batches.Load()
		st.BatchedRequests = s.batch.batchedReqs.Load()
	}
	if s.featBatch != nil {
		st.Batches += s.featBatch.batches.Load()
		st.BatchedRequests += s.featBatch.batchedReqs.Load()
	}
	st.InFlight = s.inflight.Load()
	st.QueueDepth = int64(s.loadStatus().QueueDepth)
	st.Sheds = s.sheds.Load()
	st.InstancesServed = s.instServed.Load()
	st.Relayed = s.relayed.Load()
	return st
}

// queuedDepth sums the parked requests across the collectors (0 without
// batching) — shared by the LoadStatus piggyback and the shed check.
func (s *Server) queuedDepth() int64 {
	var queued int64
	if s.batch != nil {
		queued += s.batch.depth()
	}
	if s.featBatch != nil {
		queued += s.featBatch.depth()
	}
	return queued
}

// shouldShed is the admission check run per inference request: true while the
// server is past either ShedPolicy limit. It reads the same atomics the
// LoadStatus piggyback snapshots, so admission costs nothing next to even
// the smallest forward pass.
func (s *Server) shouldShed() bool {
	p := s.shedPol
	if p == nil {
		return false
	}
	if p.MaxInFlight > 0 && s.inflight.Load() >= p.MaxInFlight {
		return true
	}
	return p.MaxQueue > 0 && s.queuedDepth() >= p.MaxQueue
}

// loadStatus snapshots the backpressure counters piggybacked on every result
// frame: collector queue depth plus the count of requests actually being
// SERVED (in-flight dispatches minus those parked in a collector — a parked
// request would otherwise count on both sides and saturation, queue
// outgrowing service, could never be observed). Reading a few atomics costs
// nothing next to a forward pass, and the edge gets a live congestion
// signal with zero extra round trips.
func (s *Server) loadStatus() protocol.LoadStatus {
	queued := s.queuedDepth()
	clamp := func(v int64) uint32 {
		if v < 0 {
			return 0
		}
		return uint32(v)
	}
	return protocol.LoadStatus{
		QueueDepth: clamp(queued),
		Active:     clamp(s.inflight.Load() - queued),
	}
}

// Close stops accepting, closes all active connections and waits for
// handlers to drain. It is safe to call multiple times.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if s.batch != nil {
		s.batch.close() // unblocks handlers parked in batcher.classify
	}
	if s.featBatch != nil {
		s.featBatch.close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.total.Add(1)
		s.active.Add(1)
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) removeConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.active.Add(-1)
	conn.Close()
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.removeConn(conn)
	// Responses from concurrent dispatches interleave on the connection in
	// completion order; frame IDs let the pipelined edge client sort them
	// out. The mutex keeps each frame write atomic and guards the broken
	// latch: after the first write failure the connection is closed and
	// every later in-flight dispatch becomes a no-op — without the latch
	// each would recount the error and re-close the dead connection.
	var wmu sync.Mutex
	writeBroken := false
	// inflight bounds concurrent dispatches per connection: a client that
	// pipelines faster than the collector drains must block in ReadFrame
	// (TCP backpressure), not grow an unbounded goroutine/tensor backlog.
	var inflight chan struct{}
	if s.batch != nil {
		inflight = make(chan struct{}, 2*s.batch.cfg.MaxBatch)
	}
	// Relay dispatches get their own concurrency bound: a non-terminal hop
	// blocks on its downstream round trip, so running relays inline would
	// stall this connection's read loop and collapse chain pipelining to
	// lockstep — while sharing the collector's inflight channel would let
	// slow relays starve micro-batch fills (and vice versa).
	var relayInflight chan struct{}
	if s.stageMode() {
		relayInflight = make(chan struct{}, s.stageInflight)
	}
	writeResp := func(resp protocol.Frame) {
		wmu.Lock()
		defer wmu.Unlock()
		if writeBroken {
			return
		}
		if err := protocol.WriteFrame(conn, resp); err != nil {
			writeBroken = true
			s.errorCount.Add(1)
			conn.Close() // fail the read loop too; the peer is gone
			return
		}
		s.bytesOut.Add(uint64(protocol.FrameWireSize(len(resp.Payload))))
	}
	for {
		f, err := protocol.ReadFrame(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.errorCount.Add(1)
			}
			return // malformed stream or peer gone: drop the connection
		}
		// Full frame size, header included: the client's BytesSent counter
		// accounts whole frames, and the two ends must agree bitwise.
		s.bytesIn.Add(uint64(protocol.FrameWireSize(len(f.Payload))))
		if f.Type == protocol.MsgInfer && s.shouldShed() {
			// Admission control: answer with a shed frame and never park or
			// dispatch the work (a relayed activation is one stage of it: the
			// shed propagates back along the chain). Pings, hellos and chain
			// probes are never shed: health checks must work exactly when the
			// server is busiest. The payload was already read (framing must
			// stay in sync) and is dropped here. The shed goes through
			// writeResp, the SAME first-write-failure latch as results: an
			// unlatched shed write racing a close would recount the error and
			// re-close the dead connection.
			s.sheds.Add(1)
			writeResp(s.shedFrame(f.ID, s.shedPol.RetryAfter))
			continue
		}
		// Keep reading while a request sits in a collector — so one pipelined
		// connection can fill a batch by itself — or while a stage (and any
		// downstream hops) works on a relay — so one upstream connection keeps
		// every hop of the chain busy at once. Everything else runs inline.
		// Safe to grow the wait group here: this handler's own entry keeps
		// the counter positive while Close drains.
		var lane chan struct{}
		switch {
		case f.Type == protocol.MsgRelay:
			lane = relayInflight
		case f.Type == protocol.MsgInfer:
			switch rep, one := protocol.PeekInfer(f.Payload); {
			case rep == protocol.RepActivation:
				lane = relayInflight
			case one && s.collector(rep) != nil:
				lane = inflight
			}
		}
		if lane == nil {
			writeResp(s.dispatch(f))
			continue
		}
		lane <- struct{}{}
		s.wg.Add(1)
		go func(f protocol.Frame) {
			defer s.wg.Done()
			defer func() { <-lane }()
			writeResp(s.dispatch(f))
		}(f)
	}
}

// capabilities assembles what this server advertises in a MsgHello reply.
// All three facts are fixed at serve time (tail and chain are construction
// arguments, batching is wired before Serve), so the reply is stable for the
// life of a connection and the edge may cache it.
func (s *Server) capabilities() protocol.Capabilities {
	c := protocol.Capabilities{TailCapable: s.feat != nil, ServesChain: s.stageMode()}
	if s.batch != nil {
		c.MaxBatch = uint32(s.batch.cfg.MaxBatch)
	}
	return c
}

// collector is the micro-batch collector single-instance requests in rep go
// through; nil when batching is off or the representation has none.
func (s *Server) collector(rep protocol.Rep) *batcher {
	switch rep {
	case protocol.RepRaw:
		return s.batch
	case protocol.RepFeatures:
		return s.featBatch
	}
	return nil
}

// dispatch computes the response frame for a request frame.
func (s *Server) dispatch(f protocol.Frame) protocol.Frame {
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	switch f.Type {
	case protocol.MsgPing:
		return protocol.Frame{Type: protocol.MsgPong, ID: f.ID}
	case protocol.MsgHello:
		// Never shed: a replica under pressure must still be able to
		// introduce itself.
		return protocol.Frame{Type: protocol.MsgHello, ID: f.ID, Payload: protocol.EncodeHello(s.capabilities())}
	case protocol.MsgInfer:
		return s.infer(f)
	case protocol.MsgRelay:
		return s.probeFrame(f)
	default:
		if f.Type.Retired() {
			return s.failed(f.ID, fmt.Sprintf("message type %d was retired: send inference requests as MsgInfer (type %d)",
				uint8(f.Type), uint8(protocol.MsgInfer)))
		}
		return errorFrame(f.ID, fmt.Sprintf("unsupported message type %s", f.Type))
	}
}

// failed counts one bad request and answers it with an error frame.
func (s *Server) failed(id uint64, msg string) protocol.Frame {
	s.errorCount.Add(1)
	return errorFrame(id, msg)
}

// infer serves one MsgInfer frame: decode, pick the network the request's
// representation names — the raw model, the feature tail, or the span of the
// serving chain its route assigns this hop — run it (a single instance
// through the collector when batching is on; a client-assembled batch as one
// forward pass directly), then argmax the logits and reply, or forward a
// non-terminal span's output downstream. One path and one post-processing
// keep batched, unbatched and chained predictions bitwise identical.
func (s *Server) infer(f protocol.Frame) protocol.Frame {
	req, err := protocol.DecodeInfer(f.Payload)
	if err != nil {
		return s.failed(f.ID, err.Error())
	}
	var forward func(*tensor.Tensor) *tensor.Tensor
	switch req.Rep {
	case protocol.RepRaw:
		if s.raw == nil {
			return errorFrame(f.ID, "raw mode not supported by this server (stage-only hop)")
		}
		forward = s.rawLogits
	case protocol.RepFeatures:
		if s.feat == nil {
			return errorFrame(f.ID, "features mode not supported by this server")
		}
		forward = s.featLogits
	case protocol.RepActivation:
		if !s.stageMode() {
			return errorFrame(f.ID, "stage mode not supported by this server")
		}
		if forward, err = s.routeSpan(req); err != nil {
			return s.failed(f.ID, err.Error())
		}
	}

	n := req.Instances()
	if b := s.collector(req.Rep); b != nil && req.OneInstance() {
		pred, conf, err := b.classify(req.Tensor)
		if err != nil {
			return s.failed(f.ID, err.Error())
		}
		s.instServed.Add(1)
		return s.reply(f.ID, []protocol.Result{{Pred: pred, Conf: conf}}, nil)
	}
	out, err := safeLogits(forward, req.Batch())
	if err != nil {
		return s.failed(f.ID, err.Error())
	}
	if len(req.Bounds) > 0 {
		return s.forwardDownstream(f.ID, req, out)
	}
	results := make([]protocol.Result, n)
	for i := range results {
		results[i] = protocol.ResultOf(out.Row(i))
	}
	s.instServed.Add(uint64(n))
	var hops []protocol.StageStatus
	if req.Rep == protocol.RepActivation {
		hops = []protocol.StageStatus{s.stageStatus()}
	}
	return s.reply(f.ID, results, hops)
}

// shedFrame is the admission-control refusal: the retry-after hint plus the
// load snapshot that triggered it.
func (s *Server) shedFrame(id uint64, retryAfter time.Duration) protocol.Frame {
	return protocol.Frame{Type: protocol.MsgShed, ID: id, Payload: protocol.EncodeShed(retryAfter, s.loadStatus())}
}

// reply assembles the one reply frame: results, this server's load snapshot,
// and (on a chain) the hop-ordered status vector.
func (s *Server) reply(id uint64, results []protocol.Result, hops []protocol.StageStatus) protocol.Frame {
	return protocol.Frame{
		Type:    protocol.MsgResultBatch,
		ID:      id,
		Payload: protocol.EncodeReply(protocol.InferReply{Results: results, Load: s.loadStatus(), Hops: hops}),
	}
}

// safeLogits shields the connection handler from panics raised by the
// numeric kernels on geometry mismatches (e.g. a client sending an image of
// the wrong size); such requests get an error response instead of killing
// the server.
func safeLogits(logits func(*tensor.Tensor) *tensor.Tensor, batch *tensor.Tensor) (out *tensor.Tensor, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cloud: inference failed: %v", r)
		}
	}()
	return logits(batch), nil
}

func errorFrame(id uint64, msg string) protocol.Frame {
	return protocol.Frame{Type: protocol.MsgError, ID: id, Payload: []byte(msg)}
}
