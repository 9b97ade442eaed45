// Package cloud implements the cloud AI server: a TCP service that runs a
// deep CNN (the paper uses a ResNet101; we use the deepest/widest model of
// our zoo) over raw images — and optionally a partitioned-network tail over
// edge features — returning predictions with confidences.
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
	// numbers piggybacked on every result frame as the backpressure signal
	// (protocol.LoadStatus).
	InFlight   int64
	QueueDepth int64
	// Sheds counts classify frames answered with a shed frame by admission
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
// classify frames are answered with a protocol.MsgShed frame — carrying a
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
	// with WithBatching — client-assembled batch frames bypass the
	// collectors and are governed by MaxInFlight.
	MaxQueue int64
	// MaxInFlight sheds while at least this many dispatches are in flight
	// across all connections (0 = in-flight count never sheds).
	MaxInFlight int64
	// RetryAfter is the back-off hint carried in every shed frame
	// (default 50ms).
	RetryAfter time.Duration
}

func (p *ShedPolicy) fillDefaults() {
	if p.RetryAfter <= 0 {
		p.RetryAfter = 50 * time.Millisecond
	}
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
	sheds       atomic.Uint64 // classify frames refused by admission control
	instServed  atomic.Uint64 // instances classified (batch frames count their size)
	relayed     atomic.Uint64 // instances forwarded downstream by a non-terminal stage
	relayActive atomic.Int64  // relay stage forwards running right now (svc normalization)
}

// Option configures optional server behaviour.
type Option func(*Server)

// WithBatching enables the micro-batching layer for classify requests:
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

// WithShedding enables admission control: classify frames arriving while the
// server is past the policy's limits are answered with a shed frame instead
// of being accepted (see ShedPolicy).
func WithShedding(pol ShedPolicy) Option {
	pol.fillDefaults()
	return func(s *Server) { s.shedPol = &pol }
}

// rawLogits runs the raw-image classifier on an NCHW batch.
func (s *Server) rawLogits(x *tensor.Tensor) *tensor.Tensor { return s.raw.Logits(x, false) }

// featLogits runs the partitioned-network tail on an NCHW feature batch.
func (s *Server) featLogits(x *tensor.Tensor) *tensor.Tensor { return s.feat.Logits(x, false) }

// NewServer builds a server around a raw-image model (typically a
// *models.Classifier, or cloud.Partitioned for a partitioned deployment).
// tail may be nil. raw may be nil ONLY for a pure stage server (WithStage):
// such a hop serves relay frames and answers raw classify frames with an
// error, like a tail-less server answers features frames.
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

// shouldShed is the admission check run per classify frame: true while the
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
		if isClassify(f.Type) && s.shouldShed() {
			// Admission control: answer with a shed frame — the retry-after
			// hint plus the load snapshot that triggered it — and never park
			// or dispatch the work. The payload was already read (framing
			// must stay in sync) and is dropped here. The shed reply goes
			// through writeResp, the SAME first-write-failure latch as
			// results: sheds from this read loop interleave with results
			// from in-flight batcher deliveries on one connection, and an
			// unlatched shed write racing a close would recount the error
			// and re-close the dead connection.
			s.sheds.Add(1)
			writeResp(protocol.Frame{
				Type:    protocol.MsgShed,
				ID:      f.ID,
				Payload: protocol.EncodeShed(s.shedPol.RetryAfter, s.loadStatus()),
			})
			continue
		}
		if (f.Type == protocol.MsgRelay || f.Type == protocol.MsgRelayRoute) && s.stageMode() {
			// Keep reading while the stage (and any downstream hops) work on
			// this batch, so one pipelined upstream connection keeps every
			// hop of the chain busy at once. Same wait-group safety argument
			// as the collector path below.
			relayInflight <- struct{}{}
			s.wg.Add(1)
			go func(f protocol.Frame) {
				defer s.wg.Done()
				defer func() { <-relayInflight }()
				writeResp(s.dispatch(f))
			}(f)
			continue
		}
		collected := f.Type == protocol.MsgClassifyRaw && s.batch != nil ||
			f.Type == protocol.MsgClassifyFeat && s.featBatch != nil
		if collected {
			// Keep reading while this request sits in the collector, so
			// one pipelined connection can fill a batch by itself. Safe to
			// grow the wait group here: this handler's own entry keeps the
			// counter positive while Close drains.
			inflight <- struct{}{}
			s.wg.Add(1)
			go func(f protocol.Frame) {
				defer s.wg.Done()
				defer func() { <-inflight }()
				writeResp(s.dispatch(f))
			}(f)
			continue
		}
		writeResp(s.dispatch(f))
	}
}

// capabilities assembles what this server advertises in a MsgHello reply.
// Both facts are fixed at serve time (the tail is a constructor argument,
// batching is wired before Serve), so the reply is stable for the life of a
// connection and the edge may cache it.
func (s *Server) capabilities() protocol.Capabilities {
	c := protocol.Capabilities{TailCapable: s.feat != nil}
	if s.batch != nil {
		c.MaxBatch = uint32(s.batch.cfg.MaxBatch)
	}
	return c
}

// isClassify reports whether a frame type carries classification work — the
// frames admission control may shed (pings, chain probes and unknown types
// never are: health checks must work exactly when the server is busiest). A
// routed relay frame carries exactly one stage of classification work, so a
// saturated hop sheds it like any other classify; the shed propagates back
// along the chain as a MsgShed and the edge takes its zero-charge hold.
func isClassify(t protocol.MsgType) bool {
	switch t {
	case protocol.MsgClassifyRaw, protocol.MsgClassifyFeat,
		protocol.MsgClassifyBatch, protocol.MsgClassifyFeatBatch,
		protocol.MsgRelayRoute:
		return true
	default:
		return false
	}
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
		// Capability handshake: the reply tells a capability-aware router
		// whether features-mode frames can succeed here and how large the
		// micro-batch collector is. Never shed (isClassify excludes it): a
		// replica under pressure must still be able to introduce itself.
		return protocol.Frame{Type: protocol.MsgHello, ID: f.ID, Payload: protocol.EncodeHello(s.capabilities())}
	case protocol.MsgClassifyRaw:
		if s.raw == nil {
			return errorFrame(f.ID, "raw mode not supported by this server (stage-only hop)")
		}
		if s.batch != nil {
			return s.classifyCollected(s.batch, f)
		}
		return s.classify(f, s.rawLogits)
	case protocol.MsgClassifyFeat:
		if s.feat == nil {
			return errorFrame(f.ID, "features mode not supported by this server")
		}
		if s.featBatch != nil {
			return s.classifyCollected(s.featBatch, f)
		}
		return s.classify(f, s.featLogits)
	case protocol.MsgClassifyBatch:
		if s.raw == nil {
			return errorFrame(f.ID, "raw mode not supported by this server (stage-only hop)")
		}
		return s.classifyBatchFrame(f, s.rawLogits)
	case protocol.MsgClassifyFeatBatch:
		if s.feat == nil {
			return errorFrame(f.ID, "features mode not supported by this server")
		}
		return s.classifyBatchFrame(f, s.featLogits)
	case protocol.MsgRelay, protocol.MsgRelayRoute:
		if !s.stageMode() {
			// The stage-mode analogue of the MsgHello legacy contract: a
			// server without a serving chain (or predating the frames
			// entirely) answers MsgError, and the chain client surfaces it.
			return errorFrame(f.ID, "stage mode not supported by this server")
		}
		if f.Type == protocol.MsgRelay {
			return s.probeFrame(f)
		}
		return s.routedFrame(f)
	default:
		return errorFrame(f.ID, fmt.Sprintf("unsupported message type %s", f.Type))
	}
}

func (s *Server) classify(f protocol.Frame, logits func(*tensor.Tensor) *tensor.Tensor) protocol.Frame {
	t, err := protocol.DecodeTensor(f.Payload)
	if err != nil {
		s.errorCount.Add(1)
		return errorFrame(f.ID, err.Error())
	}
	if t.Dims() != 3 {
		s.errorCount.Add(1)
		return errorFrame(f.ID, fmt.Sprintf("expected CHW tensor, got rank %d", t.Dims()))
	}
	batch := t.Reshape(append([]int{1}, t.Shape()...)...)
	out, err := safeLogits(logits, batch)
	if err != nil {
		s.errorCount.Add(1)
		return errorFrame(f.ID, err.Error())
	}
	pred, conf := argmaxRow(out.Row(0))
	s.instServed.Add(1)
	return protocol.Frame{
		Type:    protocol.MsgResult,
		ID:      f.ID,
		Payload: protocol.EncodeResultLoad(int32(pred), conf, s.loadStatus()),
	}
}

// classifyCollected routes one single-instance request through a micro-batch
// collector, which fuses it with concurrent requests from other connections.
func (s *Server) classifyCollected(b *batcher, f protocol.Frame) protocol.Frame {
	t, err := protocol.DecodeTensor(f.Payload)
	if err != nil {
		s.errorCount.Add(1)
		return errorFrame(f.ID, err.Error())
	}
	if t.Dims() != 3 {
		s.errorCount.Add(1)
		return errorFrame(f.ID, fmt.Sprintf("expected CHW tensor, got rank %d", t.Dims()))
	}
	pred, conf, err := b.classify(t)
	if err != nil {
		s.errorCount.Add(1)
		return errorFrame(f.ID, err.Error())
	}
	s.instServed.Add(1)
	return protocol.Frame{
		Type:    protocol.MsgResult,
		ID:      f.ID,
		Payload: protocol.EncodeResultLoad(pred, conf, s.loadStatus()),
	}
}

// classifyBatchFrame serves a client-assembled batch (MsgClassifyBatch or
// MsgClassifyFeatBatch): the payload already holds an NCHW tensor, so it
// runs as one forward pass directly, bypassing the collector.
func (s *Server) classifyBatchFrame(f protocol.Frame, logits func(*tensor.Tensor) *tensor.Tensor) protocol.Frame {
	t, err := protocol.DecodeTensor(f.Payload)
	if err != nil {
		s.errorCount.Add(1)
		return errorFrame(f.ID, err.Error())
	}
	if t.Dims() != 4 {
		s.errorCount.Add(1)
		return errorFrame(f.ID, fmt.Sprintf("expected NCHW tensor, got rank %d", t.Dims()))
	}
	out, err := safeLogits(logits, t)
	if err != nil {
		s.errorCount.Add(1)
		return errorFrame(f.ID, err.Error())
	}
	results := make([]protocol.Result, t.Dim(0))
	for i := range results {
		pred, conf := argmaxRow(out.Row(i))
		results[i] = protocol.Result{Pred: int32(pred), Conf: conf}
	}
	s.instServed.Add(uint64(t.Dim(0)))
	return protocol.Frame{
		Type:    protocol.MsgResultBatch,
		ID:      f.ID,
		Payload: protocol.EncodeResultsLoad(results, s.loadStatus()),
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
