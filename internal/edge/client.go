// Package edge implements the edge runtime of the distributed system: the
// cloud client transports (real TCP with optional link shaping, and an
// in-process client for deterministic simulation) and the inference runtime
// that executes Algorithm 2 with exit, byte and energy accounting.
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

// CloudClient classifies raw instances on the cloud AI.
type CloudClient interface {
	// Classify sends one CHW image and returns the cloud's prediction.
	Classify(img *tensor.Tensor) (pred int, conf float64, err error)
	// ClassifyBatch sends same-shaped CHW images in ONE round trip and
	// returns per-image predictions. An error fails the whole call; callers
	// that need per-instance fallback map it onto every image (see
	// BatchOffload).
	ClassifyBatch(imgs []*tensor.Tensor) (preds []int, confs []float64, err error)
	// Close releases the transport.
	Close() error
}

// FeatureCloudClient is the optional refinement of CloudClient for
// transports that also carry the §III-C "sending features" mode: main-block
// feature tensors classified by the server's partitioned-network tail. Both
// built-in clients implement it; whether a call succeeds depends on the far
// end actually having a tail (a server without one answers with an error,
// and the instances fall back to the edge).
type FeatureCloudClient interface {
	CloudClient
	// ClassifyFeaturesBatch sends same-shaped CHW feature tensors in ONE
	// round trip through the cloud's feature tail.
	ClassifyFeaturesBatch(feats []*tensor.Tensor) (preds []int, confs []float64, err error)
}

// CapabilityReporter is the optional refinement of CloudClient for
// transports that know what the far end can do — typically learned from the
// MsgHello handshake at connect. A capability-aware router uses it to skip
// replicas that cannot serve a features-mode call instead of discovering the
// mismatch by burning the call (and an exclusion window) on an error reply.
type CapabilityReporter interface {
	// Capabilities returns the replica's advertised capabilities, and whether
	// they are known. ok is false until a handshake has succeeded — unknown
	// capabilities mean "route optimistically", exactly the pre-handshake
	// behavior, so a legacy server that errors on MsgHello keeps working.
	Capabilities() (caps protocol.Capabilities, ok bool)
}

// Relayer is the relay method pair of a chain transport: the source-routed
// activation relay and the TTL-only chain probe. *TCPClient implements it
// over one connection and *MultiClient over a replica set; with LinkEstimate
// either one is a cloud.Downstream, so a stage hop forwards through the same
// transport stack the edge uses, without adapters.
type Relayer interface {
	RelayRouted(batch *tensor.Tensor, ttl uint8, pos int, bounds []int) ([]protocol.Result, []protocol.StageStatus, error)
	RelayProbe(ttl uint8) ([]protocol.StageStatus, error)
}

// stackedBatchClient is the zero-copy fast path of BatchOffload: both
// built-in clients take the already-stacked NCHW tensor directly, skipping
// the split-into-views / re-stack round trip of the interface call.
type stackedBatchClient interface {
	classifyStacked(batch *tensor.Tensor) (preds []int, confs []float64, err error)
}

// stackedFeatureBatchClient is stackedBatchClient for the features mode.
type stackedFeatureBatchClient interface {
	classifyFeaturesStacked(batch *tensor.Tensor) (preds []int, confs []float64, err error)
}

// partialStackedClient lets a transport fail individual slots of a stacked
// raw batch. Production transports fail whole calls only; fault-injection
// tests implement this to exercise the per-instance fallback and retry
// paths.
type partialStackedClient interface {
	classifyStackedPartial(batch *tensor.Tensor) (preds []int, confs []float64, errs []error, err error)
}

// partialFeatureStackedClient is partialStackedClient for the features mode.
type partialFeatureStackedClient interface {
	classifyFeaturesStackedPartial(batch *tensor.Tensor) (preds []int, confs []float64, errs []error, err error)
}

// BatchOffload adapts a CloudClient's batch call into the core.CloudBatchFunc
// that InferBatched consumes: the stacked cloud-qualifying sub-batch goes out
// as one ClassifyBatch round trip, and a transport error is spread onto every
// instance so each falls back to the edge individually.
func BatchOffload(c CloudClient) core.CloudBatchFunc {
	return func(sub *tensor.Tensor) ([]int, []float64, []error, error) {
		if pc, ok := c.(partialStackedClient); ok {
			return pc.classifyStackedPartial(sub)
		}
		var preds []int
		var confs []float64
		var err error
		if sc, ok := c.(stackedBatchClient); ok {
			preds, confs, err = sc.classifyStacked(sub)
		} else {
			imgs := make([]*tensor.Tensor, sub.Dim(0))
			for i := range imgs {
				imgs[i] = sub.Sample(i)
			}
			preds, confs, err = c.ClassifyBatch(imgs)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("edge: cloud classify batch: %w", err)
		}
		return preds, confs, nil, nil
	}
}

// FeatureBatchOffload is BatchOffload for the features representation: the
// stacked sub-batch of main-block feature tensors goes out as one
// ClassifyFeaturesBatch round trip.
func FeatureBatchOffload(c FeatureCloudClient) core.CloudBatchFunc {
	return func(sub *tensor.Tensor) ([]int, []float64, []error, error) {
		if pc, ok := c.(partialFeatureStackedClient); ok {
			return pc.classifyFeaturesStackedPartial(sub)
		}
		var preds []int
		var confs []float64
		var err error
		if sc, ok := c.(stackedFeatureBatchClient); ok {
			preds, confs, err = sc.classifyFeaturesStacked(sub)
		} else {
			feats := make([]*tensor.Tensor, sub.Dim(0))
			for i := range feats {
				feats[i] = sub.Sample(i)
			}
			preds, confs, err = c.ClassifyFeaturesBatch(feats)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("edge: cloud classify features batch: %w", err)
		}
		return preds, confs, nil, nil
	}
}

// stackCHW validates same-shaped CHW tensors and stacks them into one NCHW
// batch (the shared front half of every client-side batch call).
func stackCHW(ts []*tensor.Tensor, name string) (*tensor.Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("edge: %s with no tensors", name)
	}
	shape := ts[0].Shape()
	if len(shape) != 3 {
		return nil, fmt.Errorf("edge: %s expects CHW tensors, got shape %v", name, shape)
	}
	batch := tensor.New(append([]int{len(ts)}, shape...)...)
	for i, img := range ts {
		if !img.SameShape(ts[0]) {
			return nil, fmt.Errorf("edge: %s tensor %d has shape %v, want %v", name, i, img.Shape(), shape)
		}
		copy(batch.Sample(i).Data(), img.Data())
	}
	return batch, nil
}

// DialConfig configures the TCP cloud client.
type DialConfig struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
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
	// (default 50ms); it doubles per consecutive failed redial up to
	// RedialBackoffMax (default 2s) and resets on success.
	RedialBackoff time.Duration
	// RedialBackoffMax caps the exponential redial backoff.
	RedialBackoffMax time.Duration
	// Estimator tunes the built-in link estimator (zero value = defaults).
	Estimator linkest.Config
}

func (c *DialConfig) fillDefaults() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 50 * time.Millisecond
	}
	if c.RedialBackoffMax <= 0 {
		c.RedialBackoffMax = 2 * time.Second
	}
}

// TCPClient talks to a cloud.Server over one TCP connection. Requests are
// pipelined: any number of goroutines may have classify calls in flight
// concurrently; frames are matched back to callers by request ID, so one
// uplink carries many overlapping offloads (which is what lets a batching
// server coalesce them).
type TCPClient struct {
	cfg DialConfig

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

	loadMu   sync.Mutex // guards lastLoad, haveLoad
	lastLoad protocol.LoadStatus
	haveLoad bool

	capsMu   sync.Mutex // guards caps, haveCaps
	caps     protocol.Capabilities
	haveCaps bool
}

// clientResult carries one matched response frame (or the transport error
// that ended the connection) to the goroutine that sent the request.
type clientResult struct {
	frame protocol.Frame
	err   error
}

var _ FeatureCloudClient = (*TCPClient)(nil)
var _ CapabilityReporter = (*TCPClient)(nil)
var _ Relayer = (*TCPClient)(nil)

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
		timeout := cfg.DialTimeout
		cfg.Redial = func() (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
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
		est:     linkest.New(cfg.Estimator),
	}
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
// dial itself (which can block for DialTimeout) so concurrent senders fail
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
	if err != nil {
		c.nextRedial = time.Now().Add(c.backoff)
		c.backoff *= 2
		if c.backoff > c.cfg.RedialBackoffMax {
			c.backoff = c.cfg.RedialBackoffMax
		}
		return fmt.Errorf("edge: redial: %w", err)
	}
	old := c.conn
	c.conn = conn
	c.broken = nil
	c.gen++
	// A successful dial CONSUMES backoff credit rather than restoring it:
	// the next redial may not run before the current backoff elapses, and
	// the wait keeps doubling, until a response frame proves the link
	// healthy (see readLoop). Otherwise an endpoint that accepts and
	// immediately dies would be redialed at full client rate.
	c.nextRedial = time.Now().Add(c.backoff)
	c.backoff *= 2
	if c.backoff > c.cfg.RedialBackoffMax {
		c.backoff = c.cfg.RedialBackoffMax
	}
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

// Classify performs one classify-raw round trip.
func (c *TCPClient) Classify(img *tensor.Tensor) (int, float64, error) {
	if img.Dims() != 3 {
		return 0, 0, fmt.Errorf("edge: Classify expects a CHW image, got shape %v", img.Shape())
	}
	return c.roundTrip(protocol.MsgClassifyRaw, img)
}

// ClassifyFeatures sends a CHW feature tensor for the partitioned-network
// mode (§III-C "sending features"); the server must be configured with a
// feature tail.
func (c *TCPClient) ClassifyFeatures(feat *tensor.Tensor) (int, float64, error) {
	if feat.Dims() != 3 {
		return 0, 0, fmt.Errorf("edge: ClassifyFeatures expects a CHW tensor, got shape %v", feat.Shape())
	}
	return c.roundTrip(protocol.MsgClassifyFeat, feat)
}

// roundTrip performs one classify exchange of the given message type. Many
// round trips may overlap on the same connection. Every successful exchange
// feeds the link estimator and captures the piggybacked server load.
func (c *TCPClient) roundTrip(msgType protocol.MsgType, t *tensor.Tensor) (int, float64, error) {
	payload := protocol.EncodeTensor(t)
	id, ch, writeDur, err := c.send(msgType, payload)
	if err != nil {
		return 0, 0, err
	}
	waitStart := time.Now()
	f, err := c.await(id, ch)
	if err != nil {
		return 0, 0, err
	}
	switch f.Type {
	case protocol.MsgResult:
		pred, conf, load, hasLoad, err := protocol.DecodeResultLoad(f.Payload)
		if err != nil {
			return 0, 0, err
		}
		c.observe(len(payload), writeDur, time.Since(waitStart), load, hasLoad)
		return int(pred), float64(conf), nil
	case protocol.MsgShed:
		return 0, 0, c.shedResult(f.Payload)
	case protocol.MsgError:
		return 0, 0, fmt.Errorf("edge: cloud error: %s", f.Payload)
	default:
		return 0, 0, fmt.Errorf("edge: unexpected response type %s", f.Type)
	}
}

// shedResult decodes a shed frame into the typed *ShedError, folding the
// piggybacked load snapshot into the last-seen server load (a shed is the
// backpressure signal at its sharpest) and counting the event. The link
// estimator is deliberately NOT fed: no inference ran, so the wait phase
// measured only the admission check — folding that in would bias the RTT
// estimate fast exactly when the server is slowest.
func (c *TCPClient) shedResult(payload []byte) error {
	retryAfter, load, hasLoad, err := protocol.DecodeShed(payload)
	if err != nil {
		return fmt.Errorf("edge: bad shed frame: %w", err)
	}
	c.sheds.Add(1)
	if hasLoad {
		c.loadMu.Lock()
		c.lastLoad = load
		c.haveLoad = true
		c.loadMu.Unlock()
	}
	if retryAfter < 0 {
		retryAfter = 0
	}
	return &ShedError{RetryAfter: retryAfter, Load: load, HasLoad: hasLoad}
}

// Sheds reports how many of this client's requests the cloud answered with a
// shed frame.
func (c *TCPClient) Sheds() uint64 { return c.sheds.Load() }

// observe folds one successful exchange into the live link estimate and the
// last-seen server load.
func (c *TCPClient) observe(payloadLen int, writeDur, waitDur time.Duration, load protocol.LoadStatus, hasLoad bool) {
	c.est.Record(int64(protocol.FrameWireSize(payloadLen)), writeDur, waitDur)
	if hasLoad {
		c.loadMu.Lock()
		c.lastLoad = load
		c.haveLoad = true
		c.loadMu.Unlock()
	}
}

// noteLoad records a piggybacked load snapshot without feeding the link
// estimator — for exchanges whose timing says nothing about the link, like
// zero-payload chain probes.
func (c *TCPClient) noteLoad(load protocol.LoadStatus) {
	c.loadMu.Lock()
	c.lastLoad = load
	c.haveLoad = true
	c.loadMu.Unlock()
}

// LinkEstimate reports the live uplink estimate accumulated over this
// client's round trips (see linkest). The edge runtime consumes it for
// closed-loop offload adaptation.
func (c *TCPClient) LinkEstimate() linkest.Estimate {
	return c.est.Estimate()
}

// CloudLoad reports the most recent backpressure signal piggybacked by the
// server on a result frame. ok is false until the first result arrives (or
// when talking to a server that predates the status field).
func (c *TCPClient) CloudLoad() (protocol.LoadStatus, bool) {
	c.loadMu.Lock()
	defer c.loadMu.Unlock()
	return c.lastLoad, c.haveLoad
}

// ClassifyBatch ships a client-assembled batch of same-shaped CHW images as
// one MsgClassifyBatch frame and returns the per-image predictions. One
// frame, one forward pass on the server, one response — the cheapest way to
// offload a burst the edge has already accumulated locally.
func (c *TCPClient) ClassifyBatch(imgs []*tensor.Tensor) ([]int, []float64, error) {
	return c.batchRoundTrip(protocol.MsgClassifyBatch, "ClassifyBatch", imgs)
}

// ClassifyFeaturesBatch is ClassifyBatch for the partitioned-network mode
// (§III-C "sending features"): same-shaped CHW feature tensors go out as one
// MsgClassifyFeatBatch frame and run through the server's feature tail in a
// single forward pass.
func (c *TCPClient) ClassifyFeaturesBatch(feats []*tensor.Tensor) ([]int, []float64, error) {
	return c.batchRoundTrip(protocol.MsgClassifyFeatBatch, "ClassifyFeaturesBatch", feats)
}

// classifyStacked sends an already-stacked NCHW batch without re-copying it
// (the BatchOffload fast path).
func (c *TCPClient) classifyStacked(batch *tensor.Tensor) ([]int, []float64, error) {
	if batch.Dims() != 4 {
		return nil, nil, fmt.Errorf("edge: classifyStacked expects an NCHW batch, got shape %v", batch.Shape())
	}
	return c.stackedRoundTrip(protocol.MsgClassifyBatch, batch)
}

// classifyFeaturesStacked is classifyStacked for the features mode (the
// FeatureBatchOffload fast path).
func (c *TCPClient) classifyFeaturesStacked(batch *tensor.Tensor) ([]int, []float64, error) {
	if batch.Dims() != 4 {
		return nil, nil, fmt.Errorf("edge: classifyFeaturesStacked expects an NCHW batch, got shape %v", batch.Shape())
	}
	return c.stackedRoundTrip(protocol.MsgClassifyFeatBatch, batch)
}

// batchRoundTrip stacks same-shaped CHW tensors into one NCHW frame of the
// given type and decodes the per-instance result batch.
func (c *TCPClient) batchRoundTrip(msgType protocol.MsgType, name string, ts []*tensor.Tensor) ([]int, []float64, error) {
	batch, err := stackCHW(ts, name)
	if err != nil {
		return nil, nil, err
	}
	return c.stackedRoundTrip(msgType, batch)
}

// stackedRoundTrip ships one NCHW tensor as a batch classify frame and
// decodes the per-instance result batch.
func (c *TCPClient) stackedRoundTrip(msgType protocol.MsgType, batch *tensor.Tensor) ([]int, []float64, error) {
	n := batch.Dim(0)
	payload := protocol.EncodeTensor(batch)
	id, ch, writeDur, err := c.send(msgType, payload)
	if err != nil {
		return nil, nil, err
	}
	waitStart := time.Now()
	f, err := c.await(id, ch)
	if err != nil {
		return nil, nil, err
	}
	switch f.Type {
	case protocol.MsgResultBatch:
		rs, load, hasLoad, err := protocol.DecodeResultsLoad(f.Payload)
		if err != nil {
			return nil, nil, err
		}
		if len(rs) != n {
			return nil, nil, fmt.Errorf("edge: batch response has %d results for %d tensors", len(rs), n)
		}
		c.observe(len(payload), writeDur, time.Since(waitStart), load, hasLoad)
		preds := make([]int, len(rs))
		confs := make([]float64, len(rs))
		for i, r := range rs {
			preds[i] = int(r.Pred)
			confs[i] = float64(r.Conf)
		}
		return preds, confs, nil
	case protocol.MsgShed:
		return nil, nil, c.shedResult(f.Payload)
	case protocol.MsgError:
		return nil, nil, fmt.Errorf("edge: cloud error: %s", f.Payload)
	default:
		return nil, nil, fmt.Errorf("edge: unexpected response type %s", f.Type)
	}
}

// RelayRouted ships one activation batch as a source-routed relay frame
// (MsgRelayRoute): the receiving hop runs chain units [pos, bounds[0]) — or
// through the end of its chain when bounds is empty — and forwards the rest
// of the route; the per-instance results the terminal hop sent back along the
// chain return with the per-hop StageStatus vector piggybacked on the reply.
// The route travels with the frame, so the caller can change cuts between
// calls with no server reconfiguration; in-flight frames finish on the route
// they carry (the drain-never-abort cut move). The batch is NOT required to
// be NCHW — a cut may sit anywhere in the chain, including past the
// flattening layers where activations are rank-2 [batch, features] — only
// batched (rank ≥ 2, dim 0 = instances). The exchange rides the same
// pipelined transport as every other frame — many relays overlap on one
// connection, redial applies, and each successful round trip feeds THIS
// hop's link estimator, which is what gives a chain per-hop link estimation
// for free. A legacy server (or one without a serving chain) answers
// MsgError, mirroring the MsgHello contract; a shed decodes to *ShedError.
func (c *TCPClient) RelayRouted(batch *tensor.Tensor, ttl uint8, pos int, bounds []int) ([]protocol.Result, []protocol.StageStatus, error) {
	if batch.Dims() < 2 {
		return nil, nil, fmt.Errorf("edge: RelayRouted expects a batched activation tensor, got shape %v", batch.Shape())
	}
	payload, err := protocol.EncodeRoutedActivation(ttl, pos, bounds, batch)
	if err != nil {
		return nil, nil, err
	}
	return c.relayExchange(protocol.MsgRelayRoute, payload, batch.Dim(0), true)
}

// RelayProbe ships a zero-instance chain probe: every hop forwards it without
// running its stage and the terminal hop answers an empty result batch, so a
// healthy return proves every transport leg of the chain and the returned
// statuses enumerate the hops. Probes do NOT feed the link estimator — they
// carry no payload, so their round trips would read as absurdly fast links.
func (c *TCPClient) RelayProbe(ttl uint8) ([]protocol.StageStatus, error) {
	_, hops, err := c.relayExchange(protocol.MsgRelay, protocol.EncodeRelayProbe(ttl), 0, false)
	return hops, err
}

// relayExchange round-trips one relay-family frame and decodes the shared
// reply shape (results + load piggyback + optional per-hop statuses).
// observe=false skips the link estimator (probes).
func (c *TCPClient) relayExchange(typ protocol.MsgType, payload []byte, want int, observeLink bool) ([]protocol.Result, []protocol.StageStatus, error) {
	id, ch, writeDur, err := c.send(typ, payload)
	if err != nil {
		return nil, nil, err
	}
	waitStart := time.Now()
	f, err := c.await(id, ch)
	if err != nil {
		return nil, nil, err
	}
	switch f.Type {
	case protocol.MsgResultBatch:
		rs, load, hasLoad, hops, _, err := protocol.DecodeResultsChain(f.Payload)
		if err != nil {
			return nil, nil, err
		}
		if len(rs) != want {
			return nil, nil, fmt.Errorf("edge: relay response has %d results for %d instances", len(rs), want)
		}
		if observeLink {
			c.observe(len(payload), writeDur, time.Since(waitStart), load, hasLoad)
		} else if hasLoad {
			c.noteLoad(load)
		}
		return rs, hops, nil
	case protocol.MsgShed:
		return nil, nil, c.shedResult(f.Payload)
	case protocol.MsgError:
		return nil, nil, fmt.Errorf("edge: cloud error: %s", f.Payload)
	default:
		return nil, nil, fmt.Errorf("edge: unexpected response type %s", f.Type)
	}
}

// Ping round-trips a ping frame, verifying the link end to end.
func (c *TCPClient) Ping() error {
	id, ch, _, err := c.send(protocol.MsgPing, nil)
	if err != nil {
		return err
	}
	f, err := c.await(id, ch)
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
	id, ch, _, err := c.send(protocol.MsgHello, nil)
	if err != nil {
		return protocol.Capabilities{}, err
	}
	f, err := c.await(id, ch)
	if err != nil {
		return protocol.Capabilities{}, err
	}
	switch f.Type {
	case protocol.MsgHello:
		caps, err := protocol.DecodeHello(f.Payload)
		if err != nil {
			return protocol.Capabilities{}, fmt.Errorf("edge: hello reply: %w", err)
		}
		c.capsMu.Lock()
		c.caps = caps
		c.haveCaps = true
		c.capsMu.Unlock()
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
	c.capsMu.Lock()
	defer c.capsMu.Unlock()
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
type LogitModel interface {
	Logits(x *tensor.Tensor, train bool) *tensor.Tensor
}

// InProcClient serves cloud requests from an in-process classifier — the
// deterministic transport used by simulations and benchmarks. It is safe for
// concurrent use (evaluation-mode forwards are stateless).
type InProcClient struct {
	// Model answers raw-image requests (typically a *models.Classifier).
	Model LogitModel
	// Tail, when non-nil, answers feature requests — the in-process analogue
	// of a server-side partitioned-network tail (e.g. a *cloud.Tail).
	Tail LogitModel
}

var _ FeatureCloudClient = (*InProcClient)(nil)
var _ CapabilityReporter = (*InProcClient)(nil)

// Capabilities reports what this client can serve — always known, since
// there is no wire between the router and the model: features mode works
// exactly when a Tail is configured, and there is no batch collector.
func (c *InProcClient) Capabilities() (protocol.Capabilities, bool) {
	return protocol.Capabilities{TailCapable: c.Tail != nil}, true
}

// Classify runs the classifier directly (a 1-image batch through the same
// post-processing as the batched path, so the two agree bitwise).
func (c *InProcClient) Classify(img *tensor.Tensor) (int, float64, error) {
	if img.Dims() != 3 {
		return 0, 0, fmt.Errorf("edge: Classify expects a CHW image, got shape %v", img.Shape())
	}
	preds, confs, err := c.classifyStacked(img.Reshape(append([]int{1}, img.Shape()...)...))
	if err != nil {
		return 0, 0, err
	}
	return preds[0], confs[0], nil
}

// ClassifyBatch stacks the images and runs ONE forward pass — the in-process
// analogue of the batched offload frame, so simulations exercise the same
// gather-then-batch code path as the TCP transport. Predictions are bitwise
// identical to per-image Classify calls (the tensor kernels accumulate in
// the same order for every batch size).
func (c *InProcClient) ClassifyBatch(imgs []*tensor.Tensor) ([]int, []float64, error) {
	batch, err := stackCHW(imgs, "ClassifyBatch")
	if err != nil {
		return nil, nil, err
	}
	return c.classifyStacked(batch)
}

// ClassifyFeaturesBatch stacks the feature tensors and runs ONE forward pass
// through the tail — the in-process analogue of a classify-features-batch
// frame. It fails like a tail-less server when no Tail is configured.
func (c *InProcClient) ClassifyFeaturesBatch(feats []*tensor.Tensor) ([]int, []float64, error) {
	batch, err := stackCHW(feats, "ClassifyFeaturesBatch")
	if err != nil {
		return nil, nil, err
	}
	return c.classifyFeaturesStacked(batch)
}

// classifyStacked classifies an already-stacked NCHW batch without
// re-copying it (the BatchOffload fast path).
func (c *InProcClient) classifyStacked(batch *tensor.Tensor) ([]int, []float64, error) {
	if c.Model == nil {
		return nil, nil, errors.New("edge: in-process client has no model")
	}
	return c.stackedLogits(c.Model, batch)
}

// classifyFeaturesStacked classifies an already-stacked NCHW feature batch
// through the tail (the FeatureBatchOffload fast path).
func (c *InProcClient) classifyFeaturesStacked(batch *tensor.Tensor) ([]int, []float64, error) {
	if c.Tail == nil {
		return nil, nil, errors.New("edge: features mode not supported by this client (no tail)")
	}
	return c.stackedLogits(c.Tail, batch)
}

// stackedLogits runs one forward pass over a stacked NCHW batch and decodes
// per-instance predictions with the same post-processing as the server.
func (c *InProcClient) stackedLogits(model LogitModel, batch *tensor.Tensor) ([]int, []float64, error) {
	if batch.Dims() != 4 {
		return nil, nil, fmt.Errorf("edge: classifyStacked expects an NCHW batch, got shape %v", batch.Shape())
	}
	n := batch.Dim(0)
	logits := model.Logits(batch, false)
	preds := make([]int, n)
	confs := make([]float64, n)
	for i := 0; i < n; i++ {
		probs := tensor.SoftmaxRow(logits.Row(i))
		pred := 0
		for j, v := range probs {
			if v > probs[pred] {
				pred = j
			}
		}
		preds[i], confs[i] = pred, float64(probs[pred])
	}
	return preds, confs, nil
}

// Close is a no-op.
func (c *InProcClient) Close() error { return nil }
