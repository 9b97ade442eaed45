package edge

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/protocol"
)

// MultiConfig tunes a MultiClient's routing behavior. The zero value picks
// usable defaults.
type MultiConfig struct {
	// Seed seeds the power-of-two-choices sampler (default 1). Routing is
	// load-driven — the seed only breaks ties among equally scored replicas —
	// so any seed gives the same aggregate behavior; a fixed default keeps
	// simulations reproducible.
	Seed int64
}

// defaultFailureExclusion is how long a transport that just failed is left
// alone — a router's replica and a chain client's whole chain alike. The
// underlying client's redial-with-backoff repairs the connection in the
// background; the exclusion just keeps the router from burning every batch's
// first attempt on a replica that is mid-outage. A shed uses the server's own
// RetryAfter hint instead.
const defaultFailureExclusion = 250 * time.Millisecond

// extendWindow is the exclusion-window rule shared by the replica router and
// the chain client: a failure at now keeps the target out until now+d, and
// overlapping failures only push the reopen time out — windows extend, never
// shorten.
func extendWindow(until, now time.Time, d time.Duration) time.Time {
	if u := now.Add(d); u.After(until) {
		return u
	}
	return until
}

// ReplicaStats is one replica's accounting snapshot (see
// MultiClient.ReplicaStats).
type ReplicaStats struct {
	// Addr identifies the replica (the dialed address, or "replica-i" when
	// the client was built over pre-dialed transports).
	Addr string
	// Offloads counts classify round trips this replica answered.
	Offloads uint64
	// Sheds counts classify calls this replica refused with a shed frame.
	Sheds uint64
	// Failures counts transport errors (broken connection, timeout) the
	// router observed from this replica.
	Failures uint64
	// Excluded reports whether the replica was inside an exclusion window at
	// snapshot time.
	Excluded bool
	// Removed reports whether the replica has left the candidate set
	// (RemoveReplica). Its counters above are final history, never dropped.
	Removed bool
	// BytesSent is the replica transport's wire-byte counter (0 when the
	// transport does not report one).
	BytesSent uint64
	// CapsKnown reports whether the replica's capability handshake
	// (MsgHello) succeeded; TailCapable and MaxBatch are meaningful only
	// then. False for legacy servers and transports without the handshake —
	// such replicas are routed optimistically.
	CapsKnown   bool
	TailCapable bool
	MaxBatch    uint32
}

// scoreBaseSeconds floors the latency term of a replica's routing score, so
// a replica with no link estimate yet (or a sub-millisecond RTT) is scored by
// its load alone instead of reading as infinitely attractive or repulsive.
const scoreBaseSeconds = 1e-3

// replica is one routed-to cloud transport plus the router's bookkeeping for
// it. The MultiClient's slice of these is append-only: a removed replica
// keeps its entry forever so the final report never loses its counters to a
// slice compaction; routing skips it via the removed flag.
//
// client and addr are immutable after construction. Every other field is
// mutable state protected by the owning MultiClient's mu (the replica has no
// lock of its own — all mutation happens through the router).
type replica struct {
	client Transport
	addr   string

	until    time.Time // exclusion expiry (zero = open)
	shedExcl bool      // active exclusion consists of sheds only
	offloads uint64
	sheds    uint64
	failures uint64
	inflight int  // routed calls currently executing on this transport
	removed  bool // left the candidate set; drain, then close
	closed   bool // transport closed (drained after removal, or client Close)

	// svc tracks this replica's observed per-call service time (successful
	// routed calls, end to end: network + queueing + forward pass) — the
	// capacity weight that down-ranks a slow replica without any static
	// configuration.
	svc linkest.ServiceTime
}

// MultiClient routes requests across a live set of cloud replicas. It is a
// Transport like the single-connection TCPClient, so the edge runtime — and
// a stage hop whose downstream is a replica set — work unchanged on top of
// it.
//
// Routing is client-side power-of-two-choices: each call samples two open
// replicas and takes the one with the lower score, where a replica's score
// combines the load its server last piggybacked on a reply (queue depth +
// in-flight dispatches), the replica link's measured RTT, and a capacity
// weight learned from an EWMA of observed service times (so a half-speed
// replica is down-ranked without config — see score). Two random choices with
// local scores avoid the herd behavior of deterministic least-loaded routing
// when many edges share the same stale load snapshots.
//
// Membership is dynamic: AddReplica joins a replica mid-run and
// RemoveReplica retires one — removal drains, never aborts. A request
// only considers replicas whose advertised capabilities (MsgHello) serve its
// representation, so a tail-less replica is skipped for a features request —
// and one without a chain for a relay — rather than burned on an error.
//
// A shed reply excludes the replica until its retry-after hint expires and
// the call moves on to the next open replica; only when EVERY replica is
// shed or excluded does the call surface a protocol.ShedError, which degrades
// the runtime to the single-cloud edge-hold behavior (instances take the edge
// decision with zero upload charges until the earliest replica reopens). A
// transport error likewise fails the call over to the next replica, with a
// short failure exclusion while the underlying client redials in the
// background — so a replica dying mid-run costs at most the batches that
// were in flight on it.
type MultiClient struct {
	calls // Classify, ClassifyBatch and their features twins, over Infer

	mu       sync.Mutex // guards rng, replicas, now
	rng      *rand.Rand
	replicas []*replica
	now      func() time.Time // test hook; time.Now in production
}

var _ Transport = (*MultiClient)(nil)

// NewMultiClient builds a router over pre-dialed replica transports. addrs
// labels the replicas for reporting; it may be nil or must match clients in
// length, without duplicates. A client that is not a Transport is adapted as
// a raw-only member (asTransport). The MultiClient owns the transports: Close
// closes them all.
func NewMultiClient(clients []CloudClient, addrs []string, cfg MultiConfig) (*MultiClient, error) {
	if len(clients) == 0 {
		return nil, errors.New("edge: multi-client needs at least one replica")
	}
	if addrs != nil && len(addrs) != len(clients) {
		return nil, fmt.Errorf("edge: %d addrs for %d replicas", len(addrs), len(clients))
	}
	for i, c := range clients {
		if c == nil {
			return nil, fmt.Errorf("edge: replica %d is nil", i)
		}
	}
	if addrs == nil {
		addrs = make([]string, len(clients))
		for i := range addrs {
			addrs[i] = fmt.Sprintf("replica-%d", i)
		}
	}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if seen[a] {
			return nil, fmt.Errorf("edge: duplicate replica address %q", a)
		}
		seen[a] = true
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	reps := make([]*replica, len(clients))
	for i, c := range clients {
		reps[i] = &replica{client: asTransport(c), addr: addrs[i]}
	}
	m := &MultiClient{
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		replicas: reps,
		now:      time.Now,
	}
	m.calls = calls{m.Infer}
	return m, nil
}

// DialMultiCloud dials every replica address with the same DialConfig (each
// replica gets its own connection, link shaping and redial-with-backoff),
// runs the MsgHello capability handshake on each, and wraps them in a
// MultiClient. All addresses must dial — a replica that is down at startup
// is a deployment error, not a routing condition; replicas that die LATER
// are survived by exclusion + failover + redial. A failed handshake is NOT a
// dial failure: a legacy server answers MsgHello with an error frame and
// simply keeps its capabilities unknown (routed optimistically, the
// pre-handshake behavior).
func DialMultiCloud(addrs []string, cfg DialConfig, mcfg MultiConfig) (*MultiClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("edge: no replica addresses")
	}
	clients := make([]CloudClient, 0, len(addrs))
	for _, addr := range addrs {
		c, err := DialCloud(addr, cfg)
		if err != nil {
			for _, prev := range clients {
				prev.Close()
			}
			return nil, err
		}
		c.Hello() // best-effort: errors leave capabilities unknown
		clients = append(clients, c)
	}
	m, err := NewMultiClient(clients, addrs, mcfg)
	if err != nil {
		for _, c := range clients {
			c.Close()
		}
		return nil, err
	}
	return m, nil
}

// SplitAddrs parses a comma-separated replica address list (the meanet-edge
// -cloud flag): entries are trimmed, empties dropped, and duplicates
// collapsed onto their first occurrence — "host:1,host:1" is ONE replica.
// Two connections to the same server would skew p2c sampling toward it and
// split its accounting across two rows without adding any capacity.
func SplitAddrs(s string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		p := strings.TrimSpace(part)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// AddReplica joins a dialed transport to the candidate set mid-run (a
// *TCPClient should have run its Hello handshake first, so routing knows its
// capabilities). The addr labels it for reporting and duplicate detection
// ("" picks the next replica-i label); joining an addr that is already open
// is rejected, and the transport then stays the caller's to close.
// Rejoining a previously removed addr is allowed and creates a NEW entry —
// the removed entry keeps its historical counters, and reports aggregating
// by addr sum the two. On success the MultiClient owns the transport.
func (m *MultiClient) AddReplica(client Transport, addr string) error {
	if client == nil {
		return errors.New("edge: nil replica client")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" {
		addr = fmt.Sprintf("replica-%d", len(m.replicas))
	}
	for _, r := range m.replicas {
		if !r.removed && r.addr == addr {
			return fmt.Errorf("edge: replica %s already present", addr)
		}
	}
	m.replicas = append(m.replicas, &replica{client: client, addr: addr})
	return nil
}

// RemoveReplica retires the open replica labeled addr: it stops being
// picked immediately, but removal DRAINS, never aborts — calls already in
// flight on it finish normally and the transport closes only when the last
// one returns. The replica's counters stay in ReplicaStats forever (final
// history). Removing the last open replica is rejected: a router with an
// empty candidate set could serve nothing, which is a fleet-shutdown
// decision (Close), not a membership change.
func (m *MultiClient) RemoveReplica(addr string) error {
	m.mu.Lock()
	var victim *replica
	open := 0
	for _, r := range m.replicas {
		if r.removed {
			continue
		}
		open++
		if r.addr == addr {
			victim = r
		}
	}
	if victim == nil {
		m.mu.Unlock()
		return fmt.Errorf("edge: no open replica %s", addr)
	}
	if open == 1 {
		m.mu.Unlock()
		return fmt.Errorf("edge: cannot remove %s: it is the last open replica", addr)
	}
	victim.removed = true
	closeNow := victim.drainedLocked()
	m.mu.Unlock()
	if closeNow {
		return victim.client.Close()
	}
	return nil
}

// carries reports whether a request in rep can possibly succeed on t: known
// capabilities must serve the representation. Unknown capabilities read as
// capable — a server without the handshake is routed optimistically.
func carries(t Transport, rep protocol.Rep) bool {
	caps, known := t.Capabilities()
	return !known || caps.Serves(rep)
}

// minServiceEWMALocked finds the fastest observed service time among open
// replicas with enough samples — the denominator of the capacity weight.
// Returns 0 when no replica qualifies yet, which serviceWeightLocked reads as
// "score everyone at weight 1". The caller holds m.mu.
func (m *MultiClient) minServiceEWMALocked() float64 {
	best := 0.0
	for _, r := range m.replicas {
		if r.removed {
			continue
		}
		if svc := r.svc.Seconds(linkest.ServiceMinSamples); svc > 0 && (best == 0 || svc < best) {
			best = svc
		}
	}
	return best
}

// serviceWeightLocked is replica r's capacity multiplier: its service-time
// EWMA relative to the fleet's fastest (1 = full speed, 6 = six times
// slower, so its score reads six times worse). Replicas with fewer than
// linkest.ServiceMinSamples answered calls weigh 1, so cold and newly joined
// replicas are explored, not judged on noise. The caller holds m.mu.
func (m *MultiClient) serviceWeightLocked(r *replica, minEWMA float64) float64 {
	svc := r.svc.Seconds(linkest.ServiceMinSamples)
	if minEWMA <= 0 || svc <= 0 {
		return 1
	}
	return svc / minEWMA
}

// score ranks replica r for the next offload; lower is better. The load the
// server last piggybacked (queue depth + in-flight dispatches) multiplies the
// link's measured RTT: each queued unit of work is another service time the
// new batch waits behind, and the RTT converts that count into this
// replica's time units. The caller multiplies by the capacity weight (see
// serviceWeightLocked), which rescales the product into fleet-relative time.
// Signals that are not known yet read as optimistic (zero load, floor RTT),
// so cold replicas get explored rather than starved.
func (m *MultiClient) score(r *replica) float64 {
	lat := scoreBaseSeconds
	if est := r.client.LinkEstimate(); est.Samples > 0 && est.RTT > 0 {
		lat += est.RTT.Seconds()
	}
	return (1 + jobsAhead(r.client)) * lat
}

// drainedLocked latches closed on a removed replica whose last in-flight call
// has returned, and reports that the caller must close its transport once the
// router's lock drops (the close talks to the network).
func (r *replica) drainedLocked() bool {
	if !r.removed || r.closed || r.inflight > 0 {
		return false
	}
	r.closed = true
	return true
}

// weighted pairs a candidate with the capacity weight captured under m.mu,
// so the lock-free scoring step still sees a consistent weight.
type weighted struct {
	r *replica
	w float64
}

// openLocked lists the replicas a request in rep could land on right now —
// not removed, not excluded, not in skip, able to carry it — each with its
// capacity weight. A member that cannot carry the request is never a
// candidate, so it is neither excluded nor charged and keeps serving what it
// can. The caller holds m.mu.
func (m *MultiClient) openLocked(skip map[*replica]bool, rep protocol.Rep) []weighted {
	now := m.now()
	cands := make([]weighted, 0, len(m.replicas))
	minEWMA := m.minServiceEWMALocked()
	for _, r := range m.replicas {
		if r.removed || skip[r] || now.Before(r.until) || !carries(r.client, rep) {
			continue
		}
		cands = append(cands, weighted{r: r, w: m.serviceWeightLocked(r, minEWMA)})
	}
	return cands
}

// pick selects the next replica to try: power-of-two-choices over the open
// candidates not yet tried this call. The returned replica's inflight count
// is raised; the caller MUST pass the call's outcome to noteResult, which
// lowers it again (that pairing is what lets RemoveReplica drain instead of
// abort).
func (m *MultiClient) pick(tried map[*replica]bool, rep protocol.Rep) (*replica, bool) {
	m.mu.Lock()
	cands := m.openLocked(tried, rep)
	var a, b weighted
	switch len(cands) {
	case 0:
		m.mu.Unlock()
		return nil, false
	case 1:
		cands[0].r.inflight++
		m.mu.Unlock()
		return cands[0].r, true
	case 2:
		// Random order, not cands[0] vs cands[1]: the comparison below keeps
		// a on a tie, and with two replicas behind similar links score ties
		// are the COMMON case — a fixed order would herd every edge onto the
		// same replica while the other idles.
		a, b = cands[0], cands[1]
		if m.rng.Intn(2) == 1 {
			a, b = b, a
		}
	default:
		// Two distinct candidates, sampled without replacement: draw the
		// second from the remaining len-1 slots and shift it past the first.
		ai := m.rng.Intn(len(cands))
		bi := m.rng.Intn(len(cands) - 1)
		if bi >= ai {
			bi++
		}
		a, b = cands[ai], cands[bi]
	}
	// Both candidates' inflight counts go up before the lock drops, so
	// neither can be drained-and-closed while this call is scoring them; the
	// loser is released right after the comparison.
	a.r.inflight++
	b.r.inflight++
	// Scoring reads the replicas' own locks (load, link estimate); do it
	// outside m.mu so a slow replica cannot serialize every router decision.
	m.mu.Unlock()
	win, lose := a, b
	if m.score(b.r)*b.w < m.score(a.r)*a.w {
		win, lose = b, a
	}
	m.release(lose.r)
	return win.r, true
}

// best is the deterministic variant of pick used for read-only signal
// queries (LinkEstimate, CloudLoad): the minimum weighted-score open
// replica, the same one the next offload would most likely land on.
func (m *MultiClient) best() (*replica, bool) {
	m.mu.Lock()
	cands := m.openLocked(nil, protocol.RepRaw)
	m.mu.Unlock()
	if len(cands) == 0 {
		return nil, false
	}
	bestC := cands[0]
	bestS := m.score(bestC.r) * bestC.w
	for _, c := range cands[1:] {
		if s := m.score(c.r) * c.w; s < bestS {
			bestC, bestS = c, s
		}
	}
	return bestC.r, true
}

// release lowers r's inflight count and closes the transport once a removed
// replica has fully drained. The caller must NOT hold m.mu (the close talks
// to the network).
func (m *MultiClient) release(r *replica) {
	m.mu.Lock()
	r.inflight--
	closeNow := r.drainedLocked()
	m.mu.Unlock()
	if closeNow {
		r.client.Close()
	}
}

// exclude opens (or extends — never shortens) replica r's exclusion window.
// shedOrigin tracks whether the ACTIVE window consists of sheds only: the
// all-replicas-excluded degradation is a zero-charge edge hold exactly when
// the servers asked for silence, and a plain failure when transports died.
// The caller holds m.mu.
func (m *MultiClient) exclude(r *replica, d time.Duration, shedOrigin bool) {
	now := m.now()
	active := now.Before(r.until)
	r.until = extendWindow(r.until, now, d)
	if active {
		r.shedExcl = r.shedExcl && shedOrigin
	} else {
		r.shedExcl = shedOrigin
	}
}

// jobsAhead reads the replica's last piggybacked load snapshot — the queue
// the next call will wait behind. Unknown load reads as an empty queue.
func jobsAhead(t Transport) float64 {
	if st, ok := t.CloudLoad(); ok {
		return float64(st.QueueDepth) + float64(st.Active)
	}
	return 0
}

// noteResult folds one routed call's outcome into replica r's counters,
// exclusion state and service-time estimate, then releases the inflight hold
// pick took (closing a drained removed replica). ahead is the replica's
// piggybacked load at dispatch time, used to de-queue the service sample.
func (m *MultiClient) noteResult(r *replica, err error, svc time.Duration, ahead float64) {
	m.mu.Lock()
	switch {
	case err == nil:
		r.offloads++
		// Per-call service time of a successful call, inferred from the
		// measured sojourn: with `ahead` jobs queued at dispatch on a
		// serialized accelerator, the wall time spans ahead+1 service slots
		// (the score's load term already charges for the queueing itself).
		r.svc.Observe(svc.Seconds(), 1+ahead, linkest.ServiceAlpha)
	case errors.Is(err, protocol.ErrShed):
		r.sheds++
		m.exclude(r, protocol.RetryAfter(err), true)
	default:
		r.failures++
		m.exclude(r, defaultFailureExclusion, false)
	}
	r.inflight--
	closeNow := r.drainedLocked()
	m.mu.Unlock()
	if closeNow {
		r.client.Close()
	}
}

// holdState reports when the earliest exclusion among the call-eligible
// replicas expires and whether every such replica's active exclusion is
// shed-origin. eligible counts the replicas considered at all — zero only
// when no open replica can carry rep (open membership never drops to zero).
func (m *MultiClient) holdState(rep protocol.Rep) (reopen time.Duration, allShed bool, eligible int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	allShed = true
	first := true
	for _, r := range m.replicas {
		if r.removed || !carries(r.client, rep) {
			continue
		}
		eligible++
		if !now.Before(r.until) {
			// An open replica: no hold at all (the caller raced an expiry;
			// not a shed — the next call will route normally).
			return 0, false, eligible
		}
		if !r.shedExcl {
			allShed = false
		}
		if d := r.until.Sub(now); first || d < reopen {
			reopen, first = d, false
		}
	}
	if eligible == 0 {
		return 0, false, 0
	}
	return reopen, allShed, eligible
}

// clock reads the router's clock (the test hook lives behind m.mu).
func (m *MultiClient) clock() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now()
}

// route tries replicas until one answers: pick, call, and on error exclude
// and move on. When every eligible replica is excluded (on entry or because
// this call's attempts excluded the rest), the degraded-mode error depends
// on WHY: all sheds → a protocol.ShedError whose RetryAfter spans the
// earliest reopen (the runtime holds offloads with zero charges; a stage hop
// answers MsgShed upstream); any transport failure in the mix → a plain
// error (edge fallback with CloudFailed accounting). A call no open replica
// can carry fails with a plain error immediately: a capability mismatch is a
// configuration fact, not congestion, so it must not fabricate a hold.
func (m *MultiClient) route(rep protocol.Rep, call func(t Transport) error) error {
	tried := make(map[*replica]bool)
	var lastErr error
	for {
		r, ok := m.pick(tried, rep)
		if !ok {
			break
		}
		ahead := jobsAhead(r.client)
		start := m.clock()
		err := call(r.client)
		m.noteResult(r, err, m.clock().Sub(start), ahead)
		if err == nil {
			return nil
		}
		tried[r] = true
		lastErr = err
	}
	reopen, allShed, eligible := m.holdState(rep)
	if eligible == 0 {
		return fmt.Errorf("edge: no open replica can carry a %s request", rep)
	}
	if allShed {
		// Every eligible replica asked for silence: surface one shed covering
		// the earliest reopen. Load is intentionally absent — the snapshots
		// belong to individual replicas, not the fleet.
		return &protocol.ShedError{RetryAfter: reopen}
	}
	if lastErr != nil {
		if errors.Is(lastErr, protocol.ErrShed) {
			// Mixed outage: sheds happened, but transports died too, so the
			// degraded mode is a FAILURE (CloudFailed accounting, per-policy
			// retries), not a zero-charge hold — a hold fabricated out of a
			// transport outage would silently stop billing failed attempts.
			// %v, not %w: the shed identity must not leak through.
			return fmt.Errorf("edge: sheds and transport failures across all %d replicas (last: %v)",
				eligible, lastErr)
		}
		return lastErr
	}
	return fmt.Errorf("edge: all %d replicas excluded after transport failures (next retry in %v)",
		eligible, reopen.Round(time.Millisecond))
}

// Infer routes one request to a replica that can carry its representation.
// The whole request goes to ONE replica — splitting a batch would turn one
// round trip into several and defeat the server-side batched forward.
func (m *MultiClient) Infer(req protocol.InferRequest) (reply protocol.InferReply, err error) {
	err = m.route(req.Rep, func(t Transport) (e error) {
		reply, e = t.Infer(req)
		return e
	})
	return reply, err
}

// Probe routes a chain probe like Infer routes a relay: it answers for a
// member the next relay could land on, fails over like a relay would, and a
// member that fails it is excluded like one that failed a relay.
func (m *MultiClient) Probe(ttl uint8) (hops []protocol.StageStatus, err error) {
	err = m.route(protocol.RepActivation, func(t Transport) (e error) {
		hops, e = t.Probe(ttl)
		return e
	})
	return hops, err
}

// LinkEstimate reports the best open replica's live link estimate — the link
// the next offload would use, which is what the runtime's budget controller
// and auto mode need to predict with.
func (m *MultiClient) LinkEstimate() linkest.Estimate {
	r, ok := m.best()
	if !ok {
		return linkest.Estimate{}
	}
	return r.client.LinkEstimate()
}

// CloudLoad reports the best open replica's piggybacked load snapshot.
func (m *MultiClient) CloudLoad() (protocol.LoadStatus, bool) {
	r, ok := m.best()
	if !ok {
		return protocol.LoadStatus{}, false
	}
	return r.client.CloudLoad()
}

// Capabilities is unknown for a router: what the fleet can serve changes
// with membership, and route asks each member when it picks.
func (m *MultiClient) Capabilities() (protocol.Capabilities, bool) {
	return protocol.Capabilities{}, false
}

// Sheds reports the total shed replies observed across all replicas
// (removed ones included — their history happened).
func (m *MultiClient) Sheds() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, r := range m.replicas {
		n += r.sheds
	}
	return n
}

// BytesSent sums the replicas' wire-byte counters.
func (m *MultiClient) BytesSent() (n uint64) {
	m.mu.Lock()
	reps := m.replicas // append-only, clients immutable: the header is a snapshot
	m.mu.Unlock()
	for _, r := range reps {
		n += r.client.BytesSent()
	}
	return n
}

// Ping answers whether the fleet can serve the next offload: it probes the
// replicas route would actually consider — open, not removed, not inside an
// exclusion window — and succeeds as soon as one of them pongs. Excluded
// replicas are ignored the same way best() ignores them: a dead-but-excluded
// replica must not report a healthy fleet as down, and an all-excluded fleet
// is reported down even when its transports would still pong.
func (m *MultiClient) Ping() error {
	m.mu.Lock()
	open := m.openLocked(nil, protocol.RepRaw)
	m.mu.Unlock()
	if len(open) == 0 {
		return errors.New("edge: every replica is excluded or removed")
	}
	var errs []error
	for _, c := range open {
		err := c.r.client.Ping()
		if err == nil {
			return nil
		}
		errs = append(errs, fmt.Errorf("replica %s: %w", c.r.addr, err))
	}
	return errors.Join(errs...)
}

// ReplicaStats snapshots the per-replica accounting. Removed replicas keep
// their rows (flagged Removed) — membership changes never erase history, so
// fleet-level sums stay exact across joins and leaves.
func (m *MultiClient) ReplicaStats() []ReplicaStats {
	m.mu.Lock()
	now := m.now()
	reps := m.replicas
	out := make([]ReplicaStats, len(reps))
	for i, r := range reps {
		out[i] = ReplicaStats{
			Addr:     r.addr,
			Offloads: r.offloads,
			Sheds:    r.sheds,
			Failures: r.failures,
			Excluded: now.Before(r.until),
			Removed:  r.removed,
		}
	}
	m.mu.Unlock()
	for i, r := range reps {
		out[i].BytesSent = r.client.BytesSent()
		if caps, known := r.client.Capabilities(); known {
			out[i].CapsKnown = true
			out[i].TailCapable = caps.TailCapable
			out[i].MaxBatch = caps.MaxBatch
		}
	}
	return out
}

// Close closes every replica transport (removed-but-draining ones included);
// the first error wins but all are closed.
func (m *MultiClient) Close() error {
	m.mu.Lock()
	var toClose []Transport
	for _, r := range m.replicas {
		if !r.closed {
			r.closed = true
			toClose = append(toClose, r.client)
		}
	}
	m.mu.Unlock()
	var first error
	for _, c := range toClose {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
