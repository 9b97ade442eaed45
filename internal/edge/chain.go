package edge

// ChainClient drives a multi-hop partitioned deployment (core.Partition)
// from the edge: it runs stage 0 of the serving chain locally and relays the
// activations to the first stage server, which forwards hop by hop until the
// terminal hop's results come back along the chain. It is a Transport for raw
// requests, so the edge runtime consumes a chain exactly like a single cloud
// server. (An edge that runs no unit at all is not a chain: that is direct
// offload.)
//
// Every chain is SOURCE-ROUTED (protocol.InferRequest): the cuts may stay put
// for the client's lifetime, or the client may MOVE them mid-run — new
// requests ship the new route while those in flight complete on the old one,
// with bitwise-identical predictions either way. With Replan enabled the
// client re-solves placement periodically from MEASURED conditions: the transport's linkest estimate for the first hop, and the
// per-hop service-time/link telemetry piggybacked on every relay reply.
//
// Degraded mode: when the chain fails mid-hop — transport death, a dead hop,
// a shed storm — the client falls back to DIRECT offload of the original raw
// batch through an optional direct replica, with exact per-path accounting in
// ChainStats, and then leaves the chain alone for an exclusion window (the
// replica router's rule: 250ms after a failure, the retry-after hint after a
// shed, extended — never shortened — by overlapping failures): new batches
// go straight to the direct replica until it lapses, so a degraded batch
// costs one round trip, not a failed relay plus one. Without a direct replica
// there is no window and the error (or shed) surfaces to the caller, whose
// own fallback is the all-edge path (the runtime counts it as a CloudFailure
// and serves locally). Edge throughput therefore degrades to the
// direct-offload (or all-edge) baseline, never to zero.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/profile"
	"github.com/meanet/meanet/internal/protocol"
)

// DefaultRelayTTL is the hop budget a chain client stamps on relay frames
// when the caller does not pin one: far above any sane chain length, so it
// only ever trips on a misconfigured relay cycle.
const DefaultRelayTTL = 16

// Replan defaults.
const (
	defaultReplanInterval   = 500 * time.Millisecond
	defaultReplanHysteresis = 0.15
)

// replanMinSamples is how many successful relay round trips must accumulate
// before the first re-solve, and again after every move — matching the cloud
// hops' own sample gate.
const replanMinSamples = 3

// ChainStats is the per-path accounting a chain client keeps for
// Report.Chain: which instances went through the chain, which took the
// direct-offload fallback, and how the live re-solver moved the cuts.
type ChainStats struct {
	// ChainCalls/ChainInstances count relay round trips that succeeded
	// end-to-end and the instances they classified.
	ChainCalls     uint64
	ChainInstances uint64
	// FallbackCalls/FallbackInstances count batches served by the direct
	// replica after the chain failed or shed. Chain + fallback + the
	// caller's own edge fallback partition the total exactly.
	FallbackCalls     uint64
	FallbackInstances uint64
	// ChainFailures counts relay round trips that failed in transport or on
	// a hop (sheds are not failures: they are refusals, accounted by Sheds).
	ChainFailures uint64
	// DirectFailures counts fallback attempts that ALSO failed — the batch
	// then surfaces an error and the caller serves it at the edge.
	DirectFailures uint64
	// CutMoves counts live re-placements that changed the cut chain.
	CutMoves uint64
	// Cuts is the current cut chain.
	Cuts []core.CutPoint
	// Hops is the cloud hop count most recently observed on a relay reply.
	Hops int
}

// ReplanConfig enables live re-placement on a routed chain client.
type ReplanConfig struct {
	// Enabled turns the periodic re-solve on.
	Enabled bool
	// Interval is the minimum time between re-solves (default 500ms).
	Interval time.Duration
	// Hysteresis is the fractional modeled-throughput improvement a solved
	// placement must show over the CURRENT cuts before the client moves them
	// (default 0.15). The margin is what keeps measurement noise from
	// flapping the cuts back and forth.
	Hysteresis float64
	// In is the CHW shape of one input instance, needed to price the chain.
	In profile.Shape
	// EdgeMACsPerSec is the edge device's compute-rate prior, used until the
	// local stage has enough measured samples (and again right after a move
	// resets them). 0 = wait for measurements instead.
	EdgeMACsPerSec float64
}

func (r *ReplanConfig) fillDefaults() {
	if r.Interval <= 0 {
		r.Interval = defaultReplanInterval
	}
	if r.Hysteresis <= 0 {
		r.Hysteresis = defaultReplanHysteresis
	}
}

// ChainConfig configures a chain client.
type ChainConfig struct {
	// Chain is the full serving chain at unit granularity
	// (core.FlattenChain) — the SAME chain every hop was configured with.
	Chain []nn.Layer
	// Cuts is the initial cut chain: cuts[0] units run on the edge, each
	// later boundary starts the next hop's span. Strictly increasing,
	// len(cuts) = number of cloud hops.
	Cuts []core.CutPoint
	// TTL bounds the chain length (0 selects DefaultRelayTTL).
	TTL uint8
	// MaxLocal caps how many chain units a re-solve may assign to the edge
	// (default len(Chain)-1: every placement must leave the cloud hops at
	// least one unit each anyway). The cap is what keeps the solver from
	// parking the whole chain on a battery-powered device just because the
	// uplink dipped.
	MaxLocal int
	// Direct, when non-nil, is the degraded-mode fallback: a client to a
	// replica that serves whole raw batches (typically a *TCPClient to a
	// monolithic server). The ORIGINAL raw request ships there when the chain
	// fails.
	Direct CloudClient
	// Replan enables live re-placement.
	Replan ReplanConfig
}

// ChainClient is the edge endpoint of a stage chain.
type ChainClient struct {
	calls           // Classify and ClassifyBatch, over Infer
	next  Transport // transport to the first stage server (or replica set of them)
	ttl   uint8     // hop budget stamped on every relay frame

	// chain, costs and maxLocal are fixed at construction.
	chain    []nn.Layer
	costs    []profile.Cost // per-unit costs (profile.ChainCosts at build; replan only)
	maxLocal int
	replan   ReplanConfig

	mu sync.Mutex // guards cuts, local, direct, until, now, stats, localSvc, hopStats, hopSamples, lastReplan
	// cuts is the CURRENT route (replaced wholesale on a move — snapshots
	// taken under mu stay valid for the frames already carrying them, which
	// is the whole drain-never-abort trick).
	cuts  []core.CutPoint
	local nn.Layer // current stage 0: chain units [0, cuts[0])
	// direct is the degraded-mode fallback replica (nil = none).
	direct Transport
	// until ends the chain's exclusion window (zero or past = open): while it
	// holds and a direct replica is armed, batches skip the chain.
	until time.Time
	now   func() time.Time // test hook; time.Now in production
	stats ChainStats
	// localSvc tracks the measured per-instance local stage time, normalized
	// by concurrent classify calls (localActive), feeding the edge-device
	// rate of a re-solve.
	localSvc linkest.ServiceTime
	// hopStats is the latest per-hop telemetry vector piggybacked on a relay
	// reply; hopSamples counts replies since the last move.
	hopStats   []protocol.StageStatus
	hopSamples int
	lastReplan time.Time

	localActive atomic.Int64  // classify calls running the local stage right now
	sheds       atomic.Uint64 // relays the first hop refused with a shed
}

// ChainReporter surfaces per-path chain accounting. *ChainClient implements
// it; the runtime duck-types against it in Report like ReplicaReporter.
type ChainReporter interface {
	ChainStats() ChainStats
}

var (
	_ Transport     = (*ChainClient)(nil)
	_ ChainReporter = (*ChainClient)(nil)
)

// NewRoutedChainClient wraps a dialed transport to the first hop of a chain
// (every hop configured with the same full Chain). Use cfg.Direct or
// SetDirect to arm the degraded mode.
func NewRoutedChainClient(next Transport, cfg ChainConfig) (*ChainClient, error) {
	if next == nil {
		return nil, errors.New("edge: chain client needs a transport to the first hop")
	}
	if len(cfg.Chain) == 0 {
		return nil, errors.New("edge: routed chain client needs the serving chain")
	}
	if len(cfg.Cuts) == 0 {
		return nil, errors.New("edge: routed chain client needs at least one cut (one cloud hop)")
	}
	stages, err := core.Partition(cfg.Chain, cfg.Cuts)
	if err != nil {
		return nil, fmt.Errorf("edge: routed chain: %w", err)
	}
	if cfg.TTL == 0 {
		cfg.TTL = DefaultRelayTTL
	}
	if cfg.MaxLocal <= 0 || cfg.MaxLocal > len(cfg.Chain)-1 {
		cfg.MaxLocal = len(cfg.Chain) - 1
	}
	if int(cfg.Cuts[0]) > cfg.MaxLocal {
		return nil, fmt.Errorf("edge: initial cut %d exceeds MaxLocal %d", cfg.Cuts[0], cfg.MaxLocal)
	}
	cfg.Replan.fillDefaults()
	c := &ChainClient{
		next:     next,
		ttl:      cfg.TTL,
		chain:    cfg.Chain,
		maxLocal: cfg.MaxLocal,
		replan:   cfg.Replan,
		cuts:     append([]core.CutPoint(nil), cfg.Cuts...),
		local:    stages[0],
		direct:   asTransport(cfg.Direct),
		now:      time.Now,
	}
	c.calls = calls{c.Infer}
	if cfg.Replan.Enabled {
		// Price the chain up front: an unpriceable unit must fail the build,
		// not the first mid-run re-solve.
		costs, _, err := profile.ChainCosts(cfg.Chain, cfg.Replan.In)
		if err != nil {
			return nil, fmt.Errorf("edge: routed chain: %w", err)
		}
		c.costs = costs
	}
	return c, nil
}

// SetDirect arms (or swaps) the degraded-mode direct-offload fallback.
func (c *ChainClient) SetDirect(d CloudClient) {
	c.mu.Lock()
	c.direct = asTransport(d)
	c.mu.Unlock()
}

// ChainStats snapshots the per-path accounting.
func (c *ChainClient) ChainStats() ChainStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Cuts = append([]core.CutPoint(nil), c.cuts...)
	st.Hops = len(c.hopStats)
	return st
}

// Infer runs one raw request through the chain — one local stage-0 forward
// over the whole batch (a single image as a batch of one, so single and
// batched predictions agree bitwise), one relay per hop — and on a chain
// failure, or inside the exclusion window a recent one opened, falls back to
// direct offload of the ORIGINAL request.
func (c *ChainClient) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	if err := rawOnly(req); err != nil {
		return protocol.InferReply{}, err
	}
	batch := req.Batch()
	n := batch.Dim(0)

	// Snapshot the route under the lock; the snapshot stays coherent for
	// this request even if a re-solve moves the cuts while it is in flight.
	c.mu.Lock()
	local := c.local
	cuts := c.cuts
	direct := c.direct
	excluded := direct != nil && c.now().Before(c.until)
	c.mu.Unlock()
	if excluded {
		return c.fallback(direct, req, errors.New("chain excluded after a recent failure"))
	}

	active := c.localActive.Add(1)
	start := time.Now()
	act := local.Forward(batch, false)
	dur := time.Since(start)
	c.localActive.Add(-1)
	c.mu.Lock()
	c.localSvc.Observe(dur.Seconds()/float64(n), float64(active), linkest.ServiceAlpha)
	c.mu.Unlock()

	bounds := make([]int, len(cuts)-1)
	for i, b := range cuts[1:] {
		bounds[i] = int(b)
	}
	reply, err := c.next.Infer(protocol.InferRequest{
		Rep: protocol.RepActivation, TTL: c.ttl, Pos: int(cuts[0]), Bounds: bounds, Tensor: act,
	})
	if err == nil {
		c.mu.Lock()
		c.stats.ChainCalls++
		c.stats.ChainInstances += uint64(n)
		if len(reply.Hops) > 0 {
			c.hopStats = reply.Hops
		}
		c.hopSamples++
		c.mu.Unlock()
		c.maybeReplan()
		return reply, nil
	}

	// Degraded mode. A shed is a refusal, not a failure — but either way the
	// chain is not serving this batch, so try the direct replica if one is
	// armed (and send the next batches straight there for a while); the
	// caller's own all-edge fallback handles the rest.
	window := defaultFailureExclusion
	c.mu.Lock()
	if errors.Is(err, ErrShed) {
		window = shedRetryAfter(err)
		c.sheds.Add(1)
	} else {
		c.stats.ChainFailures++
	}
	if direct != nil {
		c.until = extendWindow(c.until, c.now(), window)
	}
	c.mu.Unlock()
	if direct == nil {
		return protocol.InferReply{}, err
	}
	return c.fallback(direct, req, err)
}

// fallback serves a request the chain is not serving (cause says why) through
// the direct replica, keeping the per-path books.
func (c *ChainClient) fallback(direct Transport, req protocol.InferRequest, cause error) (protocol.InferReply, error) {
	reply, derr := direct.Infer(req)
	c.mu.Lock()
	defer c.mu.Unlock()
	if derr != nil {
		c.stats.DirectFailures++
		if errors.Is(derr, ErrShed) {
			// Both paths refused by admission control: surface the shed so
			// the caller takes its zero-charge hold instead of charging a
			// failure.
			return protocol.InferReply{}, derr
		}
		return protocol.InferReply{}, fmt.Errorf("edge: chain failed (%v); direct fallback: %w", cause, derr)
	}
	c.stats.FallbackCalls++
	c.stats.FallbackInstances += uint64(req.Instances())
	return reply, nil
}

// spanMACs sums the priced MACs of chain units [from, to).
func (c *ChainClient) spanMACs(from, to int) float64 {
	var macs int64
	for _, cost := range c.costs[from:to] {
		macs += cost.MACs
	}
	return float64(macs)
}

// maybeReplan re-solves the placement from measured conditions and moves the
// cuts when the solved chain beats the current one by the hysteresis margin.
// Rate-limited by Interval; skipped entirely until the telemetry is mature.
// The solve itself runs outside the lock (it enumerates C(L-1,N-1) cut
// chains); only the snapshot and the swap hold it.
func (c *ChainClient) maybeReplan() {
	if !c.replan.Enabled {
		return
	}
	now := time.Now()
	c.mu.Lock()
	if now.Sub(c.lastReplan) < c.replan.Interval ||
		c.hopSamples < replanMinSamples || len(c.hopStats) == 0 {
		c.mu.Unlock()
		return
	}
	c.lastReplan = now
	curCuts := c.cuts
	hops := append([]protocol.StageStatus(nil), c.hopStats...)
	localSvc := c.localSvc.Seconds(linkest.ServiceMinSamples)
	c.mu.Unlock()

	if len(hops) != len(curCuts) {
		return // telemetry doesn't match the route yet (mid-move reply)
	}

	// Device 0: the edge. Prefer the measured local-stage rate; fall back to
	// the configured prior until it matures.
	devices := make([]profile.Device, 0, len(hops)+1)
	edgeRate := c.replan.EdgeMACsPerSec
	if localSvc > 0 {
		edgeRate = c.spanMACs(0, int(curCuts[0])) / localSvc
	}
	if edgeRate <= 0 {
		return
	}
	devices = append(devices, profile.Device{Name: "edge", MACsPerSec: edgeRate})

	// Cloud hops: rate = the MACs of the span each hop CURRENTLY runs over
	// its piggybacked queue-normalized service time.
	bounds := make([]int, 0, len(curCuts)+1)
	for _, ct := range curCuts {
		bounds = append(bounds, int(ct))
	}
	bounds = append(bounds, len(c.chain))
	for i, h := range hops {
		if h.ServiceNanos == 0 {
			return // hop estimate not mature yet
		}
		rate := c.spanMACs(bounds[i], bounds[i+1]) / (float64(h.ServiceNanos) / 1e9)
		devices = append(devices, profile.Device{Name: fmt.Sprintf("hop%d", i+1), MACsPerSec: rate})
	}

	// Links: the edge's own transport estimate for link 0, each hop's
	// piggybacked downstream estimate for the rest (the terminal hop's
	// entry carries no link and is not a link).
	links := make([]netsim.Link, 0, len(hops))
	est := c.next.LinkEstimate()
	if est.Mbps <= 0 {
		return // uplink estimate not mature yet
	}
	links = append(links, netsim.Link{Latency: est.RTT / 2, Mbps: est.Mbps})
	for i := 0; i < len(hops)-1; i++ {
		if hops[i].DownMbps <= 0 {
			return
		}
		links = append(links, netsim.Link{
			Latency: time.Duration(hops[i].DownRTTNanos) / 2,
			Mbps:    float64(hops[i].DownMbps),
		})
	}

	solved, err := profile.PlacePipeline(c.chain, c.replan.In, devices, links)
	if err != nil || int(solved.Cuts[0]) > c.maxLocal {
		return
	}
	if slices.Equal(solved.Cuts, curCuts) {
		return
	}
	current, err := profile.EvaluateCuts(c.chain, c.replan.In, devices, links, curCuts)
	if err != nil || solved.Throughput <= current.Throughput*(1+c.replan.Hysteresis) {
		return
	}

	stages, err := core.Partition(c.chain, solved.Cuts)
	if err != nil {
		return
	}
	c.mu.Lock()
	if !slices.Equal(c.cuts, curCuts) {
		// Another call moved the cuts while we solved; its telemetry reset
		// stands. (Single writer in practice — replans are interval-gated —
		// but the check costs nothing.)
		c.mu.Unlock()
		return
	}
	c.cuts = append([]core.CutPoint(nil), solved.Cuts...)
	c.local = stages[0]
	c.stats.CutMoves++
	// The accumulated estimates priced the OLD spans; start fresh so the
	// next re-solve runs on telemetry for the new ones.
	c.localSvc = linkest.ServiceTime{}
	c.hopStats, c.hopSamples = nil, 0
	c.mu.Unlock()
}

// ProbeChain traverses the chain end to end with a zero-instance relay
// probe: no stage runs, every transport leg is exercised, and the healthy
// hop count comes back from the piggybacked status vector. A probe always
// traverses — it neither honours nor moves the exclusion window. On failure
// the returned hop is the 1-based index of the hop whose downstream leg broke
// (hop 1 = the first stage server): each forwarding hop wraps the failure in
// one "downstream relay:" layer, so the depth of the wrapping locates it.
func (c *ChainClient) ProbeChain() (hop int, err error) {
	hops, err := c.next.Probe(c.ttl)
	if err != nil {
		failing := strings.Count(err.Error(), "downstream relay:") + 1
		return failing, fmt.Errorf("edge: chain probe failed at hop %d: %w", failing, err)
	}
	return len(hops), nil
}

// Ping verifies the WHOLE chain, not just the first hop: a chain with a dead
// mid-hop must report unhealthy even though hop 1 answers. Implemented as a
// ProbeChain traversal; the failing hop is named in the error.
func (c *ChainClient) Ping() error {
	_, err := c.ProbeChain()
	return err
}

// The transport to the first hop answers for the chain's wire: a probe with
// the caller's hop budget, the live estimate of the edge→first-hop link (each
// further hop's downstream keeps its own), the first hop's piggybacked load,
// the bytes shipped to it. Close releases it (the direct fallback client, if
// any, belongs to the caller).
func (c *ChainClient) Probe(ttl uint8) ([]protocol.StageStatus, error) { return c.next.Probe(ttl) }
func (c *ChainClient) LinkEstimate() linkest.Estimate                  { return c.next.LinkEstimate() }
func (c *ChainClient) CloudLoad() (protocol.LoadStatus, bool)          { return c.next.CloudLoad() }
func (c *ChainClient) BytesSent() uint64                               { return c.next.BytesSent() }
func (c *ChainClient) Close() error                                    { return c.next.Close() }

// Capabilities: a chain takes raw requests only (see rawOnly) — its own stage
// 0 is what turns them into activations.
func (c *ChainClient) Capabilities() (protocol.Capabilities, bool) {
	return protocol.Capabilities{}, true
}

// Sheds reports how many relays the first hop answered with a shed.
func (c *ChainClient) Sheds() uint64 { return c.sheds.Load() }
