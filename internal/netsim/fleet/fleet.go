// Package fleet is the multi-edge scenario harness: it runs N concurrent
// edge runtimes against M cloud replicas, each edge over its own
// (independently shaped, optionally fault-injected) connections — one per
// replica, routed by edge.MultiClient when M > 1 — and aggregates per-edge
// reports into fleet-level throughput, shed-rate and accounting totals.
//
// The harness is what the fleet-shedding experiment and the stress/soak tests
// share: the caller owns the server (and its batching/shedding
// configuration); the harness owns the edges. The edge
// runtimes share one MEANet — evaluation-mode forward passes of the nn stack
// are stateless, so a single set of weights serves any number of concurrent
// edges, which is also what keeps an N-edge scenario affordable in tests.
package fleet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/tensor"
)

// Config describes one fleet run.
type Config struct {
	// Addr is the cloud server's address (the single-replica shorthand).
	Addr string
	// Addrs are the cloud replica addresses for a multi-replica fleet; each
	// edge dials every replica and routes offloads with edge.MultiClient.
	// Set Addr or Addrs, not both. With DialReplica set, Addrs still
	// provides the replica count and report labels (addresses need not be
	// dialable then).
	Addrs []string
	// Edges is the number of concurrent edge runtimes (required, ≥ 1).
	Edges int
	// Batches is how many times each edge classifies Input (required, ≥ 1).
	Batches int

	// Net is the edge network every runtime shares (required).
	Net *core.MEANet
	// Policy is each runtime's starting policy (copied per edge — the
	// threshold controller moves each edge's copy independently).
	Policy core.Policy
	// Cost parameterizes the per-edge accounting (may be nil).
	Cost *edge.CostParams
	// Mode is the upload representation (default raw).
	Mode edge.OffloadMode
	// Input is the NCHW batch each edge classifies per iteration (required).
	Input *tensor.Tensor
	// Labels, when non-nil, are Input's row labels; accuracy is accumulated
	// against them.
	Labels []int

	// Link shapes edge i's uplink (nil or zero links = unshaped). Ignored
	// when Dial is set.
	Link func(i int) netsim.Link
	// Dial, when non-nil, replaces the default dialer for edge i — the hook
	// the soak tests use to inject flaky transports. The SAME function is
	// installed as the client's Redial, so a broken connection is replaced
	// by another Dial(i) call.
	Dial func(i int) (net.Conn, error)
	// DialReplica is Dial for multi-replica runs: it dials edge i's
	// connection to replica r (and serves as that connection's Redial). It
	// requires Addrs for the replica count; set it or Dial, not both.
	DialReplica func(i, r int) (net.Conn, error)
	// Multi tunes each edge's replica router (multi-replica runs only). The
	// per-edge router seed is decorrelated across edges on top of Multi.Seed
	// so the fleet's power-of-two choices don't sample in lockstep.
	Multi edge.MultiConfig
	// Membership, when non-nil, runs in its own goroutine per edge next to
	// the classify loop, holding that edge's replica router — the hook the
	// join/leave soak uses to add and remove replicas mid-run. done closes
	// when the edge's last batch finishes, and the harness waits for the
	// hook to return before closing the client, so membership calls never
	// race a closed router. Multi-replica runs only (requires ≥ 2 Addrs).
	Membership func(i int, mc *edge.MultiClient, done <-chan struct{})
	// ClientConfig is the base TCP client configuration (per-edge Redial is
	// installed on top).
	ClientConfig edge.DialConfig
	// LatencyBudget, when > 0, arms each runtime's closed-loop threshold
	// controller (edge.Runtime.SetLatencyBudget).
	LatencyBudget time.Duration
	// Adapt, when non-nil, replaces each runtime's adaptation tuning (the
	// soak tests cap MaxThreshold below the workload's entropy so shed
	// pressure stays continuous instead of the controller shedding ALL
	// offload load).
	Adapt *edge.AdaptConfig
}

func (c *Config) validate() error {
	if c.Addr == "" && len(c.Addrs) == 0 && c.Dial == nil {
		return errors.New("fleet: no server address and no dialer")
	}
	if c.Addr != "" && len(c.Addrs) > 0 {
		return errors.New("fleet: set Addr or Addrs, not both")
	}
	if c.Dial != nil && c.DialReplica != nil {
		return errors.New("fleet: set Dial or DialReplica, not both")
	}
	if c.DialReplica != nil && len(c.Addrs) == 0 {
		return errors.New("fleet: DialReplica needs Addrs for the replica count")
	}
	if c.Edges < 1 {
		return fmt.Errorf("fleet: %d edges, want ≥ 1", c.Edges)
	}
	if c.Batches < 1 {
		return fmt.Errorf("fleet: %d batches, want ≥ 1", c.Batches)
	}
	if c.Net == nil {
		return errors.New("fleet: nil edge network")
	}
	if c.Input == nil || c.Input.Dims() != 4 {
		return errors.New("fleet: Input must be an NCHW batch")
	}
	if c.Labels != nil && len(c.Labels) != c.Input.Dim(0) {
		return fmt.Errorf("fleet: %d labels for %d input rows", len(c.Labels), c.Input.Dim(0))
	}
	if c.Membership != nil && len(c.Addrs) < 2 {
		return errors.New("fleet: Membership needs a multi-replica run (≥ 2 Addrs)")
	}
	return nil
}

// replicaCount resolves how many cloud replicas each edge connects to.
func (c *Config) replicaCount() int {
	if len(c.Addrs) > 0 {
		return len(c.Addrs)
	}
	return 1
}

// dialer resolves edge i's dial function for replica r. All of an edge's
// replica connections share the edge's link shaping — the uplink is the
// edge's bottleneck, not the replicas'.
func (c *Config) dialer(i, r int) func() (net.Conn, error) {
	if c.DialReplica != nil {
		return func() (net.Conn, error) { return c.DialReplica(i, r) }
	}
	if c.Dial != nil {
		return func() (net.Conn, error) { return c.Dial(i) }
	}
	addr := c.Addr
	if len(c.Addrs) > 0 {
		addr = c.Addrs[r]
	}
	var link netsim.Link
	if c.Link != nil {
		link = c.Link(i)
	}
	return func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return netsim.Shape(conn, link), nil
	}
}

// EdgeResult is one edge runtime's outcome.
type EdgeResult struct {
	Index int
	// Report is the runtime's full accounting.
	Report edge.Report
	// Correct counts label matches (0 without Labels).
	Correct int
	// WireBytes and WireSheds are the TRANSPORT's counters: actual frame
	// bytes written (headers included, retries and refused uploads too) and
	// shed frames received — the wire truth next to the Report's modeled
	// accounting.
	WireBytes uint64
	WireSheds uint64
	// Replicas is the edge's replica router snapshot (edge.MultiClient);
	// nil for single-replica edges.
	Replicas []edge.ReplicaStats
}

// ReplicaTotals is one replica's fleet-wide routing accounting: the sums of
// the edge-side per-replica counters (edge.ReplicaStats) across all edges.
type ReplicaTotals struct {
	Addr      string
	Offloads  uint64
	Sheds     uint64
	Failures  uint64
	BytesSent uint64
}

// Result aggregates a fleet run.
type Result struct {
	Edges   []EdgeResult
	Elapsed time.Duration

	// Replicas aggregates per-replica routing accounting across all edges
	// (multi-replica runs only; nil for single-replica fleets).
	Replicas []ReplicaTotals

	// Instances is the fleet-wide classified total; ImagesPerSec is
	// Instances over the wall-clock of the whole run (all edges truly
	// concurrent, so this is aggregate system throughput).
	Instances    int
	ImagesPerSec float64

	// The three-way service split. EdgeServed counts instances the edge
	// decided for on its own merits; ShedFallbacks counts instances pushed
	// onto the edge by cloud admission control; CloudServed counts cloud
	// exits. EdgeServed + CloudServed + ShedFallbacks == Instances always —
	// Run fails loudly if any edge's books do not balance.
	EdgeServed    int
	CloudServed   int
	ShedFallbacks int
	// ShedEvents counts shed REPLIES (one per refused round trip) and
	// CloudFailures instances whose transport attempts all failed.
	ShedEvents    int
	CloudFailures int
	// Correct sums label matches (meaningful only with Labels).
	Correct int
}

// Accuracy is the fleet-wide label-match rate (0 without labels).
func (r *Result) Accuracy() float64 {
	if r.Instances == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Instances)
}

// ShedRate is the fraction of instances served as shed fallbacks.
func (r *Result) ShedRate() float64 {
	if r.Instances == 0 {
		return 0
	}
	return float64(r.ShedFallbacks) / float64(r.Instances)
}

// CloudFraction is the fleet-wide β.
func (r *Result) CloudFraction() float64 {
	if r.Instances == 0 {
		return 0
	}
	return float64(r.CloudServed) / float64(r.Instances)
}

// Run executes the fleet: Edges goroutines, each with its own TCP client and
// runtime, classifying Input Batches times concurrently. It returns after
// every edge finished (or the first hard error) with the clients closed; the
// server — owned by the caller — keeps running.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	results := make([]EdgeResult, cfg.Edges)
	errs := make([]error, cfg.Edges)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Edges; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runEdge(&cfg, i)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet: edge %d: %w", i, err)
		}
	}

	res := &Result{Edges: results, Elapsed: elapsed}
	// Replica totals are keyed by address, not row index: with live
	// membership the per-edge stat tables are append-only and may differ
	// across edges (a replica removed and re-added keeps its historical row
	// and gains a fresh one), so the same address is summed wherever it
	// appears. Order is first-seen.
	replicaRow := make(map[string]int)
	for i := range results {
		rep := &results[i].Report
		cloudServed := rep.Exits[core.ExitCloud]
		edgeExits := rep.Exits[core.ExitMain] + rep.Exits[core.ExitExtension]
		// The no-lost-no-duplicated invariant, per edge: every instance fed
		// in exited exactly once, and every shed fallback is one of the
		// edge exits.
		if cloudServed+edgeExits != rep.N || rep.ShedFallbacks > edgeExits {
			return nil, fmt.Errorf("fleet: edge %d accounting broken: %d cloud + %d edge exits for %d instances (%d shed fallbacks)",
				i, cloudServed, edgeExits, rep.N, rep.ShedFallbacks)
		}
		res.Instances += rep.N
		res.CloudServed += cloudServed
		res.EdgeServed += edgeExits - rep.ShedFallbacks
		res.ShedFallbacks += rep.ShedFallbacks
		res.ShedEvents += rep.ShedEvents
		res.CloudFailures += rep.CloudFailures
		res.Correct += results[i].Correct
		for _, st := range results[i].Replicas {
			r, ok := replicaRow[st.Addr]
			if !ok {
				r = len(res.Replicas)
				replicaRow[st.Addr] = r
				res.Replicas = append(res.Replicas, ReplicaTotals{Addr: st.Addr})
			}
			res.Replicas[r].Offloads += st.Offloads
			res.Replicas[r].Sheds += st.Sheds
			res.Replicas[r].Failures += st.Failures
			res.Replicas[r].BytesSent += st.BytesSent
		}
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.ImagesPerSec = float64(res.Instances) / secs
	}
	return res, nil
}

// runEdge is one edge's whole life: dial every replica, classify Batches
// times, report. With one replica the client is the plain TCPClient; with
// several, the per-replica clients are wrapped in an edge.MultiClient.
func runEdge(cfg *Config, i int) (EdgeResult, error) {
	nrep := cfg.replicaCount()
	clients := make([]edge.CloudClient, 0, nrep)
	var tcp *edge.TCPClient // the last (with one replica: the only) connection
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	for r := 0; r < nrep; r++ {
		dial := cfg.dialer(i, r)
		conn, err := dial()
		if err != nil {
			closeAll()
			return EdgeResult{}, fmt.Errorf("dial replica %d: %w", r, err)
		}
		ccfg := cfg.ClientConfig
		ccfg.Redial = dial
		tcp = edge.NewClientOnConn(conn, ccfg)
		clients = append(clients, tcp)
	}
	// Both the TCPClient and the MultiClient classify and keep wire counters.
	var client interface {
		edge.CloudClient
		BytesSent() uint64
		Sheds() uint64
	}
	var mc *edge.MultiClient
	if nrep == 1 {
		client = tcp
	} else {
		mcfg := cfg.Multi
		// Decorrelate the edges' routers: same scenario, independent
		// tie-breaks, so p2c does not sample in fleet-wide lockstep.
		mcfg.Seed += int64(i) * 7919
		var err error
		mc, err = edge.NewMultiClient(clients, cfg.Addrs, mcfg)
		if err != nil {
			closeAll()
			return EdgeResult{}, err
		}
		client = mc
	}
	defer client.Close()
	if mc != nil && cfg.Membership != nil {
		// Registered after the Close defer, so (LIFO) the hook is stopped
		// before the router it holds is closed.
		done := make(chan struct{})
		var memWG sync.WaitGroup
		memWG.Add(1)
		go func() {
			defer memWG.Done()
			cfg.Membership(i, mc, done)
		}()
		defer func() {
			close(done)
			memWG.Wait()
		}()
	}

	rt, err := edge.NewRuntime(cfg.Net, cfg.Policy, client, cfg.Cost)
	if err != nil {
		return EdgeResult{}, err
	}
	if err := rt.SetOffloadMode(cfg.Mode); err != nil {
		return EdgeResult{}, err
	}
	if cfg.LatencyBudget > 0 {
		rt.SetLatencyBudget(cfg.LatencyBudget)
	}
	if cfg.Adapt != nil {
		rt.SetAdaptConfig(*cfg.Adapt)
	}
	correct := 0
	for b := 0; b < cfg.Batches; b++ {
		decisions, err := rt.Classify(cfg.Input)
		if err != nil {
			return EdgeResult{}, fmt.Errorf("batch %d: %w", b, err)
		}
		if cfg.Labels != nil {
			for j, d := range decisions {
				if d.Pred == cfg.Labels[j] {
					correct++
				}
			}
		}
	}
	res := EdgeResult{
		Index:     i,
		Report:    rt.Report(),
		Correct:   correct,
		WireBytes: client.BytesSent(),
		WireSheds: client.Sheds(),
	}
	if mc != nil {
		res.Replicas = mc.ReplicaStats()
	}
	return res, nil
}

// SlowModel wraps a cloud model with a serialized fixed delay per forward
// pass — the deterministic stand-in for a saturated single-accelerator cloud
// that the fleet scenarios push into admission control. Serialization is the
// point: N concurrent forwards take N×Delay wall-clock, exactly like N
// batches queued on one accelerator, so "saturated" is a controlled quantity
// instead of an accident of host load.
type SlowModel struct {
	Inner cloud.Model
	Delay time.Duration

	mu sync.Mutex
}

// Logits sleeps through the modeled compute, then runs the real forward —
// still serialized, so the fake accelerator's answers stay bitwise identical
// to the wrapped model's.
func (m *SlowModel) Logits(x *tensor.Tensor, train bool) *tensor.Tensor {
	m.mu.Lock()
	defer m.mu.Unlock()
	time.Sleep(m.Delay)
	return m.Inner.Logits(x, train)
}
