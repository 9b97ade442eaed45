// Package fleet is the multi-edge scenario harness: it runs N concurrent
// edge runtimes against M cloud replicas, each edge over its own connections
// dialed by deploy.DialTier, the wiring meanet-edge runs — one per replica,
// routed by edge.MultiClient when M > 1, fault-injected through Config.Dial
// when M = 1 — and aggregates per-edge reports into fleet-level throughput
// and accounting totals.
//
// The harness is what the stress/soak tests and the nightly saturation ratios
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
	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/tensor"
)

// Config describes one fleet run.
type Config struct {
	// Addrs are the cloud replica addresses (required): with one, each edge
	// holds a single connection; with several, each edge dials every replica
	// and routes offloads with edge.MultiClient (deploy.DialTier).
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
	// Input is the NCHW batch each edge classifies per iteration (required).
	Input *tensor.Tensor

	// Dial, when non-nil, dials edge i's connection to the one replica —
	// the hook the soak tests use to inject flaky transports. It becomes the
	// client's DialConfig.Redial, so a broken connection is replaced by
	// another Dial(i) call. Single-replica runs only (exactly one Addr).
	Dial func(i int) (net.Conn, error)
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
	// Adapt, when non-nil, replaces each runtime's adaptation tuning (the
	// soak tests cap MaxThreshold below the workload's entropy so shed
	// pressure stays continuous instead of the controller shedding ALL
	// offload load).
	Adapt *edge.AdaptConfig
}

func (c *Config) validate() error {
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
	if c.Membership != nil && len(c.Addrs) < 2 {
		return errors.New("fleet: Membership needs a multi-replica run (≥ 2 Addrs)")
	}
	return nil
}

// EdgeResult is one edge runtime's outcome.
type EdgeResult struct {
	Index int
	// Report is the runtime's full accounting.
	Report edge.Report
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

// runEdge is one edge's whole life: dial the cloud tier, classify Batches
// times, report.
func runEdge(cfg *Config, i int) (EdgeResult, error) {
	dcfg := cfg.ClientConfig
	if cfg.Dial != nil {
		dcfg.Redial = func() (net.Conn, error) { return cfg.Dial(i) }
	}
	// Decorrelate the edges' routers: same scenario, independent
	// tie-breaks, so p2c does not sample in fleet-wide lockstep. Edge 0
	// keeps the default seed.
	client, mc, err := deploy.DialTier(cfg.Addrs, dcfg, edge.MultiConfig{Seed: int64(i) * 7919})
	if err != nil {
		return EdgeResult{}, err
	}
	defer client.Close()
	if cfg.Membership != nil { // validate: ≥ 2 Addrs, so mc is the router
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
	if cfg.Adapt != nil {
		rt.SetAdaptConfig(*cfg.Adapt)
	}
	for b := 0; b < cfg.Batches; b++ {
		if _, err := rt.Classify(cfg.Input); err != nil {
			return EdgeResult{}, fmt.Errorf("batch %d: %w", b, err)
		}
	}
	res := EdgeResult{
		Index:     i,
		Report:    rt.Report(),
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
