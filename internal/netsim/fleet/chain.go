package fleet

// The chain harness: stand up an N-hop stage pipeline (cloud stage servers
// connected hop→hop through the real edge transport, each leg shaped by its
// own netsim link) so pipeline-partition scenarios and benchmarks measure the
// whole relay path — framing, pipelining, per-hop shaping — on loopback
// sockets. The caller builds the serving chain every hop mounts (real layers,
// or one SlowStage/ShapeStage unit per modeled stage) and picks the cuts on
// its chain client; the harness owns wiring order and teardown.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/tensor"
)

// SlowStage wraps a chain stage with a serialized fixed delay per forward —
// the SlowModel idea for nn.Layer stages: one accelerator per hop, N queued
// forwards take N×Delay, and the wrapped stage's outputs stay bitwise
// identical. Scenarios set Delay from the placement solver's per-stage
// ComputeSec, so the measured pipeline obeys the modeled physics instead of
// host-load accidents.
type SlowStage struct {
	Inner nn.Layer
	Delay time.Duration

	mu sync.Mutex // serializes Forward: one accelerator's queue, not a parallel pool
}

// Forward sleeps through the modeled stage compute, then runs the real stage.
func (s *SlowStage) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(s.Delay)
	return s.Inner.Forward(x, train)
}

// Backward and Params delegate to the wrapped stage (chain stages only ever
// run eval-mode forwards, but nn.Layer requires the full interface).
func (s *SlowStage) Backward(grad *tensor.Tensor) *tensor.Tensor { return s.Inner.Backward(grad) }
func (s *SlowStage) Params() []*nn.Param                         { return s.Inner.Params() }

// ShapeStage is the zero-cpu chain-stage stand-in (the flatModel idea for
// relay hops): it emits a zero tensor of the configured per-instance shape,
// so a hop's serving cost is exactly its SlowStage delay and its downstream
// wire cost is exactly the modeled activation size. Non-terminal hops use a
// CHW Dims (rank-4 batches relay downstream); the terminal hop uses a single
// class-count dim (rank-2 logits). Predictions are meaningless — pipeline
// scenarios run unlabeled.
type ShapeStage struct {
	Dims []int // per-instance output dims, batch dim excluded
}

// Forward emits zeros of shape [batch, Dims...].
func (s ShapeStage) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return tensor.New(append([]int{x.Dim(0)}, s.Dims...)...)
}

// Backward and Params satisfy nn.Layer; ShapeStage is inference-only.
func (s ShapeStage) Backward(dy *tensor.Tensor) *tensor.Tensor { return dy }
func (s ShapeStage) Params() []*nn.Param                       { return nil }

// RunChainLoad drives total single-image classifies through the client from
// workers concurrent goroutines — the open-loop load generator for chain
// scenarios, where batch-1 frames keep per-hop pipelining honest (a big batch
// would amortize each hop's fixed delay and overstate throughput). Returns
// aggregate images/s over the wall clock.
func RunChainLoad(client edge.CloudClient, img *tensor.Tensor, workers, total int) (float64, error) {
	if workers < 1 || total < 1 {
		return 0, fmt.Errorf("fleet: chain load needs ≥1 worker and ≥1 instance, got %d/%d", workers, total)
	}
	var next atomic.Int64
	errs := make([]error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for next.Add(1) <= int64(total) {
				if _, _, err := client.Classify(img); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if elapsed <= 0 {
		return 0, fmt.Errorf("fleet: zero elapsed time measuring chain load")
	}
	return float64(total) / elapsed, nil
}

// ChainHop is one stage server in a relay chain. Link shapes this hop's
// connection to the NEXT hop (unused on the terminal hop).
type ChainHop struct {
	// Chain is the full serving chain the hop mounts — the SAME slice on all
	// hops; each relay frame's route says which span runs where.
	Chain []nn.Layer
	Link  netsim.Link
}

// Chain is a running stage pipeline: hop 0 is the one the edge dials.
type Chain struct {
	Servers []*cloud.Server
	// Clients are the hop→next-hop transports (one per non-terminal hop),
	// owned by the chain and closed with it.
	Clients []*edge.TCPClient
}

// Addr is the first hop's listen address — what the edge's ChainClient dials.
func (c *Chain) Addr() string { return c.Servers[0].Addr().String() }

// Close tears the chain down back-to-front: each server first (unblocking its
// reads), then its downstream transport.
func (c *Chain) Close() {
	for i := len(c.Servers) - 1; i >= 0; i-- {
		if c.Servers[i] != nil { // partial chains from a failed StartChain
			c.Servers[i].Close()
		}
	}
	for _, cl := range c.Clients {
		cl.Close()
	}
}

// StartChain brings up one stage server per hop on loopback, wired LAST to
// FIRST so every non-terminal hop can dial its (already listening) successor
// through the edge transport, shaped by the hop's Link. The servers are pure
// stage hops (no raw/tail model).
func StartChain(hops []ChainHop) (*Chain, error) {
	if len(hops) == 0 {
		return nil, fmt.Errorf("fleet: chain needs at least one hop")
	}
	c := &Chain{Servers: make([]*cloud.Server, len(hops))}
	fail := func(err error) (*Chain, error) {
		c.Close()
		return nil, err
	}
	var nextAddr string
	for i := len(hops) - 1; i >= 0; i-- {
		cfg := cloud.StageConfig{Chain: hops[i].Chain}
		if nextAddr != "" {
			down, err := edge.DialCloud(nextAddr, edge.DialConfig{Link: hops[i].Link})
			if err != nil {
				return fail(fmt.Errorf("fleet: hop %d dial downstream: %w", i, err))
			}
			c.Clients = append(c.Clients, down)
			cfg.Downstream = down
		}
		srv, err := cloud.NewServer(nil, nil, cloud.WithStage(cfg))
		if err != nil {
			return fail(fmt.Errorf("fleet: hop %d: %w", i, err))
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return fail(fmt.Errorf("fleet: hop %d listen: %w", i, err))
		}
		c.Servers[i] = srv
		nextAddr = srv.Addr().String()
	}
	return c, nil
}
