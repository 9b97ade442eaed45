package cloud

// Stage-server mode: a server configured with WithStage participates in a
// multi-hop partitioned deployment (core.Partition). Chains are
// SOURCE-ROUTED (MsgRelayRoute): every hop holds the FULL serving chain and
// runs whatever unit span the frame's route assigns it, then forwards the
// outputs downstream — or, when the route ends here, argmaxes the logits and
// answers with the usual MsgResultBatch (the SAME post-processing as
// classifyBatchFrame, so chained predictions are bitwise identical to the
// monolithic forward). The cuts live in the frame, not in server config — a
// hop knows neither its index nor the cuts — which is what lets the edge's
// live re-placement solver move a cut mid-run: in-flight frames complete on
// the old route while new frames ship the new one, and no server is
// reconfigured.
//
// The hop keeps no health model of its downstream: Downstream is ONE
// interface, satisfied by a single transport (*edge.TCPClient) or by a whole
// replica set behind the edge's router (*edge.MultiClient — p2c, capacity
// weighting, exclusion windows, live membership), so any chain position can
// be a set of devices and failover is the router's business. A shed from
// downstream propagates upstream as MsgShed — the zero-charge hold signal —
// never as a generic error. Every relay reply piggybacks a per-hop
// StageStatus vector (measured stage service time + the hop's own downstream
// link estimate), the telemetry the edge's re-placement solver runs on.
//
// This package deliberately depends only on the Downstream interface, never
// on the edge package; shed-ness of a downstream error is detected through
// errors.Is against core.ErrShed and the optional RetryAfterHint method,
// both satisfied by edge.ShedError.

import (
	"errors"
	"fmt"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// Downstream is the transport a non-terminal stage server forwards through:
// the relay method pair plus the live estimate of the link it rides, which
// the hop reports in its own StageStatus entry so the edge solver sees every
// inter-hop link. A chain hop thereby reuses the full edge transport stack —
// pipelining, redial with backoff, per-hop link estimation, and with a
// MultiClient replica routing — for its own downstream leg.
type Downstream interface {
	RelayRouted(batch *tensor.Tensor, ttl uint8, pos int, bounds []int) ([]protocol.Result, []protocol.StageStatus, error)
	RelayProbe(ttl uint8) ([]protocol.StageStatus, error)
	LinkEstimate() linkest.Estimate
}

// retryAfterHint extracts the hold hint a shed error carries upstream
// (edge.ShedError implements it).
type retryAfterHint interface{ RetryAfterHint() time.Duration }

// StageConfig configures a server's role in a relay chain.
type StageConfig struct {
	// Chain is the FULL serving chain at unit granularity
	// (core.FlattenChain) — the same chain on every hop and on the edge. The
	// hop runs whatever span each frame's route assigns it.
	Chain []nn.Layer
	// Downstream is the next hop (or replica set of next hops); nil marks the
	// terminal hop.
	Downstream Downstream
	// MaxInFlight bounds concurrent relay dispatches per connection
	// (default 16). Relay dispatches run concurrently — a non-terminal hop
	// BLOCKS on its downstream round trip, and handling relays inline would
	// stall the connection's read loop and collapse chain pipelining to
	// lockstep — so the bound is what turns a fast upstream into TCP
	// backpressure instead of an unbounded goroutine/tensor backlog.
	MaxInFlight int
}

// defaultDownstreamRetry is the hold hint propagated upstream when a
// downstream shed carried none.
const defaultDownstreamRetry = 50 * time.Millisecond

// WithStage enables stage-server mode: MsgRelayRoute frames run
// route-assigned spans of cfg.Chain and forward downstream (or terminate the
// chain), MsgRelay probes traverse it. A server may combine a chain with
// raw/tail models and serve all frame types; a pure relay hop passes nil
// models to NewServer.
func WithStage(cfg StageConfig) Option {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 16
	}
	return func(s *Server) {
		s.chain = cfg.Chain
		s.down = cfg.Downstream
		s.stageInflight = cfg.MaxInFlight
	}
}

// stageMode reports whether this server serves relay frames at all.
func (s *Server) stageMode() bool { return len(s.chain) > 0 }

// stageStatus assembles this hop's StageStatus entry for a relay reply: the
// measured per-instance service time and, on a forwarding hop, the live
// estimate of its downstream link.
func (s *Server) stageStatus() protocol.StageStatus {
	var st protocol.StageStatus
	s.svcMu.Lock()
	st.ServiceNanos = uint64(s.svc.Seconds(linkest.ServiceMinSamples) * 1e9)
	s.svcMu.Unlock()
	if s.down != nil {
		est := s.down.LinkEstimate()
		if est.Mbps > 0 {
			st.DownMbps = float32(est.Mbps)
		}
		if est.RTT > 0 {
			st.DownRTTNanos = uint64(est.RTT)
		}
	}
	return st
}

// chainReply assembles the MsgResultBatch reply of a relay frame: results,
// this hop's load snapshot, and the per-hop status vector with this hop's
// entry PREPENDED to whatever the downstream reported — so the edge receives
// hop-ordered telemetry with zero extra round trips.
func (s *Server) chainReply(id uint64, results []protocol.Result, downHops []protocol.StageStatus) protocol.Frame {
	hops := append([]protocol.StageStatus{s.stageStatus()}, downHops...)
	return protocol.Frame{
		Type:    protocol.MsgResultBatch,
		ID:      id,
		Payload: protocol.EncodeResultsChain(results, s.loadStatus(), hops),
	}
}

// downstreamFailure maps a failed downstream exchange onto the reply frame. A
// refusal by admission control — not a failure — propagates upstream as
// MsgShed with the downstream's hold hint, so the edge takes its zero-charge
// hold instead of charging a retry (a replica-set downstream reports a shed
// only when EVERY member refused); anything else is an error, wrapped in one
// "downstream relay:" layer per hop so a probe can locate the break.
func (s *Server) downstreamFailure(id uint64, err error) protocol.Frame {
	if errors.Is(err, core.ErrShed) {
		retryAfter := defaultDownstreamRetry
		var h retryAfterHint
		if errors.As(err, &h) && h.RetryAfterHint() > 0 {
			retryAfter = h.RetryAfterHint()
		}
		return protocol.Frame{
			Type:    protocol.MsgShed,
			ID:      id,
			Payload: protocol.EncodeShed(retryAfter, s.loadStatus()),
		}
	}
	s.errorCount.Add(1)
	return errorFrame(id, fmt.Sprintf("downstream relay: %v", err))
}

// relayTTLExhausted answers a frame whose hop budget ran out before the
// route did. The TTL guards against relay cycles (a chain misconfigured into
// a loop would otherwise circulate frames forever): refuse to forward rather
// than decrement below zero.
func (s *Server) relayTTLExhausted(id uint64) protocol.Frame {
	s.errorCount.Add(1)
	return errorFrame(id, "relay TTL exhausted (chain cycle or more hops than the sender allowed)")
}

// probeFrame serves a MsgRelay frame, the zero-instance chain probe: no stage
// runs; a terminal hop answers an empty result batch carrying its own status,
// a forwarding hop relays the probe downstream and prepends its status — so
// one probe verifies every transport leg and returns the full per-hop
// telemetry vector. A legacy peer still sending static-chain activations on
// this wire value gets an error that names the replacement.
func (s *Server) probeFrame(f protocol.Frame) protocol.Frame {
	ttl, err := protocol.DecodeRelayProbe(f.Payload)
	if err != nil {
		s.errorCount.Add(1)
		return errorFrame(f.ID, "static relay was removed: MsgRelay carries only the TTL byte of a chain probe; send activations source-routed as MsgRelayRoute")
	}
	if s.down == nil {
		return s.chainReply(f.ID, nil, nil)
	}
	if ttl == 0 {
		return s.relayTTLExhausted(f.ID)
	}
	downHops, err := s.down.RelayProbe(ttl - 1)
	if err != nil {
		return s.downstreamFailure(f.ID, err)
	}
	return s.chainReply(f.ID, nil, downHops)
}

// spanForward composes a chain unit span in eval mode.
func spanForward(units []nn.Layer) func(*tensor.Tensor) *tensor.Tensor {
	return func(x *tensor.Tensor) *tensor.Tensor {
		for _, u := range units {
			x = u.Forward(x, false)
		}
		return x
	}
}

// routedFrame serves one MsgRelayRoute frame: run the unit span the route
// assigns this hop, then forward with the leading boundary consumed — or,
// when no boundaries remain, terminate the chain for THIS frame. The cuts
// travel with the frame, so two frames on the same connection may run
// different spans here: exactly what a live cut move looks like mid-drain.
func (s *Server) routedFrame(f protocol.Frame) protocol.Frame {
	ttl, pos, bounds, t, err := protocol.DecodeRoutedActivation(f.Payload)
	if err != nil {
		s.errorCount.Add(1)
		return errorFrame(f.ID, err.Error())
	}
	if t.Dims() < 2 {
		// Cuts may sit past the flattening layers, so rank-2 [batch,
		// features] activations are as legal as NCHW here — the only
		// requirement is a batch dimension to count instances by.
		s.errorCount.Add(1)
		return errorFrame(f.ID, fmt.Sprintf("expected a batched activation tensor (NCHW or [batch, features]), got rank %d", t.Dims()))
	}
	L := len(s.chain)
	if pos >= L {
		s.errorCount.Add(1)
		return errorFrame(f.ID, fmt.Sprintf("route position %d past serving chain of %d units", pos, L))
	}
	if len(bounds) > 0 && bounds[len(bounds)-1] >= L {
		// Catch a bad route here rather than hops later: boundaries are
		// strictly increasing, so checking the last covers them all.
		s.errorCount.Add(1)
		return errorFrame(f.ID, fmt.Sprintf("route boundary %d past serving chain of %d units", bounds[len(bounds)-1], L))
	}
	next := L
	if len(bounds) > 0 {
		next = bounds[0]
		if ttl == 0 {
			return s.relayTTLExhausted(f.ID)
		}
		if s.down == nil {
			s.errorCount.Add(1)
			return errorFrame(f.ID, fmt.Sprintf("route continues past this hop (%d boundaries left) but no downstream is configured", len(bounds)))
		}
	}

	// Run the span and fold its duration into the service-time estimate
	// piggybacked on relay replies: per-instance wall time divided by the
	// relay forwards sharing the cores, so a contended hop reports its true
	// per-instance cost, not its queueing delay, and the edge solver doesn't
	// misread upstream congestion as a slow device.
	n := t.Dim(0)
	active := s.relayActive.Add(1)
	start := time.Now()
	out, err := safeLogits(spanForward(s.chain[pos:next]), t)
	dur := time.Since(start)
	s.relayActive.Add(-1)
	if err != nil {
		s.errorCount.Add(1)
		return errorFrame(f.ID, err.Error())
	}
	s.svcMu.Lock()
	s.svc.Observe(dur.Seconds()/float64(n), float64(active), linkest.ServiceAlpha)
	s.svcMu.Unlock()

	if len(bounds) == 0 {
		// Terminal for this frame: identical post-processing to
		// classifyBatchFrame, so a chained forward answers bitwise like the
		// monolithic server would.
		results := make([]protocol.Result, n)
		for i := range results {
			pred, conf := argmaxRow(out.Row(i))
			results[i] = protocol.Result{Pred: int32(pred), Conf: conf}
		}
		s.instServed.Add(uint64(n))
		return s.chainReply(f.ID, results, nil)
	}
	results, downHops, err := s.down.RelayRouted(out, ttl-1, bounds[0], bounds[1:])
	if err != nil {
		return s.downstreamFailure(f.ID, err)
	}
	if len(results) != n {
		s.errorCount.Add(1)
		return errorFrame(f.ID, fmt.Sprintf("downstream returned %d results for %d instances", len(results), n))
	}
	s.relayed.Add(uint64(n))
	return s.chainReply(f.ID, results, downHops)
}
