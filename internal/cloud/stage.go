package cloud

// Stage-server mode: a server configured with WithStage participates in a
// multi-hop partitioned deployment (core.Partition). Chains are
// SOURCE-ROUTED: every hop holds the FULL serving chain and runs whatever
// unit span an activation request's route assigns it (Server.infer), then
// forwards the outputs downstream — or, when the route ends here, answers
// like any other request, so chained predictions are bitwise identical to the
// monolithic forward. A hop knows neither its index nor the cuts, which is
// what lets the edge move a cut mid-run with no server reconfigured.
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

// Downstream is the transport a non-terminal stage server forwards through —
// the subset of edge.Transport a hop needs: the inference call, the chain
// probe, and the live estimate of the link they ride, which the hop reports
// in its own StageStatus entry so the edge solver sees every inter-hop link.
// A hop thereby reuses the full edge transport stack for its downstream leg.
type Downstream interface {
	Infer(req protocol.InferRequest) (protocol.InferReply, error)
	Probe(ttl uint8) ([]protocol.StageStatus, error)
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

// WithStage enables stage-server mode: activation requests run
// route-assigned spans of cfg.Chain and forward downstream (or terminate the
// chain), MsgRelay probes traverse it. A server may combine a chain with
// raw/tail models and serve every representation; a pure relay hop passes nil
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

// stageMode reports whether this server holds a serving chain at all.
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

// downstreamFailure maps a failed downstream exchange onto the reply frame. A
// refusal by admission control — not a failure — propagates upstream as
// MsgShed with the downstream's hold hint, so the edge takes its zero-charge
// hold instead of charging a retry (a replica-set downstream reports a shed
// only when EVERY member refused); anything else is an error, wrapped in one
// "downstream relay:" layer per hop so a probe can locate the break.
func (s *Server) downstreamFailure(id uint64, err error) protocol.Frame {
	if errors.Is(err, core.ErrShed) {
		retryAfter := protocol.DefaultRetryAfter // the downstream shed carried none
		var h retryAfterHint
		if errors.As(err, &h) && h.RetryAfterHint() > 0 {
			retryAfter = h.RetryAfterHint()
		}
		return s.shedFrame(id, retryAfter)
	}
	return s.failed(id, fmt.Sprintf("downstream relay: %v", err))
}

// errTTLExhausted answers a frame whose hop budget ran out before the route
// did. The TTL guards against relay cycles (a chain misconfigured into a loop
// would otherwise circulate frames forever): refuse to forward rather than
// decrement below zero.
var errTTLExhausted = errors.New("relay TTL exhausted (chain cycle or more hops than the sender allowed)")

// probeFrame serves a MsgRelay frame, the zero-instance chain probe: no stage
// runs; a terminal hop answers an empty reply carrying its own status, a
// forwarding hop relays the probe downstream and prepends its status — so one
// probe verifies every transport leg and returns the full per-hop telemetry
// vector.
func (s *Server) probeFrame(f protocol.Frame) protocol.Frame {
	if !s.stageMode() {
		return errorFrame(f.ID, "stage mode not supported by this server")
	}
	ttl, err := protocol.DecodeRelayProbe(f.Payload)
	if err != nil {
		return s.failed(f.ID, "static relay was removed: MsgRelay carries only the TTL byte of a chain probe; send activations source-routed as MsgInfer")
	}
	var downHops []protocol.StageStatus
	if s.down != nil {
		if ttl == 0 {
			return s.failed(f.ID, errTTLExhausted.Error())
		}
		if downHops, err = s.down.Probe(ttl - 1); err != nil {
			return s.downstreamFailure(f.ID, err)
		}
	}
	return s.reply(f.ID, nil, append([]protocol.StageStatus{s.stageStatus()}, downHops...))
}

// routeSpan validates an activation request's route against this hop and
// returns the forward of the unit span it assigns: [Pos, Bounds[0]), or
// through the end of the chain when no boundaries remain — the terminal hop
// for THIS request. The cuts travel with the request, so two requests on the
// same connection may run different spans here: exactly what a live cut move
// looks like mid-drain. The forward folds its own duration into the
// service-time estimate piggybacked on relay replies: per-instance wall time
// divided by the relay forwards sharing the cores, so a contended hop reports
// its true per-instance cost, not its queueing delay, and the edge solver
// doesn't misread upstream congestion as a slow device.
func (s *Server) routeSpan(req protocol.InferRequest) (func(*tensor.Tensor) *tensor.Tensor, error) {
	L := len(s.chain)
	if req.Pos >= L {
		return nil, fmt.Errorf("route position %d past serving chain of %d units", req.Pos, L)
	}
	next := L
	if n := len(req.Bounds); n > 0 {
		// Catch a bad route here rather than hops later: boundaries are
		// strictly increasing, so checking the last covers them all.
		if req.Bounds[n-1] >= L {
			return nil, fmt.Errorf("route boundary %d past serving chain of %d units", req.Bounds[n-1], L)
		}
		if req.TTL == 0 {
			return nil, errTTLExhausted
		}
		if s.down == nil {
			return nil, fmt.Errorf("route continues past this hop (%d boundaries left) but no downstream is configured", n)
		}
		next = req.Bounds[0]
	}
	units := s.chain[req.Pos:next]
	return func(x *tensor.Tensor) *tensor.Tensor {
		n := x.Dim(0)
		active := s.relayActive.Add(1)
		defer s.relayActive.Add(-1) // also when a unit panics on bad geometry
		start := time.Now()
		for _, u := range units {
			x = u.Forward(x, false)
		}
		s.svcMu.Lock()
		s.svc.Observe(time.Since(start).Seconds()/float64(n), float64(active), linkest.ServiceAlpha)
		s.svcMu.Unlock()
		return x
	}, nil
}

// forwardDownstream ships a non-terminal span's output on with the leading
// boundary consumed, and relays the terminal hop's results back with this
// hop's status PREPENDED to the vector the downstream reported — so the edge
// receives hop-ordered telemetry with zero extra round trips.
func (s *Server) forwardDownstream(id uint64, req protocol.InferRequest, out *tensor.Tensor) protocol.Frame {
	n := req.Instances()
	down, err := s.down.Infer(protocol.InferRequest{
		Rep: protocol.RepActivation, TTL: req.TTL - 1, Pos: req.Bounds[0], Bounds: req.Bounds[1:], Tensor: out,
	})
	if err != nil {
		return s.downstreamFailure(id, err)
	}
	if len(down.Results) != n {
		return s.failed(id, fmt.Sprintf("downstream returned %d results for %d instances", len(down.Results), n))
	}
	s.relayed.Add(uint64(n))
	return s.reply(id, down.Results, append([]protocol.StageStatus{s.stageStatus()}, down.Hops...))
}
