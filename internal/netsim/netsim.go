// Package netsim provides network-condition simulation for the edge-cloud
// transport: an analytic link model for deterministic energy/latency
// accounting, a net.Conn wrapper that shapes real TCP traffic (latency +
// bandwidth), and fault-injecting wrappers for failure testing.
package netsim

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/meanet/meanet/internal/energy"
)

// Link describes a one-way network path. The analytic model lives with the
// other cost models in energy; this package applies it to real sockets.
type Link = energy.Link

// ShapedConn delays writes according to a Link, emulating a slow uplink on a
// real socket. Reads are untouched (the downlink result payloads are tiny).
// Each Write call is charged the link's one-way latency plus serialization
// ONCE — the protocol layer writes one frame per Write call, so the charge
// is exactly once per frame. The link may be changed mid-connection with
// SetLink to simulate degrading or recovering conditions.
type ShapedConn struct {
	net.Conn

	mu   sync.Mutex // guards link and serializes the pacing of writers
	link Link
}

// Shape wraps a connection so writes experience the link's latency and
// bandwidth. A zero link returns the connection unwrapped.
func Shape(conn net.Conn, link Link) net.Conn {
	if link.Latency == 0 && link.Mbps == 0 {
		return conn
	}
	return ShapeVar(conn, link)
}

// ShapeVar always wraps, returning the concrete *ShapedConn so callers can
// vary the link mid-run (the adaptive-offload tests and benchmarks degrade
// and recover the uplink while a client is connected).
func ShapeVar(conn net.Conn, link Link) *ShapedConn {
	return &ShapedConn{Conn: conn, link: link}
}

// SetLink replaces the link model; subsequent writes pace at the new rate.
func (c *ShapedConn) SetLink(link Link) {
	c.mu.Lock()
	c.link = link
	c.mu.Unlock()
}

// Write paces the payload through the simulated link before forwarding it.
func (c *ShapedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	delay := c.link.TransferTime(int64(len(p)))
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return c.Conn.Write(p)
}

// FaultMode selects how a faulty connection misbehaves.
type FaultMode int

// Fault modes.
const (
	// FailWrites makes Write return an error after the byte budget is spent.
	FailWrites FaultMode = iota + 1
	// CloseAbruptly closes the underlying connection after the byte budget,
	// so the peer sees EOF / reset mid-stream.
	CloseAbruptly
)

// faultConn injects transport failures after a configurable number of
// written bytes — used to test the edge runtime's cloud-failure fallback.
type faultConn struct {
	net.Conn
	mode FaultMode

	mu      sync.Mutex // guards budget, tripped
	budget  int64
	tripped bool
}

// InjectFault wraps a connection that misbehaves after budget written bytes.
func InjectFault(conn net.Conn, mode FaultMode, budget int64) net.Conn {
	return &faultConn{Conn: conn, mode: mode, budget: budget}
}

// Write forwards until the budget trips, then fails per the fault mode.
func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.tripped {
		c.mu.Unlock()
		return 0, fmt.Errorf("netsim: injected fault: connection broken")
	}
	c.budget -= int64(len(p))
	trip := c.budget < 0
	if trip {
		c.tripped = true
	}
	c.mu.Unlock()
	if trip {
		if c.mode == CloseAbruptly {
			_ = c.Conn.Close()
			return 0, fmt.Errorf("netsim: injected fault: connection closed")
		}
		return 0, fmt.Errorf("netsim: injected fault: write failed")
	}
	return c.Conn.Write(p)
}

// ShapedListener wraps accepted connections with a link model.
type ShapedListener struct {
	net.Listener
	Link Link
}

// Accept shapes every accepted connection.
func (l *ShapedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return Shape(conn, l.Link), nil
}
