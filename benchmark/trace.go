package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of the
// smallest span that contains it in time (-1 for a root): spans are recorded
// only during the serial sub-pass, where one call is in flight, so time
// containment IS causality and no frame IDs need parsing. Trace numbers the
// call the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Trace  int64  `json:"trace_id"`
}

// tracer holds the benchmark's own decorators' output: spans (serial
// sub-pass only) and always-on counters. A nil *tracer means tracing is off
// and arm() installs no decorator at all.
type tracer struct {
	epoch     time.Time
	recording atomic.Bool  // spans are kept only while set
	trace     atomic.Int64 // current call number in the serial sub-pass

	mu    sync.Mutex
	spans []span
	accs  map[string]*accumulator
	conns []*seamConn
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), accs: make(map[string]*accumulator)}
}

// accumulator sums durations (and one auxiliary quantity, e.g. batch size)
// at a decorated boundary. Safe for concurrent use.
type accumulator struct {
	ns, n, aux atomic.Int64
}

func (a *accumulator) add(d time.Duration, aux int64) {
	a.ns.Add(int64(d))
	a.n.Add(1)
	a.aux.Add(aux)
}

// acc returns the named accumulator, creating it on first use. Decorators
// call it at construction, never on the hot path.
func (t *tracer) acc(name string) *accumulator {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.accs[name]
	if !ok {
		a = &accumulator{}
		t.accs[name] = a
	}
	return a
}

// accSnapshot is a point-in-time copy of one accumulator.
type accSnapshot struct{ ns, n, aux int64 }

func (s accSnapshot) sub(o accSnapshot) accSnapshot {
	return accSnapshot{s.ns - o.ns, s.n - o.n, s.aux - o.aux}
}

func (s accSnapshot) ms() float64 { return float64(s.ns) / 1e6 }

// snapshot copies every accumulator; missing names read as zero.
func (t *tracer) snapshot() map[string]accSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]accSnapshot, len(t.accs))
	for name, a := range t.accs {
		out[name] = accSnapshot{a.ns.Load(), a.n.Load(), a.aux.Load()}
	}
	return out
}

// record keeps one span if the serial sub-pass is running.
func (t *tracer) record(name string, start, end time.Time) {
	if !t.recording.Load() {
		return
	}
	sp := span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: -1, Trace: t.trace.Load()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// assignParents sets each span's Parent to the smallest span that contains
// it in time. Sorting by start (longer first on ties) makes every container
// precede its contents, so one pass with a stack suffices.
func assignParents(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var stack []int
	for i := range spans {
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
			stack = stack[:len(stack)-1]
		}
		spans[i].Parent = -1
		if len(stack) > 0 {
			spans[i].Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover (overlapping
// children are merged before subtracting). Parents must be assigned.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, sp := range spans {
		covered := int64(0)
		cursor := sp.Start
		kids := children[i] // already in start order: spans are sorted
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cursor), min(spans[k].End, sp.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[sp.Name] += time.Duration(sp.End - sp.Start - covered)
	}
	return out
}

// writeTrace stores the spans as trace-<workload>.json under dir.
func (t *tracer) writeTrace(dir, workload string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	assignParents(spans)
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// --- the conn seam ---

// seamConn decorates a net.Conn with byte and call counters and, for the
// serial sub-pass, the per-call marks attribution needs. Two of them bracket
// a shaped link: the outer one sees a Write when the caller issues it, the
// inner one when the bytes reach the socket, so outer-minus-inner is the
// shaping delay.
type seamConn struct {
	net.Conn
	name string
	t    *tracer

	bytesOut, writes, bytesIn, reads atomic.Int64
	writeNs                          atomic.Int64 // time spent inside Write

	mu    sync.Mutex // guards marks
	marks connMarks
}

// connMarks are the serial sub-pass's per-call timestamps on one conn.
type connMarks struct {
	firstWriteStart time.Time
	lastWriteEnd    time.Time
	firstReadEnd    time.Time // first read that returned after lastWriteEnd
	lastReadEnd     time.Time
}

// seam wraps conn and registers it with the tracer under name.
func (t *tracer) seam(conn net.Conn, name string) *seamConn {
	c := &seamConn{Conn: conn, name: name, t: t}
	t.mu.Lock()
	t.conns = append(t.conns, c)
	t.mu.Unlock()
	return c
}

func (c *seamConn) Write(p []byte) (int, error) {
	start := time.Now()
	// Reset the reply mark BEFORE the bytes go out: once they are on the
	// socket the reply may be read before this goroutine runs again.
	c.mu.Lock()
	if c.marks.firstWriteStart.IsZero() {
		c.marks.firstWriteStart = start
	}
	c.marks.firstReadEnd = time.Time{}
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	end := time.Now()
	c.bytesOut.Add(int64(n))
	c.writes.Add(1)
	c.writeNs.Add(int64(end.Sub(start)))
	c.mu.Lock()
	c.marks.lastWriteEnd = end
	c.mu.Unlock()
	c.t.record("conn.write."+c.name, start, end)
	return n, err
}

func (c *seamConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	end := time.Now()
	if n > 0 {
		c.bytesIn.Add(int64(n))
		c.reads.Add(1)
		c.mu.Lock()
		written := c.marks.lastWriteEnd
		if c.marks.firstReadEnd.IsZero() {
			c.marks.firstReadEnd = end
		}
		c.marks.lastReadEnd = end
		c.mu.Unlock()
		// The read loop parks in Read between calls; the wait for THIS reply
		// starts when its request was written.
		if written.After(start) {
			start = written
		}
		c.t.record("conn.read_wait."+c.name, start, end)
	}
	return n, err
}

// takeMarks returns and clears the per-call marks.
func (c *seamConn) takeMarks() connMarks {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.marks
	c.marks = connMarks{}
	return m
}

// connTotals is a point-in-time copy of a seamConn's counters.
type connTotals struct{ bytesOut, writes, bytesIn, reads, writeNs int64 }

func (c *seamConn) totals() connTotals {
	return connTotals{c.bytesOut.Load(), c.writes.Load(), c.bytesIn.Load(), c.reads.Load(), c.writeNs.Load()}
}

func (a connTotals) sub(b connTotals) connTotals {
	return connTotals{a.bytesOut - b.bytesOut, a.writes - b.writes, a.bytesIn - b.bytesIn, a.reads - b.reads, a.writeNs - b.writeNs}
}

// conn returns the registered seam conns with the given name (a replica set
// registers several), or all of them for "".
func (t *tracer) conn(name string) []*seamConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*seamConn
	for _, c := range t.conns {
		if name == "" || c.name == name {
			out = append(out, c)
		}
	}
	return out
}

// connTotalsOf sums the counters of every seam conn named name.
func (t *tracer) connTotalsOf(name string) connTotals {
	var sum connTotals
	for _, c := range t.conn(name) {
		ct := c.totals()
		sum.bytesOut += ct.bytesOut
		sum.writes += ct.writes
		sum.bytesIn += ct.bytesIn
		sum.reads += ct.reads
		sum.writeNs += ct.writeNs
	}
	return sum
}

// --- layer, model and client decorators ---

// timedLayer decorates one chain unit (the []nn.Layer seam).
type timedLayer struct {
	Layer
	name string
	t    *tracer
	acc  *accumulator
}

// wrapLayer decorates one layer, accumulating and recording under name.
func (t *tracer) wrapLayer(l Layer, name string) Layer {
	return &timedLayer{Layer: l, name: name, t: t, acc: t.acc(name)}
}

// wrapLayers decorates every unit of chain under one name.
func (t *tracer) wrapLayers(chain []Layer, name string) []Layer {
	out := make([]Layer, len(chain))
	for i, l := range chain {
		out[i] = t.wrapLayer(l, name)
	}
	return out
}

func (l *timedLayer) Forward(x *Tensor, train bool) *Tensor {
	start := time.Now()
	out := l.Layer.Forward(x, train)
	end := time.Now()
	l.acc.add(end.Sub(start), int64(x.Dim(0)))
	l.t.record(l.name, start, end)
	return out
}

// timedModel decorates a raw cloud model (the cloud.Model seam); aux sums
// the leading dimension, so aux/n is the mean batch size.
type timedModel struct {
	inner logitModel
	t     *tracer
	acc   *accumulator
}

func (t *tracer) wrapModel(m logitModel) logitModel {
	return &timedModel{inner: m, t: t, acc: t.acc("cloud.model")}
}

func (m *timedModel) Logits(x *Tensor, train bool) *Tensor {
	start := time.Now()
	out := m.inner.Logits(x, train)
	end := time.Now()
	m.acc.add(end.Sub(start), int64(x.Dim(0)))
	m.t.record("cloud.model", start, end)
	return out
}

// timedClient decorates one replica transport handed to NewMultiClient (the
// []edge.CloudClient seam). It embeds the whole transport so the router still
// sees the replica's link estimate and piggybacked load and routes as it
// does untraced.
type timedClient struct {
	transport
	t   *tracer
	acc *accumulator
}

func (t *tracer) wrapClient(c transport) CloudClient {
	return &timedClient{transport: c, t: t, acc: t.acc("edge.replica_call")}
}

func (c *timedClient) ClassifyBatch(imgs []*Tensor) ([]int, []float64, error) {
	start := time.Now()
	preds, confs, err := c.transport.ClassifyBatch(imgs)
	end := time.Now()
	c.acc.add(end.Sub(start), int64(len(imgs)))
	c.t.record("edge.replica_call", start, end)
	return preds, confs, err
}
