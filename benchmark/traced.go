package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// The traced pass. End-to-end metrics are never taken from it. It runs, on
// one trained system:
//
//  1. an UNTRACED reference window (the base of trace.overhead_pct, and where
//     uplink_bytes_per_item and failed_frac are read);
//  2. the workload re-armed with the benchmark's decorators on every seam,
//     driven at its real concurrency: counters and ratios (batch sizes,
//     bytes, writes per frame, replica shares) come from here;
//  3. a SERIAL sub-pass on the same armed system, one call in flight, with
//     span recording on: attribution (self times, client/server splits)
//     comes from here, because spans then nest by time containment;
//  4. direct timing probes of the public functions on the workload's path.
const (
	refShare    = 0.30
	concShare   = 0.30
	serialShare = 0.20
	// maxSerialCalls bounds the span count of trace-<workload>.json.
	maxSerialCalls = 400
	// linkestAlpha is linkest.Config's default EWMA weight.
	linkestAlpha = 0.25
)

// serialAgg sums the serial sub-pass's per-call conn marks.
type serialAgg struct {
	calls  int64
	callNs int64
	// Calls that put a request on the edge's uplink conn:
	wireCalls  int64
	wireCallNs int64 // Σ their durations
	wireNs     int64 // Σ first socket write start → reply fully read (outer conn)
	// replyEWMA smooths request written (outer) → reply fully read — what
	// linkest calls RTT — exactly as linkest does (its documented default
	// alpha), so the two can be compared sample for sample.
	replyEWMA float64
	serverNs  int64 // Σ request on the socket (inner conn) → first reply byte
}

func runTraced(w workload, sys *system, opt options) (*result, error) {
	res := &result{Workload: w.name, Correct: true, Metrics: map[string]metric{}, Detail: map[string]any{}}
	for _, lm := range layerMetrics {
		res.set(lm.name, 0) // a layer this workload never enters reads 0
	}
	var seq atomic.Int64

	// 1. Untraced reference.
	plain, _, err := armAndWarm(w, sys, nil, opt, &seq)
	if err != nil {
		return nil, err
	}
	ref := measure(plain, scale(opt.window, refShare), &seq, res)
	plain.close()
	refItems := float64(max(ref.items, 1))
	res.set("uplink_bytes_per_item", float64(ref.delta.uplinkBytes)/refItems)
	res.set("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)))

	// 2. Traced, real concurrency.
	tr := newTracer()
	a, _, err := armAndWarm(w, sys, tr, opt, &seq)
	if err != nil {
		return nil, err
	}
	defer a.close()
	acc0, up0, wire0 := tr.snapshot(), tr.connTotalsOf("uplink"), tr.connTotalsOf("uplink.wire")
	sampler := startMemSampler()
	conc := measure(a, scale(opt.window, concShare), &seq, res)
	heapPeak := sampler.finish()
	acc := deltaAcc(tr.snapshot(), acc0)
	up, wire := tr.connTotalsOf("uplink").sub(up0), tr.connTotalsOf("uplink.wire").sub(wire0)

	calls := float64(max(conc.attempted(), 1))
	items := float64(max(conc.items, 1))
	d := conc.delta

	res.set("trace.overhead_pct", 100*(ref.throughput()-conc.throughput())/ref.throughput())
	res.set("runtime.gc_cycles_per_kitem", 1000*float64(conc.gcCycles)/items)
	res.set("runtime.gc_pause_ms_total", float64(conc.gcPause)/1e6)
	res.set("runtime.heap_inuse_peak_mb", heapPeak)

	if d.n > 0 {
		res.set("core.exit_main_frac", float64(d.exitMain)/float64(d.n))
		res.set("core.exit_ext_frac", float64(d.exitExt)/float64(d.n))
		res.set("core.exit_cloud_frac", float64(d.exitCloud)/float64(d.n))
	}
	if m := acc["cloud.model"]; m.n > 0 {
		res.set("cloud.model_forward_ms_per_batch", m.ms()/float64(m.n))
		res.set("cloud.batch_size_mean", float64(m.aux)/float64(m.n))
	}
	res.set("cloud.sheds", float64(d.serverSheds))
	res.set("cloud.errors", float64(d.serverErrors))

	if up.writes > 0 {
		// The conn seam cross-checks the clients' own byte counters.
		if up.bytesOut != d.uplinkBytes {
			res.fail(fmt.Errorf("uplink cross-check: clients report %d bytes sent, the conn seam counted %d", d.uplinkBytes, up.bytesOut))
		}
		// Offloaded images: what the runtime uploaded, or every item on the
		// workloads that offload everything.
		offloaded := float64(d.rawUps)
		if d.n == 0 {
			offloaded = items
		}
		// Request frames the edge put on its uplink: what the first-hop
		// servers dispatched (on a chain every hop dispatches each frame once).
		frames := float64(max(d.serverRequests/int64(max(a.hops, 1)), 1))
		res.set("edge.writes_per_frame", float64(up.writes)/frames)
		if offloaded > 0 {
			res.set("edge.uplink_bytes_per_offloaded_image", float64(up.bytesOut)/offloaded)
			res.set("edge.downlink_bytes_per_offloaded_image", float64(up.bytesIn)/offloaded)
		}
		if a.uplink != (Link{}) {
			shapedMs := float64(up.writeNs-wire.writeNs) / 1e6
			modelMs := linkModelMs(a.uplink, up)
			res.set("netsim.uplink_ms_per_offload", shapedMs/float64(up.writes))
			res.set("netsim.shaping_err_pct", 100*(shapedMs-modelMs)/modelMs)
		}
	}
	if d.replicaOffloads > 0 {
		res.set("edge.multi.straggler_share", float64(d.stragglerOffloads)/float64(d.replicaOffloads))
		res.set("edge.multi.failovers", float64(d.failovers))
	}
	if a.hops > 0 {
		res.set("edge.chain.local_stage_ms_per_batch", acc["stage.edge"].ms()/calls)
		res.set("cloud.stage.forward_ms_per_hop", max(acc["stage.hop1"].ms(), acc["stage.hop2"].ms())/calls)
		res.set("edge.chain.fallback_frac", float64(d.chainFallbacks)/float64(max(d.chainInstances+d.chainFallbacks, 1)))
	}

	// 3. Serial sub-pass.
	sAcc0 := tr.snapshot()
	sUp0, sInter0 := tr.connTotalsOf("uplink"), tr.connTotalsOf("interlink")
	sBefore := a.counters()
	agg, err := serialPass(a, tr, scale(opt.window, serialShare), &seq, res)
	if err != nil {
		return nil, err
	}
	sAcc := deltaAcc(tr.snapshot(), sAcc0)
	sUp, sInter := tr.connTotalsOf("uplink").sub(sUp0), tr.connTotalsOf("interlink").sub(sInter0)
	sDelta := a.counters().sub(sBefore)
	res.Attempted += agg.calls
	if agg.calls > 0 {
		serialMetrics(res, a, agg, sAcc, sUp, sInter)
		res.set("trace.stress_share_pct", stressShare(w.name, a, agg, sAcc, sUp, acc, conc.cpu))
	}
	if err := serverBooks(sDelta); err != nil {
		res.fail(err)
	}
	if opt.outDir != "" {
		if err := tr.writeTrace(opt.outDir, w.name); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}

	// 4. Direct probes.
	if err := runProbes(w.name, sys, a, opt.quick, res); err != nil {
		return nil, err
	}
	res.Detail["ref_throughput_per_s"] = ref.throughput()
	res.Detail["traced_throughput_per_s"] = conc.throughput()
	res.Detail["serial_calls"] = agg.calls
	res.Detail["spans"] = len(tr.spans)
	return res, nil
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

func deltaAcc(now, before map[string]accSnapshot) map[string]accSnapshot {
	out := make(map[string]accSnapshot, len(now))
	for name, s := range now {
		out[name] = s.sub(before[name])
	}
	return out
}

// linkModelMs is what netsim's model charges for the writes in ct: one
// latency per write plus the bytes at the link's bandwidth.
func linkModelMs(l Link, ct connTotals) float64 {
	ms := float64(ct.writes) * float64(l.Latency) / 1e6
	if l.Mbps > 0 {
		ms += float64(ct.bytesOut) * 8 / (l.Mbps * 1e6) * 1e3
	}
	return ms
}

// serialPass issues calls one at a time with span recording on, collecting
// the conn marks of each.
func serialPass(a *armed, tr *tracer, dur time.Duration, seq *atomic.Int64, res *result) (serialAgg, error) {
	var agg serialAgg
	tr.recording.Store(true)
	defer tr.recording.Store(false)
	all, outer, inner := tr.conn(""), tr.conn("uplink"), tr.conn("uplink.wire")
	deadline := time.Now().Add(dur)
	for agg.calls < maxSerialCalls && time.Now().Before(deadline) {
		s := seq.Add(1) - 1
		tr.trace.Store(s)
		for _, c := range all {
			c.takeMarks()
		}
		start := time.Now()
		_, _, err := a.call(s)
		end := time.Now()
		if err != nil {
			if _, ok := err.(*oracleError); ok {
				res.fail(err)
				return agg, nil
			}
			return agg, fmt.Errorf("serial sub-pass: %w", err)
		}
		tr.record("call", start, end)
		agg.calls++
		agg.callNs += int64(end.Sub(start))
		// One call touches at most one edge-side conn (a replica, or one of
		// cloud-fanin's connections).
		for i, c := range outer {
			om := c.takeMarks()
			if om.firstWriteStart.IsZero() || om.lastReadEnd.IsZero() {
				continue
			}
			im := inner[i].takeMarks()
			agg.wireCalls++
			agg.wireCallNs += int64(end.Sub(start))
			agg.wireNs += int64(om.lastReadEnd.Sub(om.firstWriteStart))
			reply := float64(om.lastReadEnd.Sub(om.lastWriteEnd))
			if agg.wireCalls == 1 {
				agg.replyEWMA = reply
			} else {
				agg.replyEWMA += linkestAlpha * (reply - agg.replyEWMA)
			}
			agg.serverNs += int64(im.firstReadEnd.Sub(im.lastWriteEnd))
		}
	}
	return agg, nil
}

// serialMetrics derives the attribution metrics from the serial sub-pass.
func serialMetrics(res *result, a *armed, agg serialAgg, acc map[string]accSnapshot, up, inter connTotals) {
	calls := float64(agg.calls)
	if rc := acc["edge.replica_call"]; rc.n > 0 {
		// MultiClient call minus the wrapped replica call.
		res.set("edge.multi.route_overhead_us_per_call", float64(agg.callNs-rc.ns)/1e3/calls)
	}
	if agg.wireCalls == 0 {
		return
	}
	wc := float64(agg.wireCalls)
	// Transport call minus the time its request and reply were on the wire.
	// The transport call is the replica call under the router, else the
	// caller's own call where that is nothing but a client call.
	switch rc := acc["edge.replica_call"]; {
	case rc.n > 0:
		res.set("edge.client_self_us_per_req", float64(rc.ns-agg.wireNs)/1e3/wc)
	case a.clientCall:
		res.set("edge.client_self_us_per_req", float64(agg.wireCallNs-agg.wireNs)/1e3/wc)
	}
	// Request on the socket → first reply byte, minus the model forward (and,
	// on a chain, everything downstream of hop 1's own work is still in it:
	// the metric is defined on the single-server workloads).
	if a.hops == 0 {
		res.set("cloud.server_self_us_per_req", float64(agg.serverNs-acc["cloud.model"].ns)/1e3/wc)
	}
	if a.estimate != nil {
		est := a.estimate.LinkEstimate()
		if agg.replyEWMA > 0 && est.Samples > 0 {
			res.set("linkest.rtt_err_pct", 100*(float64(est.RTT)-agg.replyEWMA)/agg.replyEWMA)
		}
		if a.uplink.Mbps > 0 && est.Mbps > 0 {
			res.set("linkest.mbps_err_pct", 100*(est.Mbps-a.uplink.Mbps)/a.uplink.Mbps)
		}
	}
	if a.hops > 0 {
		// call − local stage − Σ hop forwards − Σ modelled link time.
		compute := acc["stage.edge"].ms() + acc["stage.hop1"].ms() + acc["stage.hop2"].ms()
		links := linkModelMs(a.uplink, up) + linkModelMs(a.interlink, inter)
		res.set("edge.chain.relay_overhead_ms_per_batch", (float64(agg.callNs)/1e6-compute-links)/calls)
	}
}

// stressShare is the traced pass's check that a workload stresses what its
// "why" claims. On edge-only, offload-wan, chain-relay and replica-fanout it
// is a share of serial call latency: forward compute, modelled uplink time,
// modelled uplink time, and the replicas' modelled sleep. On cloud-fanin it
// is the model forward's share of the process CPU at real concurrency, which
// the workload claims is SMALL. train-edge is one public call: 100.
func stressShare(name string, a *armed, agg serialAgg, serial map[string]accSnapshot, serialUp connTotals, conc map[string]accSnapshot, concCPU time.Duration) float64 {
	callMs := float64(agg.callNs) / 1e6
	switch name {
	case "edge-only":
		fwd := 0.0
		for _, block := range []string{"core.main", "core.main_exit", "core.adaptive", "core.extension", "core.ext_exit"} {
			fwd += serial[block].ms()
		}
		return 100 * fwd / callMs
	case "offload-wan", "chain-relay":
		return 100 * linkModelMs(a.uplink, serialUp) / callMs
	case "replica-fanout":
		return 100 * serial["cloud.model"].ms() / callMs
	case "cloud-fanin":
		return 100 * conc["cloud.model"].ms() / (float64(concCPU) / 1e6)
	default:
		return 100
	}
}
