package main

// The metric tables. Names are normative: later issues cite them verbatim,
// and BENCHMARK.json at the repository root lists exactly these (checked by
// TestBenchmarkJSONMatchesTables).

// endToEndMetric is one metric a user of the system would see. bound is the
// share of the parent's median by which it may worsen: max(the ISSUE's value,
// 3 x the spread measured across ten seeds), capped at the contract's 0.25.
// The four timing metrics sit at the cap because of the host, not the
// program: on the 2-core sandbox VM identical CPU-bound work (edge-only)
// varies 4-13% between 10 s windows, and latency_p95_ms 6-10%.
type endToEndMetric struct {
	name, unit, better string
	bound              float64
	def                string
}

var endToEndMetrics = []endToEndMetric{
	{"throughput_per_s", "1/s", "higher", 0.25, "items completed / measured window (item = image, request or training sample, per workload)"},
	{"latency_p50_ms", "ms", "lower", 0.25, "median caller-observed latency of one call (batch, request or train call)"},
	{"latency_p95_ms", "ms", "lower", 0.25, "p95 of the same; the highest percentile with >= 10 samples beyond it is printed in the detail line"},
	{"cpu_ms_per_item", "ms", "lower", 0.25, "process user+sys CPU (getrusage) over the window / items"},
	{"alloc_kb_per_item", "kB", "lower", 0.05, "MemStats.TotalAlloc delta over the window / items"},
	{"accuracy_pct", "%", "higher", 0.01, "top-1 on the labelled stream; on replica-fanout, whose replicas are unlabelled stand-ins, the share of replies equal to the stand-in's known answer; on train-edge the adapted clone's hard-class accuracy on the test split"},
	{"setup_s", "s", "lower", 0.25, "bench-system build + the median of this workload's armings (listen, dial, warm-up)"},
}

// layerMetric is one metric of a single layer (a module of this repo), with
// the end-to-end metric and workload it is expected to move.
type layerMetric struct {
	name, unit, better string
	moves              string
}

var layerMetrics = []layerMetric{
	// Two of the ISSUE's nine end-to-end metrics are zero by design on some or
	// all workloads, which a bound relative to the parent's median cannot
	// gate; they are read in the traced run's UNTRACED reference window.
	{"uplink_bytes_per_item", "B", "lower", "the paper's upload claim: wire bytes every edge-side client sent / items; 0 on edge-only and train-edge"},
	{"failed_frac", "ratio", "lower", "calls that errored, were shed or fell back / attempted; 0 on a healthy run"},

	{"tensor.matmul_gflops", "GFLOPS", "higher", "throughput_per_s on edge-only, train-edge"},
	{"tensor.matmul_alloc_kb_per_call", "kB", "lower", "alloc_kb_per_item on edge-only"},
	{"nn.forward_ms.conv2d", "ms", "lower", "latency_p50_ms on edge-only in proportion to share; <= 30% share on offload-wan"},
	{"nn.forward_ms.batchnorm2d", "ms", "lower", "latency_p50_ms on edge-only"},
	{"nn.forward_ms.relu", "ms", "lower", "latency_p50_ms on edge-only"},
	{"nn.forward_ms.residualblock", "ms", "lower", "latency_p50_ms on edge-only"},
	{"nn.forward_ms.globalavgpool", "ms", "lower", "latency_p50_ms on edge-only"},
	{"nn.forward_ms.linear", "ms", "lower", "latency_p50_ms on edge-only"},
	{"nn.forward_alloc_kb_per_image", "kB", "lower", "alloc_kb_per_item on edge-only"},
	{"nn.forward_allocs_per_image", "count", "lower", "cpu_ms_per_item on edge-only"},
	{"nn.train_forward_ms_per_batch", "ms", "lower", "throughput_per_s on train-edge only"},
	{"nn.train_backward_ms_per_batch", "ms", "lower", "throughput_per_s on train-edge only"},
	{"opt.sgd_step_ms_per_batch", "ms", "lower", "throughput_per_s on train-edge only"},
	{"core.main_forward_ms_per_batch", "ms", "lower", "latency_p50_ms on edge-only"},
	{"core.ext_forward_ms_per_batch", "ms", "lower", "latency_p50_ms on edge-only"},
	{"core.infer_self_ms_per_batch", "ms", "lower", "latency_p50_ms on edge-only"},
	{"core.exit_main_frac", "ratio", "higher", "none directly; explains latency_p50_ms on edge-only / offload-wan"},
	{"core.exit_ext_frac", "ratio", "lower", "none directly; the extension share explains latency_p50_ms on edge-only"},
	{"core.exit_cloud_frac", "ratio", "lower", "none: beta, pinned by the correctness gate"},
	{"edge.runtime_self_us_per_batch", "us", "lower", "cpu_ms_per_item on edge-only"},
	{"edge.client_self_us_per_req", "us", "lower", "throughput_per_s, cpu_ms_per_item on cloud-fanin"},
	{"edge.writes_per_frame", "count", "lower", "throughput_per_s on cloud-fanin"},
	{"edge.uplink_bytes_per_offloaded_image", "B", "lower", "uplink_bytes_per_item, latency_p50_ms on offload-wan"},
	{"edge.downlink_bytes_per_offloaded_image", "B", "lower", "latency_p50_ms on offload-wan"},
	{"edge.multi.route_overhead_us_per_call", "us", "lower", "throughput_per_s on replica-fanout"},
	{"edge.multi.straggler_share", "ratio", "lower", "latency_p95_ms, throughput_per_s on replica-fanout"},
	{"edge.multi.failovers", "count", "lower", "failed_frac on replica-fanout"},
	{"edge.chain.local_stage_ms_per_batch", "ms", "lower", "latency_p50_ms on chain-relay"},
	{"edge.chain.relay_overhead_ms_per_batch", "ms", "lower", "latency_p50_ms on chain-relay"},
	{"edge.chain.fallback_frac", "ratio", "lower", "failed_frac on chain-relay"},
	{"protocol.encode_us_per_batch", "us", "lower", "cpu_ms_per_item on cloud-fanin"},
	{"protocol.decode_us_per_batch", "us", "lower", "cpu_ms_per_item on cloud-fanin"},
	{"protocol.roundtrip_alloc_kb", "kB", "lower", "alloc_kb_per_item on cloud-fanin"},
	{"protocol.roundtrip_allocs", "count", "lower", "alloc_kb_per_item on cloud-fanin"},
	{"protocol.wire_bytes_per_element", "B", "lower", "uplink_bytes_per_item, latency_p50_ms on offload-wan (4.0 -> 1.0 is the 8-bit wire item)"},
	{"protocol.frame_overhead_bytes", "B", "lower", "uplink_bytes_per_item on cloud-fanin"},
	{"cloud.model_forward_ms_per_batch", "ms", "lower", "throughput_per_s on cloud-fanin, offload-wan"},
	{"cloud.batch_size_mean", "count", "higher", "throughput_per_s on cloud-fanin (bigger batches) against latency_p50_ms there (linger)"},
	{"cloud.server_self_us_per_req", "us", "lower", "throughput_per_s on cloud-fanin"},
	{"cloud.sheds", "count", "lower", "failed_frac everywhere"},
	{"cloud.errors", "count", "lower", "failed_frac everywhere"},
	{"cloud.stage.forward_ms_per_hop", "ms", "lower", "throughput_per_s on chain-relay (the slowest hop, reported here, is the bottleneck)"},
	{"netsim.uplink_ms_per_offload", "ms", "lower", "latency_p50_ms on offload-wan"},
	{"netsim.shaping_err_pct", "%", "lower", "none: validates the link model"},
	{"linkest.rtt_err_pct", "%", "lower", "none: guards the signal auto mode and replan act on"},
	{"linkest.mbps_err_pct", "%", "lower", "none: guards the signal auto mode and replan act on"},
	{"profile.mac_share_err_pp", "pp", "lower", "throughput_per_s on chain-relay once placement uses measured costs"},
	{"profile.place_pipeline_ms", "ms", "lower", "setup_s on chain-relay"},
	{"runtime.gc_cycles_per_kitem", "count", "lower", "latency_p95_ms wherever alloc_kb_per_item is high"},
	{"runtime.gc_pause_ms_total", "ms", "lower", "latency_p95_ms wherever alloc_kb_per_item is high"},
	{"runtime.heap_inuse_peak_mb", "MB", "lower", "latency_p95_ms wherever alloc_kb_per_item is high"},
	{"trace.overhead_pct", "%", "lower", "none: (untraced - traced throughput) / untraced, so the traced numbers can be trusted"},
	{"trace.stress_share_pct", "%", "higher", "none: the share of call latency (cloud-fanin: of CPU) spent where the workload's reason says it is"},
}

// unitOf looks a metric's unit up in the tables.
func unitOf(name string) string {
	for _, m := range endToEndMetrics {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("benchmark: metric " + name + " is in neither table")
}
