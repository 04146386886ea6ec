package main

// metricSpec names one reported metric. BENCHMARK.json lists the same names,
// units and directions; TestSpecMatchesBenchmarkJSON keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// workloadNames are the four delivery modes the benchmark keeps apart; each
// is built by the constructor of the same name in workloads.
var workloadNames = []string{"rtmp_fanout", "hls_poll", "broadcast_churn", "simday"}

// endToEnd are the gated metrics every workload reports untraced. The issue
// listed six; goodput_ops_s and cpu_ms_per_kop are at the head of perLayer
// instead, because on the reference box their run-to-run spread (3–10 % of
// the median) is wider than the 8 % and 5 % they were to be gated at.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"allocs_per_op", "allocs", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, one block per module. A layer a
// workload never enters reports zero there: that zero is the evidence that
// the workload bypasses the layer.
var perLayer = []metricSpec{
	// The whole process over the traced run's reference window (spans off).
	{"goodput_ops_s", "ops/s", "higher"},
	{"cpu_ms_per_kop", "ms", "lower"},

	{"wire.encode_ns_per_msg", "ns", "lower"},
	{"wire.decode_ns_per_msg", "ns", "lower"},
	{"wire.allocs_per_msg", "allocs", "lower"},

	{"media.marshal_ns_per_frame", "ns", "lower"},

	{"rtmp.frames_in", "count", "higher"},
	{"rtmp.frames_out", "count", "higher"},
	{"rtmp.fanout_ratio", "ratio", "higher"},
	{"rtmp.slow_evictions", "count", "lower"},
	{"rtmp.send_blocked_us_per_frame", "us", "lower"},
	{"rtmp.push_delay_p50_us", "us", "lower"},
	{"rtmp.push_delay_p99_us", "us", "lower"},
	{"rtmp.handshake_p50_us", "us", "lower"},

	{"cdn.origin.ingest_ns_per_frame", "ns", "lower"},
	{"cdn.origin.chunks_sealed", "count", "higher"},
	{"cdn.origin.list_ns_per_pull", "ns", "lower"},
	{"cdn.origin.chunk_ns_per_pull", "ns", "lower"},

	{"cdn.edge.list_self_ns_per_call", "ns", "lower"},
	{"cdn.edge.chunk_self_ns_per_call", "ns", "lower"},
	{"cdn.edge.list_hit_ratio", "ratio", "higher"},
	{"cdn.edge.chunk_hit_ratio", "ratio", "higher"},
	{"cdn.edge.pulls_per_chunk", "ratio", "lower"},
	{"cdn.edge.invalidates", "count", "higher"},
	{"cdn.edge.stale_serves", "count", "lower"},
	{"cdn.edge.sheds", "count", "lower"},
	{"cdn.edge.pull_retries", "count", "lower"},

	{"hls.self_us_per_req", "us", "lower"},
	{"hls.req_p50_us", "us", "lower"},
	{"hls.req_p99_us", "us", "lower"},
	{"hls.not_modified_ratio", "ratio", "higher"},
	{"hls.bytes_per_op", "B", "lower"},

	{"control.start_p50_us", "us", "lower"},
	{"control.join_p50_us", "us", "lower"},
	{"control.resolve_p50_us", "us", "lower"},
	{"control.end_p50_us", "us", "lower"},
	{"control.busy_share", "ratio", "lower"},

	{"journal.append_us_per_batch", "us", "lower"},
	{"journal.records_per_batch", "ratio", "higher"},
	{"journal.bytes_per_op", "B", "lower"},
	{"journal.append_errors", "count", "lower"},

	{"pubsub.publish_p50_us", "us", "lower"},
	{"pubsub.events_p50_us", "us", "lower"},

	{"core.start_s", "s", "lower"},
	{"core.lifecycle_p50_ms", "ms", "lower"},
	{"core.lifecycle_p99_ms", "ms", "lower"},
	{"core.sweep_ms_per_call", "ms", "lower"},
	{"core.swept_per_call", "count", "higher"},

	{"clock.wheel_ns_per_timer", "ns", "lower"},
	{"clock.wheel_allocs_per_timer", "allocs", "lower"},

	{"viewersim.ns_per_event", "ns", "lower"},
	{"viewersim.events", "count", "higher"},
	{"viewersim.views", "count", "higher"},
	{"viewersim.polls", "count", "higher"},
	{"viewersim.deliveries", "count", "higher"},
	{"viewersim.chunks", "count", "higher"},
	{"viewersim.delay_hls_ms", "ms", "lower"},
	{"viewersim.delay_rtmp_ms", "ms", "lower"},
	{"viewersim.delay_chunking_ms", "ms", "lower"},
	{"viewersim.delay_polling_ms", "ms", "lower"},
	{"viewersim.delay_buffering_ms", "ms", "lower"},

	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},
	{"runtime.heap_inuse_mb", "MB", "lower"},

	{"loadgen.cpu_ms_per_kop", "ms", "lower"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},
}
