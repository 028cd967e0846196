package main

// metricDef names one metric of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics are reported, never gated. moves names the end-to-end metric and
// workload a per-layer metric is expected to move.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	moves  string
}

// endToEnd is what a caller of the system sees, on every workload. On
// sharded-batch a "query" is one region of a QueryAll: its latency is the
// batch's divided by the batch size. The driver runs each workload on ten
// seeds and accepts a bound only if the metric's interquartile range over
// those runs stays inside it, so each bound is about three times the widest
// spread any workload showed (README.md has the table): remote-fanout and
// dynamic-mixed spread up to 10 % in the timings, and the seeds alone move
// allocs_per_query by 7 % on sharded-batch.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "heap_mb", unit: "MiB", better: "lower", bound: 0.05},
	{name: "queries_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "query_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "candidates_per_result", unit: "ratio", better: "lower", bound: 0.03},
	{name: "allocs_per_query", unit: "count", better: "lower", bound: 0.25},
}

// scoped metrics are end-to-end metrics the driver cannot gate. Four exist
// on one workload only, and the contract prints every end-to-end metric on
// every workload. query_p99_us exists everywhere but does not repeat: on
// dynamic-mixed it is the republish, a 3 ms memory-bound copy whose floor
// drifts with the host over minutes and spread 19 to 24 % across seeds,
// against a largest allowed bound of 0.25. A full run reports all of them
// beside the end-to-end metrics of their workload, and -compare judges them
// by the bounds here; a traced run reports query_p99_us from the named
// workload's untraced passes and the others from the matching flavor probe.
var scoped = []metricDef{
	{name: "query_p99_us", unit: "us", better: "lower", bound: 0.25, moves: "every workload; on dynamic-mixed the republish"},
	{name: "batch_p50_ms", unit: "ms", better: "lower", bound: 0.25, moves: "sharded-batch only: per-QueryAll latency"},
	{name: "batch_p99_ms", unit: "ms", better: "lower", bound: 0.25, moves: "sharded-batch only"},
	{name: "insert_p50_us", unit: "us", better: "lower", bound: 0.25, moves: "dynamic-mixed only"},
	{name: "page_reads_per_query", unit: "count", better: "lower", moves: "store-cold only; repeats exactly"},
	{name: "failed_frac", unit: "ratio", better: "lower", moves: "must be 0"},
}

// perLayer lists the layer metrics in the repo's module names.
var perLayer = []metricDef{
	{name: "rtree.seed_ns", unit: "ns", better: "lower", moves: "query_p50_us on mem-small"},
	{name: "rtree.seed_nodes", unit: "count", better: "lower", moves: "query_p50_us on mem-small"},
	{name: "rtree.seed_allocs", unit: "count", better: "lower", moves: "allocs_per_query on mem-small"},
	{name: "rtree.window_ns", unit: "ns", better: "lower", moves: "core.traditional_us"},
	{name: "rtree.window_nodes", unit: "count", better: "lower", moves: "core.traditional_us"},
	{name: "rtree.bulk_build_s", unit: "s", better: "lower", moves: "setup_s"},

	{name: "geom.contains_ns", unit: "ns", better: "lower", moves: "query_p50_us on mem-area"},
	{name: "geom.segment_ns", unit: "ns", better: "lower", moves: "query_p50_us on mem-area"},
	{name: "geom.ringview_ns", unit: "ns", better: "lower", moves: "query_p50_us on sharded-batch"},

	{name: "delaunay.build_s", unit: "s", better: "lower", moves: "setup_s on static workloads"},
	{name: "delaunay.insert_ns", unit: "ns", better: "lower", moves: "insert_p50_us on dynamic-mixed"},
	{name: "voronoi.arena_build_s", unit: "s", better: "lower", moves: "setup_s on static workloads"},
	{name: "voronoi.arena_bytes_per_site", unit: "B", better: "lower", moves: "heap_mb on static workloads"},

	{name: "core.query_us", unit: "us", better: "lower", moves: "query_p50_us on mem-area, mem-small"},
	{name: "core.seed_us", unit: "us", better: "lower", moves: "query_p50_us on mem-small"},
	{name: "core.expand_us", unit: "us", better: "lower", moves: "query_p50_us on mem-area, store-cold, remote-fanout"},
	{name: "core.segment_tests_per_query", unit: "count", better: "lower", moves: "core.expand_us"},
	{name: "core.cell_tests_per_query", unit: "count", better: "lower", moves: "queries_per_s on sharded-batch"},
	{name: "core.index_nodes_per_query", unit: "count", better: "lower", moves: "core.seed_us"},
	{name: "core.records_loaded_per_query", unit: "count", better: "lower", moves: "page_reads_per_query on store-cold"},
	{name: "core.useful_ratio", unit: "ratio", better: "higher", moves: "candidates_per_result"},
	{name: "core.traditional_us", unit: "us", better: "lower", moves: "none: the paper's baseline"},
	{name: "core.traditional_candidates_per_result", unit: "ratio", better: "lower", moves: "none: the paper's baseline"},
	{name: "core.publish_us", unit: "us", better: "lower", moves: "query_p99_us on dynamic-mixed"},

	{name: "vaq.adapter_us", unit: "us", better: "lower", moves: "query_p50_us on mem-small"},

	{name: "storage.fetch_us", unit: "us", better: "lower", moves: "query_p50_us on store-cold"},
	{name: "storage.get_hit_ns", unit: "ns", better: "lower", moves: "query_p50_us on store-cold"},
	{name: "storage.get_miss_ns", unit: "ns", better: "lower", moves: "query_p50_us on store-cold"},
	{name: "storage.allocs_per_get", unit: "count", better: "lower", moves: "allocs_per_query on store-cold"},
	{name: "storage.hit_rate", unit: "ratio", better: "higher", moves: "page_reads_per_query on store-cold"},
	{name: "storage.evictions_per_query", unit: "count", better: "lower", moves: "page_reads_per_query on store-cold"},
	{name: "storage.bytes_read_per_query", unit: "B", better: "lower", moves: "page_reads_per_query on store-cold"},

	{name: "exec.batch_us_per_query", unit: "us", better: "lower", moves: "queries_per_s on sharded-batch"},
	{name: "exec.speedup", unit: "ratio", better: "higher", moves: "queries_per_s on sharded-batch"},
	{name: "exec.chunk_wait_us", unit: "us", better: "lower", moves: "query_p99_us on sharded-batch"},
	{name: "exec.worker_busy_frac", unit: "ratio", better: "higher", moves: "queries_per_s on sharded-batch"},

	{name: "shard.query_us", unit: "us", better: "lower", moves: "query_p50_us on sharded-batch"},
	{name: "shard.self_us", unit: "us", better: "lower", moves: "query_p50_us on sharded-batch"},
	{name: "shard.merge_us", unit: "us", better: "lower", moves: "query_p50_us on sharded-batch"},
	{name: "shard.fanout_per_query", unit: "count", better: "lower", moves: "queries_per_s on sharded-batch"},
	{name: "shard.pruned_per_query", unit: "count", better: "higher", moves: "queries_per_s on sharded-batch"},
	{name: "shard.straggler_ratio", unit: "ratio", better: "lower", moves: "query_p99_us on sharded-batch"},

	{name: "wire.encode_req_us", unit: "us", better: "lower", moves: "query_p50_us on remote-fanout"},
	{name: "wire.decode_req_us", unit: "us", better: "lower", moves: "query_p50_us on remote-fanout"},
	{name: "wire.encode_resp_us", unit: "us", better: "lower", moves: "query_p50_us on remote-fanout"},
	{name: "wire.decode_resp_us", unit: "us", better: "lower", moves: "query_p50_us on remote-fanout"},
	{name: "wire.req_bytes", unit: "B", better: "lower", moves: "allocs_per_query on remote-fanout"},
	{name: "wire.resp_bytes", unit: "B", better: "lower", moves: "allocs_per_query on remote-fanout"},

	{name: "serve.handler_us", unit: "us", better: "lower", moves: "query_p50_us on remote-fanout"},
	{name: "serve.self_us", unit: "us", better: "lower", moves: "query_p50_us on remote-fanout"},

	{name: "remote.rtt_us", unit: "us", better: "lower", moves: "query_p50_us on remote-fanout"},
	{name: "remote.fanout_per_query", unit: "count", better: "lower", moves: "queries_per_s on remote-fanout"},
	{name: "remote.http_us", unit: "us", better: "lower", moves: "query_p50_us on remote-fanout"},
	{name: "remote.self_us", unit: "us", better: "lower", moves: "query_p50_us on remote-fanout"},
	{name: "remote.local_ratio", unit: "ratio", better: "higher", moves: "queries_per_s on remote-fanout"},
	{name: "remote.retries", unit: "count", better: "lower", moves: "must be 0"},
	{name: "remote.dropped", unit: "count", better: "lower", moves: "must be 0"},

	{name: "obs.trace_overhead_frac", unit: "ratio", better: "lower", moves: "none: cost of the traced round"},
}

// traceMetrics is what a --trace 1 run prints: the scoped metrics and the
// layer metrics.
func traceMetrics() []metricDef {
	return append(append([]metricDef(nil), scoped...), perLayer...)
}

func defOf(name string) metricDef {
	for _, list := range [][]metricDef{endToEnd, scoped, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d
			}
		}
	}
	return metricDef{name: name}
}
