package main

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports: what a user of the
// served system sees. The workload's operation is a full scan for the scan
// workloads, a delta batch for delta-churn and a round of three requests
// for reason. Bounds are the share of the baseline median a metric may
// worsen by before a change counts as a regression (see README.md for the
// spreads behind them).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"rss_peak_mb", "MiB", "lower", 0.15},
}

// perLayer are the metrics a traced run reports, each the cost of one
// module's public calls on the workload's own inputs (see README.md for
// the end-to-end metric each should move).
var perLayer = []metricDef{
	{"server.request_ms", "ms", "lower", 0},
	{"server.first_byte_ms", "ms", "lower", 0},
	{"server.self_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"go.gc_cpu_fraction", "ratio", "lower", 0},
	{"go.heap_peak_mb", "MiB", "lower", 0},

	{"detect.run_ms", "ms", "lower", 0},
	{"detect.each_ms", "ms", "lower", 0},
	{"detect.first_ms", "ms", "lower", 0},
	{"detect.tuples", "count", "higher", 0},
	{"detect.violations", "count", "higher", 0},
	{"detect.cfd_violations", "count", "higher", 0},
	{"detect.cind_violations", "count", "higher", 0},
	{"detect.violations_per_tuple", "ratio", "higher", 0},
	{"detect.allocs_per_run", "count", "lower", 0},
	{"detect.alloc_mb_per_run", "MiB", "lower", 0},

	{"stream.ndjson.encode_ms", "ms", "lower", 0},
	{"stream.ndjson.decode_ms", "ms", "lower", 0},
	{"stream.ndjson.bytes_per_violation", "B", "lower", 0},
	{"stream.ndjson.allocs_per_violation", "count", "lower", 0},
	{"stream.binary.encode_ms", "ms", "lower", 0},
	{"stream.binary.decode_ms", "ms", "lower", 0},
	{"stream.binary.bytes_per_violation", "B", "lower", 0},
	{"stream.binary.allocs_per_violation", "count", "lower", 0},

	{"shard.split_ms", "ms", "lower", 0},
	{"shard.detect_max_ms", "ms", "lower", 0},
	{"shard.detect_mean_ms", "ms", "lower", 0},
	{"shard.skew", "ratio", "lower", 0},
	{"shard.decode_ms", "ms", "lower", 0},
	{"shard.merge_ms", "ms", "lower", 0},
	{"shard.merged_violations", "count", "higher", 0},

	{"session.seed_ms", "ms", "lower", 0},
	{"session.apply_us_p50", "us", "lower", 0},
	{"session.apply_us_p99", "us", "lower", 0},
	{"session.apply_under_read_us_p50", "us", "lower", 0},
	{"session.report_ms", "ms", "lower", 0},
	{"session.changes_per_delta", "ratio", "higher", 0},

	{"wal.append_us_p50", "us", "lower", 0},
	{"wal.fsync_us_p50", "us", "lower", 0},
	{"wal.fsync_us_p99", "us", "lower", 0},
	{"wal.snapshot_ms", "ms", "lower", 0},
	{"wal.replay_ms", "ms", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"wal.snapshot_bytes_per_wal_byte", "ratio", "lower", 0},
	{"wal.fsyncs_per_batch", "ratio", "lower", 0},

	{"consistency.preprocess_ms", "ms", "lower", 0},
	{"consistency.checking_ms", "ms", "lower", 0},
	{"consistency.preprocess_decided", "ratio", "higher", 0},

	{"implication.proof_ms", "ms", "lower", 0},
	{"implication.refute_ms", "ms", "lower", 0},
	{"implication.minimize_ms", "ms", "lower", 0},
	{"implication.minimize_dropped", "count", "higher", 0},
}
