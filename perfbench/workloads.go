package main

// workload is one traffic shape the benchmark drives as a closed loop:
// every client sends its next request only after the previous reply.
type workload struct {
	name string
	why  string
	// n is the tuple count per side; zipf the key-skew factor of both.
	n    int
	zipf float64
	// pairs is how many relation pairs, each from its own seed, the
	// requests take turns on. Where the join's cost depends on where the
	// hot keys land (their hash lanes, partitions or shards), one run
	// then measures the seed distribution instead of one draw from it.
	pairs int
	// clients is the number of closed-loop client connections.
	clients int
	// limit is the ?limit=N of every request (0 = full join).
	limit int
	// consumer is the /join consumer ("" = summary).
	consumer string
	// shards > 0 puts a cluster.Router in front of that many in-process
	// shards, each with shardBudget worker threads.
	shards      int
	shardBudget int
}

// topK is the heavy-hitter count the fleet workload asks for.
const topK = 5

// workloads is the benchmark's traffic table. Each fixes one skew shape:
// the paper's crossover means a change can speed up one regime and slow
// another, so the regimes are measured apart rather than mixed.
var workloads = []workload{
	{
		name: "uniform", n: 1 << 18, zipf: 0.0, pairs: 1, clients: 2,
		why: "zipf 0, auto/cpu picks Cbase: partition and NM build/probe are the whole join; skew, stream, consume and router are bypassed",
	},
	{
		name: "skewed", n: 1 << 16, zipf: 1.0, pairs: 1, clients: 2,
		why: "zipf 1.0, auto/cpu picks CSH: the hybrid partition with on-the-fly skewed-S emission (output work) dominates the join",
	},
	{
		name: "interactive", n: 1 << 18, zipf: 1.0, pairs: 4, clients: 2, limit: 1000000,
		why: "zipf 1.0, ?limit=10^6 (0.15% of the output): the planner's streaming rule picks SSJ, so time-to-limit and per-request costs count and nothing is partitioned",
	},
	{
		name: "fleet", n: 1 << 14, zipf: 0.9, pairs: 4, clients: 1, consumer: "topk", shards: 3, shardBudget: 1,
		why: "router over 3 one-thread shards, zipf 0.9, topk: hot-key carving resolves to frag, fragment shipping, fan-out and exact groups merge",
	},
}

// metric names one reported number.
type metric struct {
	name, unit string
}

// endToEnd are the numbers a caller of the service sees, reported by the
// untraced run (--trace 0). The bound is the share of the parent's median
// by which a metric may worsen before a change counts as a regression. The
// bounds sit above the run-to-run spread measured on a shared 2-vCPU host
// (interquartile range over ten seeds, up to 16% of the median);
// README.md has the figures.
var endToEnd = []struct {
	metric
	better string
	bound  float64
}{
	{metric{"latency_p50_ms", "ms"}, "lower", 0.25},
	{metric{"latency_p90_ms", "ms"}, "lower", 0.25},
	{metric{"throughput_rps", "1/s"}, "higher", 0.25},
	{metric{"success_rate", "frac"}, "higher", 0.01},
	{metric{"cpu_ms_per_join", "ms"}, "lower", 0.25},
	{metric{"peak_rss_mb", "MB"}, "lower", 0.25},
	{metric{"setup_s", "s"}, "lower", 0.25},
}

// perLayer are the traced run's (--trace 1) numbers, each prefixed with
// the layer it belongs to. README.md maps each to the end-to-end metric
// it should move and the workload where it should not.
var perLayer = []metric{
	{"partition.ms", "ms"},
	{"nm.ms", "ms"},
	{"nm.build_ms", "ms"},
	{"nm.probe_ms", "ms"},
	{"nm.tasks", "count"},
	{"nm.split_tasks", "count"},
	{"nm.max_chain", "count"},
	{"nm.probe_visits", "count"},
	{"skew.sample_ms", "ms"},
	{"skew.partition_ms", "ms"},
	{"stream.phase_ms", "ms"},
	{"stream.first_result_ms", "ms"},
	{"stream.limit_ms", "ms"},
	{"stream.chunks", "count"},
	{"stream.overshoot", "ratio"},
	{"join.self_ms", "ms"},
	{"service.self_ms", "ms"},
	{"service.response_bytes", "bytes"},
	{"planner.recommend_us", "us"},
	{"planner.skew_detected_frac", "frac"},
	{"planner.streaming_frac", "frac"},
	{"admission.wait_ms_p50", "ms"},
	{"admission.wait_ms_p90", "ms"},
	{"admission.queued_frac", "frac"},
	{"admission.rejected", "count"},
	{"consume.busy_ms", "ms"},
	{"consume.batches", "count"},
	{"consume.tuples", "count"},
	{"consume.ns_per_tuple", "ns"},
	{"router.self_ms", "ms"},
	{"router.shard_calls", "count"},
	{"router.hot_keys", "count"},
	{"router.frag_frac", "frac"},
	{"router.retries", "count"},
	{"shard.call_ms", "ms"},
	{"shard.wait_ms", "ms"},
	{"shard.join_ms", "ms"},
	{"shard.transport_ms", "ms"},
	{"shard.response_bytes", "bytes"},
	{"shard.imbalance", "ratio"},
	{"setup.register_ms", "ms"},
	{"setup.fragments_ms", "ms"},
	{"setup.warmup_ms", "ms"},
	{"gc.cycles_per_join", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
