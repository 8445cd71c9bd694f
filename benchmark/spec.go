package main

// The names in this file are normative: BENCHMARK.json at the repository
// root lists the same workloads and metrics, and TestSpecMatchesBenchmarkJSON
// fails when the two drift apart.

// metric is one reported number. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry no bound.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cumulative_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "query_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "heap_bytes_per_row", Unit: "B", Better: "lower", Bound: 0.03},
}

// perLayer is what the traced ladder and the fixed probes report.
var perLayer = []metric{
	{Name: "column.crack2_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "column.crack3_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "column.split_materialize_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "column.scan_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "column.parallel_crack2_ns_per_tuple", Unit: "ns", Better: "lower"},

	{Name: "cindex.piecefor_ns", Unit: "ns", Better: "lower"},
	{Name: "cindex.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "cindex.rangeshift_ns", Unit: "ns", Better: "lower"},

	{Name: "core.ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "core.first_query_ms", Unit: "ms", Better: "lower"},
	{Name: "core.touched_per_query", Unit: "count", Better: "lower"},
	{Name: "core.swaps_per_query", Unit: "count", Better: "lower"},
	{Name: "core.cracks", Unit: "count", Better: "lower"},

	{Name: "updates.self_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "updates.ripple_insert_us", Unit: "us", Better: "lower"},
	{Name: "updates.ripple_delete_us", Unit: "us", Better: "lower"},
	{Name: "updates.merged_per_covering_query", Unit: "count", Better: "lower"},
	{Name: "updates.pending_peak", Unit: "count", Better: "lower"},

	{Name: "exec.self_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "exec.shared_path_ratio", Unit: "ratio", Better: "higher"},
	{Name: "exec.lockwait_us_p50", Unit: "us", Better: "lower"},
	{Name: "exec.apply_us_p50", Unit: "us", Better: "lower"},
	{Name: "exec.sharded_self_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "exec.batcher_queue_us_p50", Unit: "us", Better: "lower"},
	{Name: "exec.batcher_ops_per_flush", Unit: "count", Better: "higher"},

	{Name: "crackdb.single_self_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "crackdb.shared_self_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "crackdb.sharded_self_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "crackdb.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "crackdb.open_ms", Unit: "ms", Better: "lower"},
	{Name: "crackdb.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "crackdb.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "crackdb.groupcommit_write_us_p50", Unit: "us", Better: "lower"},
	{Name: "table.self_ns_per_query", Unit: "ns", Better: "lower"},

	{Name: "snapshot.save_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.bytes_per_row", Unit: "B", Better: "lower"},

	{Name: "server.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "server.transport_self_us", Unit: "us", Better: "lower"},
	{Name: "server.us_per_1k_values", Unit: "us", Better: "lower"},
	{Name: "server.aggregate_us", Unit: "us", Better: "lower"},
	{Name: "server.rejected_ratio", Unit: "ratio", Better: "lower"},
	{Name: "catalog.self_us", Unit: "us", Better: "lower"},

	{Name: "cluster.self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.us_per_1k_values", Unit: "us", Better: "lower"},
	{Name: "cluster.split_query_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.handler_self_us", Unit: "us", Better: "lower"},

	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// Envelope constants shared by every workload (ISSUE 11, "Common envelope").
const (
	defaultRows = 10_000_000
	algorithm   = "dd1r"
	pointWidth  = 10   // s=10: the paper's default selectivity
	scanWidth   = 1000 // s=1000: cluster_scan's 1000-value responses
	minReps     = 2    // timed repetitions per instance, whatever --seconds says
)

// workloadSpec fixes one workload: which rung of the layer ladder serves its
// untraced run, with how many closed-loop clients, and how one timed
// repetition is cut from the client's op block.
type workloadSpec struct {
	Name string
	Why  string
	// rung is the top rung: the layer entry point the untraced run drives.
	rung string
	// clients is the closed-loop client count (never above nproc=2 on the
	// reference host; seq_cold is the paper's single dependent sequence).
	clients int
	// instances is how many independent set-ups share the measured seconds:
	// more where set-up is cheap and placement luck is large.
	instances int
	// cold makes every repetition start from a fresh, uncracked column.
	cold bool
	// writes marks a block with inserts and deletes: each client then owns
	// an equal slice of the value domain and reads it whole at the end.
	writes bool
	// q is the size of each client's range set; passes is how often a
	// repetition replays the client's block; sampleEvery thins the latency
	// samples where a timer call would rival the operation itself.
	q, passes, sampleEvery int
	// gen materialises one client's warm-up ops and repeated block.
	gen func(p genParams) (warm, block []op)
}

var workloads = []workloadSpec{
	{
		Name: "seq_cold",
		Why:  "paper's sequential pattern on a cold column: column kernels under core's stochastic cracks are >=95% of the time, so kernel, parallel-crack and coarse-init work shows here only",
		rung: "crackdb.single", clients: 1, instances: 5, cold: true, q: 10_000, passes: 1, sampleEvery: 1,
		gen: genSequential,
	},
	{
		Name: "hot_converged",
		Why:  "converged random ranges replayed in process: kernels idle, so cindex lookup, exec's shared-lock path and facade dispatch (~0.7us/query) are the whole cost",
		rung: "crackdb.shared", clients: 2, instances: 10, q: 10_000, passes: 25, sampleEvery: 8,
		gen: genRandom(pointWidth),
	},
	{
		Name: "mixed_rw",
		Why:  "inserts, deletes and merge-forcing reads beside converged reads: exec and updates as a write path, so a read-path gain that costs merges or lock hand-offs regresses here",
		rung: "crackdb.shared", clients: 2, instances: 4, writes: true, q: 10_000, passes: 1, sampleEvery: 1,
		gen: genMixed,
	},
	{
		Name: "wire_point",
		Why:  "point ranges over loopback HTTP: DB work is ~1% of ~45us, so per-request HTTP, JSON and admission cost is measured; payload and coordinator changes should not move it",
		rung: "server", clients: 2, instances: 5, q: 5_000, passes: 2, sampleEvery: 1,
		gen: genRandom(pointWidth),
	},
	{
		Name: "cluster_scan",
		Why:  "1000-value ranges through the coordinator over two nodes: two hops and JSON bodies encoded, decoded, re-encoded, so a binary body or cheaper gather shows here, fixed overhead mostly not",
		rung: "cluster", clients: 2, instances: 3, q: 2_500, passes: 1, sampleEvery: 1,
		gen: genRandom(scanWidth),
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
