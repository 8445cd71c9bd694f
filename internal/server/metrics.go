package server

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	crackdb "repro"
)

// endpoint indexes the per-endpoint request counters.
type endpoint int

const (
	epQuery endpoint = iota
	epInsert
	epDelete
	epStats
	epSnapshot
	epRestore
	epHealth
	numEndpoints
)

func (e endpoint) String() string {
	switch e {
	case epQuery:
		return "query"
	case epInsert:
		return "insert"
	case epDelete:
		return "delete"
	case epStats:
		return "stats"
	case epSnapshot:
		return "snapshot"
	case epRestore:
		return "restore"
	default:
		return "healthz"
	}
}

// statusClass buckets response codes for the request counter labels.
type statusClass int

const (
	class2xx statusClass = iota
	class4xx
	class429
	class499
	class5xx
	numClasses
)

func classOf(status int) statusClass {
	switch {
	case status == http.StatusTooManyRequests:
		return class429
	case status == StatusClientClosedRequest:
		return class499
	case status >= 500:
		return class5xx
	case status >= 400:
		return class4xx
	default:
		return class2xx
	}
}

func (c statusClass) String() string {
	switch c {
	case class2xx:
		return "2xx"
	case class4xx:
		return "4xx"
	case class429:
		return "429"
	case class499:
		return "499"
	default:
		return "5xx"
	}
}

// latencyBuckets are the /v1/query latency histogram's upper bounds in
// seconds (Prometheus `le` labels): 10µs to 10s, decades with a 1-2-5-ish
// split around the sub-millisecond region cracking queries live in.
var latencyBuckets = []float64{
	10e-6, 50e-6, 100e-6, 500e-6,
	1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 500e-3,
	1, 5, 10,
}

// updateStage indexes the decomposed write-latency histograms: where a
// /v1/insert / /v1/delete request's time went.
type updateStage int

const (
	stageQueue updateStage = iota // enqueue → sealed into a batch
	stageFlush                    // waiting for the exclusive section
	stageApply                    // holding the exclusive section
	numStages
)

func (st updateStage) String() string {
	switch st {
	case stageQueue:
		return "queue"
	case stageFlush:
		return "flush"
	default:
		return "apply"
	}
}

// metrics holds the server's atomic counters, exposed in Prometheus text
// format on /debug/metrics. Everything is fixed-size and lock-free on the
// hot path.
type metrics struct {
	// queries counts predicates answered (a batch of k counts k).
	queries atomic.Int64
	// requests counts HTTP requests by endpoint and status class.
	requests [numEndpoints][numClasses]atomic.Int64
	// Query-endpoint latency histogram (per-bucket counts, cumulated at
	// scrape time), plus sum and count for the Prometheus histogram
	// convention.
	latCounts []atomic.Int64
	latSumNs  atomic.Int64
	latTotal  atomic.Int64
	// Per-stage write-latency histograms (same bucket bounds as the query
	// histogram), fed by every applied /v1/insert and /v1/delete batch.
	updCounts [numStages][]atomic.Int64
	updSumNs  [numStages]atomic.Int64
	updTotal  [numStages]atomic.Int64
}

func (m *metrics) init() {
	m.latCounts = make([]atomic.Int64, len(latencyBuckets))
	for st := range m.updCounts {
		m.updCounts[st] = make([]atomic.Int64, len(latencyBuckets))
	}
}

// observe records one finished request. Only successfully answered
// queries enter the latency histogram: under overload, 429 rejects and
// parse errors return in microseconds and would drag the quantiles
// toward zero exactly when they matter most (the per-status request
// counter already accounts for them).
func (m *metrics) observe(ep endpoint, status int, d time.Duration) {
	m.requests[ep][classOf(status)].Add(1)
	if ep != epQuery || classOf(status) != class2xx {
		return
	}
	secs := d.Seconds()
	for i, le := range latencyBuckets {
		if secs <= le {
			m.latCounts[i].Add(1)
			break
		}
	}
	m.latSumNs.Add(d.Nanoseconds())
	m.latTotal.Add(1)
}

// observeUpdate records one applied write batch's decomposed latency.
// Without group commit, Queue is zero and the flush/apply split still
// reports the exclusive-section cost.
func (m *metrics) observeUpdate(tm crackdb.UpdateTimings) {
	for st, d := range [numStages]time.Duration{stageQueue: tm.Queue, stageFlush: tm.Flush, stageApply: tm.Apply} {
		secs := d.Seconds()
		for i, le := range latencyBuckets {
			if secs <= le {
				m.updCounts[st][i].Add(1)
				break
			}
		}
		m.updSumNs[st].Add(d.Nanoseconds())
		m.updTotal[st].Add(1)
	}
}

// handleMetrics writes the Prometheus text exposition: serving counters,
// the query latency histogram, and index gauges (pieces, largest piece
// share, cumulative index counters) sampled at scrape time — so a
// Prometheus scrape is itself the convergence telemetry feed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cur := s.state()
	unlock := s.lockSerial()
	st := cur.db.Stats()
	pending := cur.db.PendingUpdates()
	reads, writes := cur.db.PathStats()
	sizes, sizesErr := cur.db.PieceSizes()
	unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintf(w, "# HELP crackserver_requests_total HTTP requests by endpoint and status class.\n")
	fmt.Fprintf(w, "# TYPE crackserver_requests_total counter\n")
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		for c := statusClass(0); c < numClasses; c++ {
			if n := s.met.requests[ep][c].Load(); n > 0 {
				fmt.Fprintf(w, "crackserver_requests_total{endpoint=%q,code=%q} %d\n", ep, c, n)
			}
		}
	}

	fmt.Fprintf(w, "# HELP crackserver_queries_total Predicates answered (a batch of k counts k).\n")
	fmt.Fprintf(w, "# TYPE crackserver_queries_total counter\n")
	fmt.Fprintf(w, "crackserver_queries_total %d\n", s.met.queries.Load())

	fmt.Fprintf(w, "# HELP crackserver_in_flight Admitted data-plane requests currently executing.\n")
	fmt.Fprintf(w, "# TYPE crackserver_in_flight gauge\n")
	fmt.Fprintf(w, "crackserver_in_flight %d\n", s.inFlight.Load())

	fmt.Fprintf(w, "# HELP crackserver_admission_rejects_total Requests rejected at the in-flight limit.\n")
	fmt.Fprintf(w, "# TYPE crackserver_admission_rejects_total counter\n")
	fmt.Fprintf(w, "crackserver_admission_rejects_total %d\n", s.rejects.Load())

	fmt.Fprintf(w, "# HELP crackserver_query_seconds Latency of /v1/query requests.\n")
	fmt.Fprintf(w, "# TYPE crackserver_query_seconds histogram\n")
	cum := int64(0)
	for i, le := range latencyBuckets {
		cum += s.met.latCounts[i].Load()
		fmt.Fprintf(w, "crackserver_query_seconds_bucket{le=%q} %d\n", formatLe(le), cum)
	}
	total := s.met.latTotal.Load()
	fmt.Fprintf(w, "crackserver_query_seconds_bucket{le=\"+Inf\"} %d\n", total)
	fmt.Fprintf(w, "crackserver_query_seconds_sum %g\n", float64(s.met.latSumNs.Load())/1e9)
	fmt.Fprintf(w, "crackserver_query_seconds_count %d\n", total)

	fmt.Fprintf(w, "# HELP crackserver_update_stage_seconds Decomposed write latency by stage (queue, flush, apply).\n")
	fmt.Fprintf(w, "# TYPE crackserver_update_stage_seconds histogram\n")
	for st := updateStage(0); st < numStages; st++ {
		cum = 0
		for i, le := range latencyBuckets {
			cum += s.met.updCounts[st][i].Load()
			fmt.Fprintf(w, "crackserver_update_stage_seconds_bucket{stage=%q,le=%q} %d\n", st, formatLe(le), cum)
		}
		n := s.met.updTotal[st].Load()
		fmt.Fprintf(w, "crackserver_update_stage_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", st, n)
		fmt.Fprintf(w, "crackserver_update_stage_seconds_sum{stage=%q} %g\n", st, float64(s.met.updSumNs[st].Load())/1e9)
		fmt.Fprintf(w, "crackserver_update_stage_seconds_count{stage=%q} %d\n", st, n)
	}

	if gc, ok := cur.db.GroupCommitStats(); ok {
		fmt.Fprintf(w, "# HELP crackserver_groupcommit_flushes_total Group-commit batches flushed through the exclusive section.\n")
		fmt.Fprintf(w, "# TYPE crackserver_groupcommit_flushes_total counter\n")
		fmt.Fprintf(w, "crackserver_groupcommit_flushes_total %d\n", gc.Flushes)
		fmt.Fprintf(w, "# HELP crackserver_groupcommit_ops_total Individual update operations applied via group commit.\n")
		fmt.Fprintf(w, "# TYPE crackserver_groupcommit_ops_total counter\n")
		fmt.Fprintf(w, "crackserver_groupcommit_ops_total %d\n", gc.Ops)
		fmt.Fprintf(w, "# HELP crackserver_groupcommit_enqueued_total Write requests admitted into the group-commit queue.\n")
		fmt.Fprintf(w, "# TYPE crackserver_groupcommit_enqueued_total counter\n")
		fmt.Fprintf(w, "crackserver_groupcommit_enqueued_total %d\n", gc.Enqueued)
		fmt.Fprintf(w, "# HELP crackserver_groupcommit_max_batch Largest single flushed batch (ops).\n")
		fmt.Fprintf(w, "# TYPE crackserver_groupcommit_max_batch gauge\n")
		fmt.Fprintf(w, "crackserver_groupcommit_max_batch %d\n", gc.MaxBatch)
	}

	fmt.Fprintf(w, "# HELP crackserver_index_queries_total Queries answered by the index (all paths).\n")
	fmt.Fprintf(w, "# TYPE crackserver_index_queries_total counter\n")
	fmt.Fprintf(w, "crackserver_index_queries_total %d\n", st.Queries)

	fmt.Fprintf(w, "# HELP crackserver_index_touched_total Tuples examined by reorganizations and scans.\n")
	fmt.Fprintf(w, "# TYPE crackserver_index_touched_total counter\n")
	fmt.Fprintf(w, "crackserver_index_touched_total %d\n", st.Touched)

	fmt.Fprintf(w, "# HELP crackserver_index_pieces Column pieces (index refinement).\n")
	fmt.Fprintf(w, "# TYPE crackserver_index_pieces gauge\n")
	fmt.Fprintf(w, "crackserver_index_pieces %d\n", st.Pieces)

	fmt.Fprintf(w, "# HELP crackserver_pending_updates Queued, not-yet-merged updates.\n")
	fmt.Fprintf(w, "# TYPE crackserver_pending_updates gauge\n")
	fmt.Fprintf(w, "crackserver_pending_updates %d\n", pending)

	fmt.Fprintf(w, "# HELP crackserver_exec_path_queries_total Executor queries by lock path.\n")
	fmt.Fprintf(w, "# TYPE crackserver_exec_path_queries_total counter\n")
	fmt.Fprintf(w, "crackserver_exec_path_queries_total{path=\"read\"} %d\n", reads)
	fmt.Fprintf(w, "crackserver_exec_path_queries_total{path=\"write\"} %d\n", writes)
	if sizesErr == nil && len(sizes) > 0 && cur.info.Rows > 0 {
		maxSize := 0
		for _, sz := range sizes {
			if sz > maxSize {
				maxSize = sz
			}
		}
		fmt.Fprintf(w, "# HELP crackserver_index_max_piece_share Largest piece's share of the column (1.0 = unadapted).\n")
		fmt.Fprintf(w, "# TYPE crackserver_index_max_piece_share gauge\n")
		fmt.Fprintf(w, "crackserver_index_max_piece_share %g\n", float64(maxSize)/float64(cur.info.Rows))
	}
}

// formatLe renders a bucket bound the way Prometheus clients expect
// (shortest float form).
func formatLe(le float64) string { return fmt.Sprintf("%g", le) }
