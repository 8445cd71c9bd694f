// Package server is the network serving layer over the crackdb.DB front
// door: an HTTP/JSON service that exposes adaptive range queries, lazy
// updates and live cracking telemetry, so the paper's robustness story —
// index refinement *while serving queries* — can be observed under real
// concurrent client traffic instead of a single in-process query stream.
//
// Endpoints:
//
//	POST /v1/query     — single range, or-of-ranges, and batches; values or
//	                     (count, sum) aggregates
//	POST /v1/insert    — queue values for lazy ripple-merge insertion
//	POST /v1/delete    — queue value removals
//	POST /v1/snapshot  — capture the live adapted state into the configured
//	                     snapshot store key (admission-gated; atomic
//	                     replace), for warm restarts. Pending updates
//	                     are captured with the state; {"strict": true}
//	                     refuses with 409 instead (explicit clean-cut
//	                     captures)
//	GET  /v1/snapshot/range?lo=&hi= — capture and stream the manifest of
//	                     one value range (the shard-migration donor side)
//	POST /v1/restore   — replace the serving state with the streamed
//	                     manifest (the migration joiner side), rebuilt
//	                     with the served DB's own options (DB.Reopen)
//	POST /v1/retain    — shrink the serving state to one value range of a
//	                     fresh capture (the migration donor's final step)
//	GET  /v1/stats     — index counters, piece-size distribution and
//	                     histogram, executor read/write path split, and a
//	                     convergence series sampled per call
//	GET  /healthz      — readiness: owned shard range, piece count,
//	                     restored-vs-cold, pending updates
//	GET  /debug/metrics — Prometheus text exposition
//
// When Config.AuthToken is set, every endpoint except GET /healthz
// requires "Authorization: Bearer <token>" (401 otherwise); health stays
// open so load balancers and the cluster coordinator can probe without
// credentials. BearerAuth is that check, and the catalog and the cluster
// coordinator guard their listeners with it too, just as they decode
// requests and write responses through this package's wire helpers
// (DecodeBody, WriteJSON, WriteError, QueryRequest.Items,
// UpdateRequest.List): the three serving shapes share one edge.
//
// The handlers stay on the DB's allocation-free forms: a single-range
// query runs through DB.QueryAppend and a batch through
// DB.QueryBatchAppend, both into sync.Pool-recycled buffers, so the query
// hot path performs no per-request heap allocations beyond what HTTP and
// request decoding cost; the response body is encoded without reflection
// into a pooled buffer (codec.go). Request contexts thread into the DB's
// context-aware query paths: a disconnected client cancels its query at
// the next cancellation point instead of holding the executor's locks.
//
// Concurrency follows the DB's construction mode. Shared and Sharded DBs
// serve requests fully in parallel through internal/exec; a Single-mode
// DB (unsynchronized by contract) is served behind one server-side mutex,
// making it the paper's single-threaded experimental setting over the
// wire. An admission limit bounds in-flight data-plane requests — excess
// requests fail fast with 429 rather than convoying behind the write
// lock — sized by default as a multiple of the process-wide worker pool
// (internal/pool), which bounds helper parallelism underneath.
//
// Failures map the crackdb sentinel errors onto HTTP statuses (see
// statusFor): predicate errors are 4xx with a machine-readable code, a
// closed DB is 503, a canceled request is 499 (the de-facto
// client-closed-request status).
package server

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	crackdb "repro"
	"repro/internal/pool"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Info describes the dataset behind the served DB, so clients can
// validate answers against the closed-form oracle when the data is a
// permutation of [0, Rows).
type Info struct {
	Rows        int64  `json:"rows"`
	Algorithm   string `json:"algorithm"`
	Seed        uint64 `json:"seed"`
	Permutation bool   `json:"permutation"`
	// ParallelCrack reports whether the DB cracks large pieces with the
	// chunked parallel kernel (crackdb.WithParallelCrack).
	ParallelCrack bool `json:"parallel_crack,omitempty"`
	// CoarseInitPieces is the coarse-granular initialization piece count
	// the DB was opened with (crackdb.WithCoarseInit); 0 means disabled.
	CoarseInitPieces int `json:"coarse_init_pieces,omitempty"`
}

// Config configures a Server.
type Config struct {
	// Info describes the dataset (served back on /v1/stats).
	Info Info
	// MaxInFlight bounds concurrently admitted data-plane requests
	// (/v1/query, /v1/insert, /v1/delete, /v1/snapshot); excess requests
	// get 429. 0 means 8 x pool.Size(); negative disables admission
	// control.
	MaxInFlight int
	// AdmissionWait bounds how long a request arriving at the MaxInFlight
	// limit may queue for an admission slot before the 429 — additionally
	// bounded by the request's own context deadline, so a caller never
	// queues past the point where it stopped listening. 0 keeps the
	// fail-fast behavior (immediate 429). Every 429 carries a Retry-After
	// header either way.
	AdmissionWait time.Duration
	// SnapshotStore receives the captures of POST /v1/snapshot and of the
	// periodic saver (Server.SaveSnapshot) under SnapshotKey, atomically
	// (crackdb.SnapshotStore; file-backed today, object-store-shaped by
	// design; a single snapshot file is a file store holding one key).
	// Nil disables the endpoint (422). The destination is fixed at
	// construction — clients trigger the capture but never choose where
	// it lands.
	SnapshotStore crackdb.SnapshotStore
	// SnapshotKey is the store key captures land under (e.g. "db.crks",
	// "tables/users.crks"). Required when SnapshotStore is set.
	SnapshotKey string
	// AuthToken, when non-empty, requires every request except GET
	// /healthz to carry "Authorization: Bearer <token>" (401 otherwise;
	// see BearerAuth).
	AuthToken string
	// ShardLo/ShardHi is the half-open value range this server owns when
	// it serves one slice of a cluster dataset. Both zero means the whole
	// domain (a standalone server). Reported on /healthz and updated by
	// restore and retain.
	ShardLo, ShardHi int64
	// Restored marks the initial DB as warm-started from a snapshot, for
	// the /healthz restored-vs-cold field.
	Restored bool
}

// dbState is the swappable serving state: the DB plus what describes it.
// Restore and retain build a new state (DB.Reopen on the current DB, so
// the replacement keeps its algorithm, mode and tuning) and swap the
// pointer atomically;
// requests in flight finish against the state they loaded. The replaced
// DB is not closed — late responses drain from it, then the GC takes it.
type dbState struct {
	db       *crackdb.DB
	info     Info
	lo, hi   int64 // owned value range [lo, hi)
	restored bool  // true when this state came from a snapshot (warm)
}

// Server serves one crackdb.DB over HTTP. Construct with New, mount with
// Handler.
type Server struct {
	// st is the current serving state; load it once per request and use
	// that snapshot throughout (restore/retain swap the pointer live).
	st atomic.Pointer[dbState]

	// handler is the mux behind BearerAuth.
	handler http.Handler
	// swapMu serializes state swaps (restore, retain), so two concurrent
	// migrations cannot interleave capture-then-swap sequences.
	swapMu sync.Mutex

	// serial serializes every DB access for Single-mode DBs, which are
	// not safe for concurrent use by contract. nil in the concurrent
	// modes.
	serial *sync.Mutex

	sem           chan struct{} // admission slots; nil disables the limit
	maxInFlight   int
	admissionWait time.Duration
	inFlight      atomic.Int64
	rejects       atomic.Int64

	mux *http.ServeMux
	met metrics

	// convMu guards conv, the convergence series sampled once per
	// /v1/stats call.
	convMu sync.Mutex
	conv   stats.Convergence

	// snapMu serializes snapshot captures (endpoint and periodic saver):
	// concurrent captures would race on the store key, and back-to-back
	// drains of the executor buy nothing. It is never held while waiting
	// for an admission slot, so it cannot deadlock against the limit.
	snapMu        sync.Mutex
	snapshotStore crackdb.SnapshotStore
	snapshotKey   string
	snapshots     atomic.Int64

	// draining is flipped by POST /v1/drain once a coordinator has
	// migrated this node's ranges away; /healthz then reports "draining"
	// so orchestration can tell a handed-off node from a sick one.
	draining atomic.Bool

	// hold, when non-nil, runs inside the admission slot before the query
	// executes. Test hook for pinning in-flight occupancy.
	hold func()
}

// New builds a Server over db. The Server does not own the DB: callers
// close it after the HTTP server has drained.
func New(db *crackdb.DB, cfg Config) *Server {
	s := &Server{}
	lo, hi := cfg.ShardLo, cfg.ShardHi
	if lo == 0 && hi == 0 {
		lo, hi = math.MinInt64, math.MaxInt64
	}
	s.st.Store(&dbState{db: db, info: cfg.Info, lo: lo, hi: hi, restored: cfg.Restored})
	if db.Mode() == crackdb.Single {
		s.serial = &sync.Mutex{}
	}
	switch {
	case cfg.MaxInFlight == 0:
		s.maxInFlight = 8 * pool.Size()
	case cfg.MaxInFlight > 0:
		s.maxInFlight = cfg.MaxInFlight
	}
	if s.maxInFlight > 0 {
		s.sem = make(chan struct{}, s.maxInFlight)
	}
	s.admissionWait = cfg.AdmissionWait
	s.snapshotStore = cfg.SnapshotStore
	s.snapshotKey = cfg.SnapshotKey
	s.met.init()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/query", s.instrument(epQuery, s.handleQuery))
	s.mux.HandleFunc("POST /v1/insert", s.instrument(epInsert, s.handleInsert))
	s.mux.HandleFunc("POST /v1/delete", s.instrument(epDelete, s.handleDelete))
	s.mux.HandleFunc("POST /v1/snapshot", s.instrument(epSnapshot, s.handleSnapshot))
	s.mux.HandleFunc("GET /v1/snapshot/range", s.instrument(epSnapshot, s.handleSnapshotRange))
	s.mux.HandleFunc("POST /v1/restore", s.instrument(epRestore, s.handleRestore))
	s.mux.HandleFunc("POST /v1/retain", s.instrument(epRestore, s.handleRetain))
	s.mux.HandleFunc("GET /v1/stats", s.instrument(epStats, s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.instrument(epHealth, s.handleHealth))
	s.mux.HandleFunc("POST /v1/drain", s.instrument(epHealth, s.handleDrain))
	s.mux.HandleFunc("GET /debug/metrics", s.handleMetrics)
	s.handler = BearerAuth(cfg.AuthToken, s.mux)
	return s
}

// state loads the current serving state.
func (s *Server) state() *dbState { return s.st.Load() }

// TableInfo is one table's row in the catalog listing (GET /v1/tables):
// the identity facts a tenant needs to pick an endpoint, without the
// cost of the per-table stats handler.
type TableInfo struct {
	Name     string `json:"name"`
	Mode     string `json:"mode"`
	Layout   string `json:"layout"` // DB.Name(): algorithm + concurrency shape
	Rows     int64  `json:"rows"`
	Restored bool   `json:"restored"`
	Pending  int    `json:"pending_updates"`
}

// Describe reports the serving state's identity facts for catalog
// listings. Cheap relative to the stats handler: no piece-size walk, no
// convergence sample — just the serial lock long enough to read the
// pending count.
func (s *Server) Describe() TableInfo {
	cur := s.state()
	unlock := s.lockSerial()
	pending := cur.db.PendingUpdates()
	unlock()
	return TableInfo{
		Mode:     cur.db.Mode().String(),
		Layout:   cur.db.Name(),
		Rows:     int64(cur.db.Rows()),
		Restored: cur.restored,
		Pending:  pending,
	}
}

// Handler returns the Server's HTTP handler: the API mux behind
// BearerAuth with Config.AuthToken.
func (s *Server) Handler() http.Handler { return s.handler }

// BearerAuth is the one bearer check of every serving shape (server,
// catalog, coordinator): it wraps h so every request except GET /healthz
// must carry "Authorization: Bearer <token>", answering 401 otherwise.
// The scheme matches case-insensitively and the token in constant time.
// With an empty token it returns h itself. Health stays open so load
// balancers and the coordinator can probe without credentials.
func BearerAuth(token string, h http.Handler) http.Handler {
	if token == "" {
		return h
	}
	want := []byte(token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/healthz" {
			h.ServeHTTP(w, r)
			return
		}
		const prefix = "Bearer "
		auth := r.Header.Get("Authorization")
		if len(auth) <= len(prefix) || !strings.EqualFold(auth[:len(prefix)], prefix) ||
			subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), want) != 1 {
			WriteError(w, http.StatusUnauthorized, "unauthorized",
				"missing or invalid bearer token (Authorization: Bearer ...)")
			return
		}
		h.ServeHTTP(w, r)
	})
}

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) reported when a request's context was canceled — the
// client went away; no one reads the response, but logs and metrics
// should not count it as a server error.
const StatusClientClosedRequest = 499

// WireRange is one half-open value range [Lo, Hi) on the wire.
type WireRange struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// QueryItem is one predicate on the wire: either a single half-open range
// (lo, hi) or a disjunction of ranges (or), optionally scoped to a table
// column (col).
type QueryItem struct {
	Lo  int64       `json:"lo,omitempty"`
	Hi  int64       `json:"hi,omitempty"`
	Or  []WireRange `json:"or,omitempty"`
	Col string      `json:"col,omitempty"`
}

// Predicate translates the wire form to the crackdb predicate algebra.
func (it QueryItem) Predicate() (crackdb.Predicate, error) {
	var p crackdb.Predicate
	if len(it.Or) > 0 {
		if it.Lo != 0 || it.Hi != 0 {
			return p, errors.New("query: give either lo/hi or \"or\", not both")
		}
		p = crackdb.Range(it.Or[0].Lo, it.Or[0].Hi)
		for _, r := range it.Or[1:] {
			p = p.Or(crackdb.Range(r.Lo, r.Hi))
		}
	} else {
		p = crackdb.Range(it.Lo, it.Hi)
	}
	if it.Col != "" {
		p = p.On(it.Col)
	}
	return p, nil
}

// QueryRequest is the body of POST /v1/query: one inline QueryItem (the
// common single-query case) or a batch under "queries" — not both. With
// aggregate true the response carries only (count, sum) per query,
// skipping value materialization and payload bytes.
type QueryRequest struct {
	QueryItem
	Queries   []QueryItem `json:"queries,omitempty"`
	Aggregate bool        `json:"aggregate,omitempty"`
}

var (
	errInlineAndBatch = errors.New("give either an inline query or \"queries\", not both")
	errEmptyBatch     = errors.New("empty \"queries\"")
	errNoValues       = errors.New("no values")
)

// Items returns the request's queries — the inline one alone when there
// is no "queries" batch — or the error that makes the request a 400.
func (q *QueryRequest) Items() ([]QueryItem, error) {
	if q.Queries == nil {
		return []QueryItem{q.QueryItem}, nil
	}
	if q.Lo != 0 || q.Hi != 0 || len(q.Or) > 0 || q.Col != "" {
		return nil, errInlineAndBatch
	}
	if len(q.Queries) == 0 {
		return nil, errEmptyBatch
	}
	return q.Queries, nil
}

// QueryResult is one query's answer. Values is omitted for aggregate
// requests; Count and Sum are always filled.
type QueryResult struct {
	Count  int     `json:"count"`
	Sum    int64   `json:"sum"`
	Values []int64 `json:"values,omitempty"`
}

// QueryResponse is the body of a successful POST /v1/query: one result
// per query, in request order (a lone inline query yields one result).
type QueryResponse struct {
	Results []QueryResult `json:"results"`
}

// UpdateRequest is the body of POST /v1/insert and /v1/delete: one value,
// or several under "values", optionally scoped to a table column (col).
// Unscoped updates go to the default column (single-column DBs and
// one-column tables); wider tables require col.
type UpdateRequest struct {
	Value  *int64  `json:"value,omitempty"`
	Values []int64 `json:"values,omitempty"`
	Col    string  `json:"col,omitempty"`
}

// List returns the request's values — "values" then "value" — or the
// error that makes the request a 400.
func (u *UpdateRequest) List() ([]int64, error) {
	values := u.Values
	if u.Value != nil {
		values = append(values, *u.Value)
	}
	if len(values) == 0 {
		return nil, errNoValues
	}
	return values, nil
}

// UpdateResponse reports the queue depth after the update: updates merge
// lazily, so Pending is the number queued across the DB *after this
// request's whole value list was applied* (one consistent post-batch
// reading, not a per-value running count), not a failure. Accepted is how
// many values this request applied. When the DB runs with group commit,
// Grouped is true and the *_ns fields decompose the write's latency:
// QueueNS waiting to be sealed into a batch, FlushNS waiting for the
// exclusive section, ApplyNS holding it.
type UpdateResponse struct {
	Pending  int   `json:"pending"`
	Accepted int   `json:"accepted"`
	Grouped  bool  `json:"grouped,omitempty"`
	QueueNS  int64 `json:"queue_ns,omitempty"`
	FlushNS  int64 `json:"flush_ns,omitempty"`
	ApplyNS  int64 `json:"apply_ns,omitempty"`
}

// ErrorResponse is the body of every non-2xx response: a human-readable
// message and a stable machine-readable code ("unknown_column",
// "updates_unsupported", "pending_updates", "snapshot_unsupported",
// "snapshot_unconfigured", "over_capacity", "bad_request", "canceled",
// "closed", "unsupported", "internal").
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// HistBucket is one bucket of the piece-size histogram: Count pieces of
// size at most Le tuples (log2 bucket upper bounds, stats.BucketSizes).
type HistBucket = stats.SizeBucket

// ConvergenceInfo is the sampled convergence series: one entry per
// /v1/stats call, oldest first, capped at the most recent
// maxConvergenceSamples so a long-lived, frequently-polled server keeps
// bounded memory and response sizes. ConvergedAt1Pct is the first
// retained sample at which the largest piece fell below 1% of the
// column (-1: not yet) — the paper's "curve flattens after k queries"
// metric over samples.
type ConvergenceInfo struct {
	Samples         int       `json:"samples"`
	MaxPieceShare   []float64 `json:"max_piece_share"`
	Pieces          []int     `json:"pieces"`
	ConvergedAt1Pct int       `json:"converged_at_1pct"`
}

// IndexStats is the wire form of the DB's cumulative physical-cost
// counters.
type IndexStats struct {
	Queries int64 `json:"queries"`
	Touched int64 `json:"touched"`
	Swaps   int64 `json:"swaps"`
	Cracks  int   `json:"cracks"`
	Pieces  int   `json:"pieces"`
}

// StatsResponse is the body of GET /v1/stats: identity, dataset info,
// serving counters, index counters, and — when the mode exposes them —
// the executor path split, the piece-size distribution and the sampled
// convergence series.
type StatsResponse struct {
	Name string `json:"name"`
	Mode string `json:"mode"`
	Info

	QueriesServed    int64 `json:"queries_served"`
	InFlight         int64 `json:"in_flight"`
	AdmissionLimit   int   `json:"admission_limit"`
	AdmissionRejects int64 `json:"admission_rejects"`
	PendingUpdates   int   `json:"pending_updates"`
	SnapshotsTaken   int64 `json:"snapshots_taken"`

	Index IndexStats `json:"index"`

	// HasPathStats guards ReadQueries/WriteQueries (executor modes only).
	HasPathStats bool  `json:"has_path_stats"`
	ReadQueries  int64 `json:"read_queries"`
	WriteQueries int64 `json:"write_queries"`

	Pieces         *stats.PieceStats `json:"pieces,omitempty"`
	PieceHistogram []HistBucket      `json:"piece_histogram,omitempty"`
	Convergence    *ConvergenceInfo  `json:"convergence,omitempty"`

	// GroupCommit is present when the DB runs writes through the
	// group-commit batcher (crackdb.WithGroupCommit).
	GroupCommit *GroupCommitInfo `json:"group_commit,omitempty"`
}

// GroupCommitInfo is the batcher's cumulative counters: how writes were
// grouped (AvgBatch = Ops/Flushes, MaxBatch the largest single flush) and
// where their time went, as summed nanoseconds per latency stage (queue:
// enqueue→sealed into a batch; flush: waiting for the exclusive section;
// apply: holding it).
type GroupCommitInfo struct {
	BatchSize int     `json:"batch_size"`
	MaxWaitNS int64   `json:"max_wait_ns"`
	Enqueued  int64   `json:"enqueued"`
	Ops       int64   `json:"ops"`
	Flushes   int64   `json:"flushes"`
	MaxBatch  int64   `json:"max_batch"`
	AvgBatch  float64 `json:"avg_batch"`
	QueueNS   int64   `json:"queue_ns"`
	FlushNS   int64   `json:"flush_ns"`
	ApplyNS   int64   `json:"apply_ns"`
}

// HealthResponse is the body of GET /healthz: liveness plus the
// readiness facts a cluster coordinator routes on — which value range
// this node owns, how refined its index is, whether it started warm from
// a snapshot, and how many updates are queued.
type HealthResponse struct {
	Status string `json:"status"`
	Name   string `json:"name"`
	Mode   string `json:"mode"`
	// Rows is the number of tuples this node currently holds (its slice,
	// not the cluster total).
	Rows int64 `json:"rows"`
	// ShardLo/ShardHi is the half-open value range this node owns;
	// math.MinInt64/math.MaxInt64 for a standalone server.
	ShardLo int64 `json:"shard_lo"`
	ShardHi int64 `json:"shard_hi"`
	// Pieces is the current column piece count — non-zero refinement on a
	// just-started node means it was restored warm.
	Pieces int `json:"pieces"`
	// Restored is true when the serving state came from a snapshot (warm
	// start or live migration), false when it was built cold.
	Restored bool `json:"restored"`
	// PendingUpdates is the queued, not-yet-merged update count.
	PendingUpdates int `json:"pending_updates"`
	// Draining is true after POST /v1/drain: the node's ranges have been
	// handed off and it is waiting to be shut down.
	Draining bool `json:"draining,omitempty"`
}

// DrainResponse is the body of POST /v1/drain.
type DrainResponse struct {
	Draining bool  `json:"draining"`
	Rows     int64 `json:"rows"`
}

// queryBuffers is the pooled per-request scratch of the query handler:
// the predicate list, the single-query append destination and the batch
// arena. Recycled through bufPool so a warmed server's query hot path
// performs no per-request heap allocations in the DB layer.
type queryBuffers struct {
	preds []crackdb.Predicate
	dst   []int64
	bb    crackdb.BatchBuffer
	res   []QueryResult
}

var bufPool = sync.Pool{New: func() any { return new(queryBuffers) }}

// admit takes an admission slot, reporting false (after counting the
// reject) when the server is at MaxInFlight. With AdmissionWait set, a
// request arriving at the limit queues for a slot up to that long —
// bounded by its own context, so a hung-up caller leaves the queue
// immediately — instead of failing fast. release must be called exactly
// once when ok.
func (s *Server) admit(ctx context.Context) (release func(), ok bool) {
	s.inFlight.Add(1)
	if s.sem == nil {
		return func() { s.inFlight.Add(-1) }, true
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem; s.inFlight.Add(-1) }, true
	default:
	}
	if s.admissionWait > 0 && ctx.Err() == nil {
		timer := time.NewTimer(s.admissionWait)
		defer timer.Stop()
		select {
		case s.sem <- struct{}{}:
			return func() { <-s.sem; s.inFlight.Add(-1) }, true
		case <-timer.C:
		case <-ctx.Done():
		}
	}
	s.inFlight.Add(-1)
	s.rejects.Add(1)
	return nil, false
}

// rejectOverCapacity writes the 429 admission reject. Per RFC 9110 it
// carries a Retry-After hint: the admission wait when one is configured
// (the queue turns over within roughly that long), else one second.
func (s *Server) rejectOverCapacity(w http.ResponseWriter) {
	secs := int64(1)
	if s.admissionWait > 0 {
		if v := int64((s.admissionWait + time.Second - 1) / time.Second); v > secs {
			secs = v
		}
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	WriteError(w, http.StatusTooManyRequests, "over_capacity",
		fmt.Sprintf("server at its in-flight limit (%d); retry", s.maxInFlight))
}

// lockSerial takes the Single-mode serialization lock, a no-op in the
// concurrent modes. Every DB access (queries, updates, stats reads) goes
// through it so a Single DB sees one request at a time.
func (s *Server) lockSerial() func() {
	if s.serial == nil {
		return func() {}
	}
	s.serial.Lock()
	return s.serial.Unlock
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(r.Context())
	if !ok {
		s.rejectOverCapacity(w)
		return
	}
	defer release()
	if s.hold != nil {
		s.hold()
	}

	var req QueryRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	items, err := req.Items()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	single := req.Queries == nil

	qb := bufPool.Get().(*queryBuffers)
	defer bufPool.Put(qb)
	qb.preds = qb.preds[:0]
	for _, it := range items {
		p, err := it.Predicate()
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		qb.preds = append(qb.preds, p)
	}

	qb.res = qb.res[:0]
	ctx := r.Context()
	db := s.state().db
	unlock := s.lockSerial()
	err = func() error {
		switch {
		case req.Aggregate:
			for _, p := range qb.preds {
				agg, err := db.QueryAggregate(ctx, p)
				if err != nil {
					return err
				}
				qb.res = append(qb.res, QueryResult{Count: agg.Count, Sum: agg.Sum})
			}
		case single:
			dst, err := db.QueryAppend(ctx, qb.preds[0], qb.dst[:0])
			qb.dst = dst
			if err != nil {
				return err
			}
			qb.res = append(qb.res, valuesResult(dst))
		default:
			outs, err := db.QueryBatchAppend(ctx, qb.preds, &qb.bb)
			if err != nil {
				return err
			}
			for _, vals := range outs {
				qb.res = append(qb.res, valuesResult(vals))
			}
		}
		return nil
	}()
	unlock()
	if err != nil {
		writeMappedError(w, err)
		return
	}
	s.met.queries.Add(int64(len(qb.preds)))
	// Encode before the deferred bufPool.Put: batch results alias qb.bb's
	// arena and are invalid once the buffers are recycled.
	WriteQueryResponse(w, QueryResponse{Results: qb.res})
}

// valuesResult builds a QueryResult over a materialized value slice,
// folding the sum so clients can validate against the oracle without
// re-summing.
func valuesResult(vals []int64) QueryResult {
	var sum int64
	for _, v := range vals {
		sum += v
	}
	return QueryResult{Count: len(vals), Sum: sum, Values: vals}
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	s.handleUpdate(w, r, false)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.handleUpdate(w, r, true)
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, del bool) {
	release, ok := s.admit(r.Context())
	if !ok {
		s.rejectOverCapacity(w)
		return
	}
	defer release()
	db := s.state().db

	var req UpdateRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	values, err := req.List()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	// The whole value list rides one batch through one exclusive section
	// (amortized under group commit), so Pending below is a single
	// consistent post-batch reading.
	var inserts, deletes []int64
	if del {
		deletes = values
	} else {
		inserts = values
	}
	unlock := s.lockSerial()
	var pending int
	tm, err := db.ApplyBatchOn(r.Context(), req.Col, inserts, deletes)
	if err == nil {
		pending = db.PendingUpdates()
	}
	unlock()
	if err != nil {
		writeMappedError(w, err)
		return
	}
	s.met.observeUpdate(tm)
	WriteJSON(w, http.StatusOK, UpdateResponse{
		Pending:  pending,
		Accepted: len(values),
		Grouped:  tm.Grouped,
		QueueNS:  tm.Queue.Nanoseconds(),
		FlushNS:  tm.Flush.Nanoseconds(),
		ApplyNS:  tm.Apply.Nanoseconds(),
	})
}

// SnapshotRequest is the optional body of POST /v1/snapshot. Strict
// refuses the capture with 409 while updates are queued (a clean
// fully-merged cut on demand); the default captures the queues with the
// state.
type SnapshotRequest struct {
	Strict bool `json:"strict,omitempty"`
}

// SnapshotResponse is the body of a successful POST /v1/snapshot: where
// the state landed and how much adaptation it carries.
type SnapshotResponse struct {
	Path      string `json:"path"`
	Rows      int    `json:"rows"`
	Parts     int    `json:"parts"`   // parts summed over columns: one per shard per column
	Pieces    int    `json:"pieces"`  // column pieces captured — the earned refinement
	Pending   int    `json:"pending"` // pending updates carried in the capture
	Bytes     int64  `json:"bytes"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.snapshotStore == nil {
		WriteError(w, http.StatusUnprocessableEntity, "snapshot_unconfigured",
			"server started without a snapshot destination (-snapshot or -snapshot-store)")
		return
	}
	var req SnapshotRequest
	if !decodeOptionalBody(w, r, &req) {
		return
	}
	// Snapshot capture drains the executor like a write-path query, so it
	// competes for an admission slot like one: under overload the caller
	// gets a fast 429 instead of convoying yet another drain behind the
	// backlog.
	release, ok := s.admit(r.Context())
	if !ok {
		s.rejectOverCapacity(w)
		return
	}
	defer release()
	if s.hold != nil {
		s.hold()
	}
	resp, err := s.saveSnapshot(req.Strict)
	if err != nil {
		writeMappedError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// SaveSnapshot captures the DB's live adapted state and writes it to
// Config.SnapshotStore under Config.SnapshotKey, atomically; the server
// must have a store. The capture happens under the DB's own drain
// (exclusive per executor); the store write happens after, outside every
// DB lock. Both the endpoint and the periodic saver (cmd/crackserver
// -snapshot-interval) funnel through here, serialized by snapMu. Pending
// updates are captured with the state, never refused.
func (s *Server) SaveSnapshot() (SnapshotResponse, error) { return s.saveSnapshot(false) }

func (s *Server) saveSnapshot(strict bool) (SnapshotResponse, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()
	db := s.state().db
	unlock := s.lockSerial()
	var snap crackdb.DBSnapshot
	var err error
	if strict {
		snap, err = db.SnapshotStrict()
	} else {
		snap, err = db.Snapshot()
	}
	unlock()
	if err != nil {
		return SnapshotResponse{}, err
	}
	if err := s.snapshotStore.Save(s.snapshotKey, snap); err != nil {
		return SnapshotResponse{}, err
	}
	// A file-backed store exposes the key's stable file mapping, whose
	// size the response reports; a purely remote store reports zero bytes.
	var size int64
	if fs, ok := s.snapshotStore.(interface{ Path(string) string }); ok {
		if fi, err := os.Stat(fs.Path(s.snapshotKey)); err == nil {
			size = fi.Size()
		}
	}
	s.snapshots.Add(1)
	return SnapshotResponse{
		Path:      s.snapshotKey,
		Rows:      snap.Rows(),
		Parts:     snapParts(snap),
		Pieces:    snap.Pieces(),
		Pending:   snap.Pending(),
		Bytes:     size,
		ElapsedMS: time.Since(start).Milliseconds(),
	}, nil
}

// snapParts counts a manifest's parts summed over its columns.
func snapParts(snap crackdb.DBSnapshot) int {
	n := 0
	for _, c := range snap.Columns {
		n += len(c.Parts)
	}
	return n
}

// handleSnapshotRange captures the live state and streams the manifest of
// the requested value range [lo, hi) — the donor side of a live shard
// migration: the coordinator pulls the moving range here and feeds it to
// the joining node's POST /v1/restore. Pending updates in the range ride
// along in the stream, so a migration never refuses because updates are
// queued.
func (s *Server) handleSnapshotRange(w http.ResponseWriter, r *http.Request) {
	lo, hi, ok := rangeParams(w, r)
	if !ok {
		return
	}
	release, ok := s.admit(r.Context())
	if !ok {
		s.rejectOverCapacity(w)
		return
	}
	defer release()
	part, ok := s.captureRange(w, lo, hi)
	if !ok {
		return
	}
	// Encode to memory first so a serialization failure can still return a
	// clean error status instead of a torn stream.
	var buf bytes.Buffer
	if err := crackdb.WriteSnapshot(&buf, part); err != nil {
		writeMappedError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// rangeParams parses the ?lo=&hi= query params, writing a 400 and
// reporting false unless both are integers with lo < hi.
func rangeParams(w http.ResponseWriter, r *http.Request) (lo, hi int64, ok bool) {
	lo, err1 := strconv.ParseInt(r.URL.Query().Get("lo"), 10, 64)
	hi, err2 := strconv.ParseInt(r.URL.Query().Get("hi"), 10, 64)
	if err1 != nil || err2 != nil || lo >= hi {
		WriteError(w, http.StatusBadRequest, "bad_request", "need integer query params lo < hi")
		return 0, 0, false
	}
	return lo, hi, true
}

// captureRange captures the live state under the serial lock and returns
// its [lo, hi) slice widened to one whole-domain part — valid, since the
// slice's cracks lie strictly inside [lo, hi); the owned range travels
// beside it. On failure it writes the error response and reports false.
func (s *Server) captureRange(w http.ResponseWriter, lo, hi int64) (crackdb.DBSnapshot, bool) {
	db := s.state().db
	unlock := s.lockSerial()
	snap, err := db.Snapshot()
	unlock()
	if err != nil {
		writeMappedError(w, err)
		return crackdb.DBSnapshot{}, false
	}
	parts, ok := snap.Column("")
	if !ok {
		writeMappedError(w, fmt.Errorf("server: a table has no single value domain to cut: %w",
			crackdb.ErrSnapshotUnsupported))
		return crackdb.DBSnapshot{}, false
	}
	st, err := parts.Extract(lo, hi)
	if err != nil {
		writeMappedError(w, err)
		return crackdb.DBSnapshot{}, false
	}
	return snapshot.Single(st), true
}

// RestoreResponse is the body of a successful POST /v1/restore or
// /v1/retain: the shape of the state now serving.
type RestoreResponse struct {
	Rows      int   `json:"rows"`
	Parts     int   `json:"parts"`
	Pieces    int   `json:"pieces"` // non-zero: the node starts warm
	Pending   int   `json:"pending"`
	ShardLo   int64 `json:"shard_lo"`
	ShardHi   int64 `json:"shard_hi"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// handleRestore replaces the serving state with the snapshot manifest
// streamed in the request body — the joiner side of a live shard
// migration. The new state starts warm: every crack (and pending update)
// the stream carries survives. Optional lo/hi query params declare the
// value range the node now owns (reported on /healthz); they default to
// the whole domain.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	// Check the declared range before the stream is decoded and the DB
	// rebuilt: a bad request must cost nothing.
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if q := r.URL.Query(); q.Get("lo") != "" || q.Get("hi") != "" {
		var ok bool
		if lo, hi, ok = rangeParams(w, r); !ok {
			return
		}
	}
	release, ok := s.admit(r.Context())
	if !ok {
		s.rejectOverCapacity(w)
		return
	}
	defer release()
	start := time.Now()
	snap, err := crackdb.ReadSnapshot(http.MaxBytesReader(w, r.Body, maxRestoreBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", "decoding snapshot stream: "+err.Error())
		return
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	db, err := s.state().db.Reopen(snap)
	if err != nil {
		writeMappedError(w, err)
		return
	}
	s.swapState(db, lo, hi)
	WriteJSON(w, http.StatusOK, RestoreResponse{
		Rows: snap.Rows(), Parts: snapParts(snap), Pieces: snap.Pieces(),
		Pending: snap.Pending(), ShardLo: lo, ShardHi: hi,
		ElapsedMS: time.Since(start).Milliseconds(),
	})
}

// RetainRequest is the body of POST /v1/retain: the value range to keep.
type RetainRequest struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// handleRetain shrinks the serving state to the requested value range of
// a fresh capture — the donor's final migration step, after the moving
// range was handed to the joiner and the routing table swapped. Cracks
// and pending updates inside the kept range survive.
func (s *Server) handleRetain(w http.ResponseWriter, r *http.Request) {
	var req RetainRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if req.Lo >= req.Hi {
		WriteError(w, http.StatusBadRequest, "bad_request", "need lo < hi")
		return
	}
	release, ok := s.admit(r.Context())
	if !ok {
		s.rejectOverCapacity(w)
		return
	}
	defer release()
	start := time.Now()
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	part, ok := s.captureRange(w, req.Lo, req.Hi)
	if !ok {
		return
	}
	db, err := s.state().db.Reopen(part)
	if err != nil {
		writeMappedError(w, err)
		return
	}
	s.swapState(db, req.Lo, req.Hi)
	WriteJSON(w, http.StatusOK, RestoreResponse{
		Rows: part.Rows(), Parts: 1, Pieces: part.Pieces(),
		Pending: part.Pending(), ShardLo: req.Lo, ShardHi: req.Hi,
		ElapsedMS: time.Since(start).Milliseconds(),
	})
}

// swapState publishes a new serving state owning [lo, hi). Caller holds
// swapMu.
func (s *Server) swapState(db *crackdb.DB, lo, hi int64) {
	cur := s.state()
	info := cur.info
	info.Rows = int64(db.Rows())
	s.st.Store(&dbState{db: db, info: info, lo: lo, hi: hi, restored: true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cur := s.state()
	unlock := s.lockSerial()
	st := cur.db.Stats()
	pending := cur.db.PendingUpdates()
	reads, writes, hasPath := cur.db.PathStats()
	sizes, sizesErr := cur.db.PieceSizes()
	unlock()

	resp := StatsResponse{
		Name:             cur.db.Name(),
		Mode:             cur.db.Mode().String(),
		Info:             cur.info,
		QueriesServed:    s.met.queries.Load(),
		InFlight:         s.inFlight.Load(),
		AdmissionLimit:   s.maxInFlight,
		AdmissionRejects: s.rejects.Load(),
		PendingUpdates:   pending,
		SnapshotsTaken:   s.snapshots.Load(),
		Index: IndexStats{
			Queries: st.Queries, Touched: st.Touched, Swaps: st.Swaps,
			Cracks: st.Cracks, Pieces: st.Pieces,
		},
		HasPathStats: hasPath,
		ReadQueries:  reads,
		WriteQueries: writes,
	}
	if gc, ok := cur.db.GroupCommitStats(); ok {
		info := &GroupCommitInfo{
			BatchSize: gc.BatchSize, MaxWaitNS: gc.MaxWait.Nanoseconds(),
			Enqueued: gc.Enqueued, Ops: gc.Ops, Flushes: gc.Flushes,
			MaxBatch: gc.MaxBatch,
			QueueNS:  gc.QueueNS, FlushNS: gc.FlushNS, ApplyNS: gc.ApplyNS,
		}
		if gc.Flushes > 0 {
			info.AvgBatch = float64(gc.Ops) / float64(gc.Flushes)
		}
		resp.GroupCommit = info
	}
	if sizesErr == nil {
		ps := stats.FromSizes(sizes, int(cur.info.Rows))
		resp.Pieces = &ps
		resp.PieceHistogram = stats.BucketSizes(sizes)

		s.convMu.Lock()
		s.conv.RecordSizes(sizes, int(cur.info.Rows))
		if n := len(s.conv.Pieces); n > maxConvergenceSamples {
			drop := n - maxConvergenceSamples
			s.conv.MaxPieceShare = append(s.conv.MaxPieceShare[:0], s.conv.MaxPieceShare[drop:]...)
			s.conv.Pieces = append(s.conv.Pieces[:0], s.conv.Pieces[drop:]...)
		}
		resp.Convergence = &ConvergenceInfo{
			Samples:         len(s.conv.Pieces),
			MaxPieceShare:   append([]float64(nil), s.conv.MaxPieceShare...),
			Pieces:          append([]int(nil), s.conv.Pieces...),
			ConvergedAt1Pct: s.conv.ConvergedAt(0.01),
		}
		s.convMu.Unlock()
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	cur := s.state()
	unlock := s.lockSerial()
	pieces := cur.db.Stats().Pieces
	pending := cur.db.PendingUpdates()
	unlock()
	status := "ok"
	draining := s.draining.Load()
	if draining {
		status = "draining"
	}
	WriteJSON(w, http.StatusOK, HealthResponse{
		Status: status, Name: cur.db.Name(), Mode: cur.db.Mode().String(),
		Rows: int64(cur.db.Rows()), ShardLo: cur.lo, ShardHi: cur.hi,
		Pieces: pieces, Restored: cur.restored, PendingUpdates: pending,
		Draining: draining,
	})
}

// handleDrain marks the node as drained. The coordinator calls this after
// the last of the node's ranges has been handed off; the flag only
// changes what /healthz reports — requests are still served, because the
// routing table (not this node) decides who gets traffic.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.draining.Store(true)
	cur := s.state()
	WriteJSON(w, http.StatusOK, DrainResponse{Draining: true, Rows: int64(cur.db.Rows())})
}

// instrument wraps a handler with request counting and, for the query
// endpoint, latency recording.
func (s *Server) instrument(ep endpoint, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		s.met.observe(ep, sw.status(), time.Since(start))
	}
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) status() int {
	if sw.code == 0 {
		return http.StatusOK
	}
	return sw.code
}

// maxBodyBytes bounds request bodies; a query request is a few ranges, an
// update request a value list — 8 MiB leaves room for large bulk loads.
const maxBodyBytes = 8 << 20

// maxConvergenceSamples caps the retained /v1/stats convergence series:
// the endpoint is unauthenticated and outside the admission limit, so
// without a cap every poll would grow server memory (and, since the
// series is echoed back whole, response sizes) for the process lifetime.
const maxConvergenceSamples = 512

// DecodeBody strictly decodes the JSON request body into v, writing the
// 400 itself on failure.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", "decoding body: "+err.Error())
		return false
	}
	return true
}

// maxRestoreBytes bounds POST /v1/restore bodies: a migrated shard's
// manifest dwarfs ordinary request bodies, but unbounded reads from the
// network are still off the table.
const maxRestoreBytes = 1 << 30

// decodeOptionalBody is DecodeBody for endpoints whose body may be
// legitimately empty (POST /v1/snapshot predates its request type); an
// empty or whitespace body leaves v at its zero value.
func decodeOptionalBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return false
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", "decoding body: "+err.Error())
		return false
	}
	return true
}

// statusFor maps an error from the DB layer to (status, code): the
// crackdb sentinel errors become 4xx/5xx with stable codes, context
// cancellation becomes 499/504, everything else 500.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, crackdb.ErrUnknownColumn):
		return http.StatusBadRequest, "unknown_column"
	case errors.Is(err, crackdb.ErrUpdatesUnsupported):
		return http.StatusUnprocessableEntity, "updates_unsupported"
	case errors.Is(err, crackdb.ErrPendingUpdates):
		// Not-yet-merged updates would be lost by a snapshot; the caller
		// can drain them with covering queries and retry.
		return http.StatusConflict, "pending_updates"
	case errors.Is(err, crackdb.ErrSnapshotUnsupported):
		return http.StatusUnprocessableEntity, "snapshot_unsupported"
	case errors.Is(err, crackdb.ErrClosed):
		return http.StatusServiceUnavailable, "closed"
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, errors.ErrUnsupported):
		return http.StatusUnprocessableEntity, "unsupported"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func writeMappedError(w http.ResponseWriter, err error) {
	status, code := statusFor(err)
	WriteError(w, status, code, err.Error())
}

// WriteError writes the flat {"error","code"} body of every non-2xx
// response.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode failure after WriteHeader cannot change the status; the
	// truncated body fails JSON parsing client-side, which is the right
	// signal for a mid-response network error anyway.
	_ = json.NewEncoder(w).Encode(v)
}
