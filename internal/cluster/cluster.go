// Package cluster is the distributed layer over crackserver nodes: a
// scatter-gather coordinator that value-routes queries and updates to N
// backends, each owning one contiguous shard of the value domain, and
// keeps serving through node trouble via health-checked backends, per-
// backend circuit breakers and replica failover (internal/cluster/client).
//
// It is the paper's §6 "distribution" direction taken one level above
// internal/exec's in-process sharding: the same value-range partitioning
// idea, but each shard is a whole crackserver process reachable over the
// v1 HTTP/JSON API — cracking state, lazy updates, snapshots and all.
// The coordinator speaks that same API to its own clients, so everything
// built against one crackserver (the Go client, the closed-form oracle
// validation, curl) works unchanged against a cluster.
//
// # Routing and replication
//
// The routing table is an ascending list of half-open value ranges
// tiling the whole int64 domain, each entry carrying a *replica set*
// (one or more backends holding identical copies of the range), behind
// an atomic pointer: reads load it once per request, migrations and
// drains swap it wholesale. Every sub-request is clamped to its entry's
// range — which is what makes both migration and replica recovery safe:
// a node may hold stale tuples outside the ranges the table says it
// owns, but no query ever asks it for them.
//
// Reads go to the preferred (first) replica, and an error or an open
// circuit fails over to the next replica at once, before any retry
// backoff, so a dead backend degrades latency, not availability.
// Updates ack only after every live replica acked; a replica that
// provably missed an op is taken out of the read set and journaled, and
// is caught up (journal replay, or a full re-seed from a peer snapshot
// when the miss was ambiguous) before it rejoins. See replication.go
// for the ack/journal argument and drain.go for planned handoff.
//
// # Live shard migration
//
// Migrate moves [lo, hi) from the replica set owning it to a joining
// node in four steps: capture the range from a live replica (GET
// /v1/snapshot/range, pending updates ride along in the stream),
// restore it into the joiner (POST /v1/restore — the joiner starts
// warm, with every crack the donor earned), swap the routing table
// atomically, then shrink the donors (POST /v1/retain). Updates are
// blocked for the whole window (updMu); queries keep flowing throughout
// — the donors still hold the moving range until the swap, and clamping
// hides whatever they hold after. Replica bootstrap (AddReplica) is the
// same protocol minus the shrink: restore without retain. Migrate,
// AddReplica, a re-seed and a drain all copy data through one routine,
// transfer (capture → merge → restore), and publish their tables through
// one more, install.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/client"
	"repro/internal/intervals"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Config configures a Coordinator.
type Config struct {
	// Client is the per-backend resilience policy (timeouts, retries,
	// circuit breaker).
	Client client.Config
	// HealthInterval is the background health-probe period (default
	// 500ms).
	HealthInterval time.Duration
	// Replicas, when > 0, requires every shard range to be covered by at
	// least this many backends at boot (backends reporting the same
	// shard range form a replica set). 0 accepts any layout, including
	// unreplicated.
	Replicas int
	// AuthToken, when non-empty, requires the coordinator's own clients
	// to present "Authorization: Bearer <token>" (GET /healthz stays
	// open): the coordinator guards its listener with server.BearerAuth,
	// the same check a single server and the catalog use.
	AuthToken string
}

func (cfg Config) withDefaults() Config {
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 500 * time.Millisecond
	}
	return cfg
}

// node is one backend plus the coordinator's live view of it.
type node struct {
	*client.Backend
	healthy atomic.Bool
	// last successful readiness payload (nil before the first probe).
	last atomic.Pointer[server.HealthResponse]

	// out marks a replica that missed an acknowledged update: it leaves
	// the read set (its state is stale) until catch-up replays what it
	// missed. Set under jmu together with the journal append.
	out atomic.Bool
	// resync marks a replica whose journal is no longer sufficient — an
	// ambiguous failure (it may have half-applied an op) or journal
	// overflow. Catch-up must re-seed it from a peer snapshot.
	resync atomic.Bool
	// drained marks a node whose ranges were handed off; it never
	// rejoins its old routes (re-admit it via AddReplica).
	drained atomic.Bool
	// recovering dedupes the health loop's automatic catch-up spawns.
	recovering atomic.Bool

	// jmu guards journal: the ops this replica provably missed, in ack
	// order, replayed by catch-up before the replica rejoins reads.
	jmu     sync.Mutex
	journal []journalOp
}

// live reports whether the node is part of its routes' serving sets —
// neither taken out for missing updates nor drained. Probe health is
// deliberately not consulted here: the data path discovers trouble
// inline (circuits, failover) and a slow probe must never drop a
// serving replica.
func (n *node) live() bool { return !n.out.Load() && !n.drained.Load() }

// route is one routing-table entry: the nodes in replicas each hold a
// copy of the values in [lo, hi). The first replica is preferred for
// reads; the rest are failover targets.
type route struct {
	lo, hi   int64
	replicas []*node
}

func (rt *route) has(n *node) bool {
	for _, r := range rt.replicas {
		if r == n {
			return true
		}
	}
	return false
}

// liveReplicas returns the replicas currently serving reads, preferred
// first.
func (rt *route) liveReplicas() []*node {
	out := make([]*node, 0, len(rt.replicas))
	for _, n := range rt.replicas {
		if n.live() {
			out = append(out, n)
		}
	}
	return out
}

// readReplicas returns the replicas a read may ask, preferred first: the
// live ones or, when none is live, the drained ones that missed no
// update. A drained node still holds the ranges it handed off, so a read
// that loaded the routing table just before a drain's swap is answered.
func (rt *route) readReplicas() []*node {
	if live := rt.liveReplicas(); len(live) > 0 {
		return live
	}
	var out []*node
	for _, n := range rt.replicas {
		if !n.out.Load() {
			out = append(out, n)
		}
	}
	return out
}

// Coordinator scatter-gathers the v1 API across the routing table. Build
// with New, mount Handler, stop with Close.
type Coordinator struct {
	cfg Config

	// routes is the atomic routing table; always sorted ascending and
	// tiling the full int64 domain.
	routes atomic.Pointer[[]route]

	// nodesMu guards nodes, the set of every backend ever admitted
	// (routed or not — a fully-drained donor stays visible in metrics).
	nodesMu sync.Mutex
	nodes   []*node

	// updMu serializes updates against migrations and replica catch-up:
	// updates take the read side; a migration's capture-swap-shrink
	// window, a drain and a catch-up's replay each take the write side.
	// Queries take neither — they are safe throughout.
	updMu sync.RWMutex
	// migMu serializes migrations, drains and catch-ups themselves.
	migMu sync.Mutex

	// rows/permutation describe the cluster dataset (derived at New from
	// the backends' readiness payloads; migration never changes totals).
	rows        int64
	permutation bool
	algorithm   string

	handler      http.Handler // the mux behind server.BearerAuth
	queries      atomic.Int64
	migrations   atomic.Int64
	replications atomic.Int64
	drains       atomic.Int64
	catchups     atomic.Int64
	stop         context.CancelFunc
	loopDone     chan struct{}
}

// New builds a Coordinator over the backends at urls, probing each one's
// /healthz readiness payload to learn the shard range it owns. Backends
// reporting the same shard range form a replica set; the distinct
// ranges must be non-overlapping and contiguous after sorting, and the
// first and last are extended to the domain edges. Probes retry until
// ctx expires, so backends may still be booting when New is called.
func New(ctx context.Context, urls []string, cfg Config) (*Coordinator, error) {
	if len(urls) == 0 {
		return nil, errors.New("cluster: no backends")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{cfg: cfg}
	type probed struct {
		n *node
		h server.HealthResponse
	}
	ps := make([]probed, len(urls))
	var wg sync.WaitGroup
	errs := make([]error, len(urls))
	for i, url := range urls {
		n := &node{Backend: client.New(url, cfg.Client)}
		c.nodes = append(c.nodes, n)
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			h, err := probeUntilReady(ctx, n)
			ps[i] = probed{n: n, h: h}
			errs[i] = err
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: backend %s: %w", urls[i], err)
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].h.ShardLo != ps[j].h.ShardLo {
			return ps[i].h.ShardLo < ps[j].h.ShardLo
		}
		if ps[i].h.ShardHi != ps[j].h.ShardHi {
			return ps[i].h.ShardHi < ps[j].h.ShardHi
		}
		return ps[i].n.URL() < ps[j].n.URL()
	})
	// Group backends reporting the same range into replica sets.
	var routes []route
	var total int64
	for i := 0; i < len(ps); {
		lo, hi := ps[i].h.ShardLo, ps[i].h.ShardHi
		j := i
		var reps []*node
		for ; j < len(ps) && ps[j].h.ShardLo == lo && ps[j].h.ShardHi == hi; j++ {
			if ps[j].h.Rows != ps[i].h.Rows {
				return nil, fmt.Errorf("cluster: replicas of [%d, %d) disagree on rows: %s has %d, %s has %d",
					lo, hi, ps[i].n.URL(), ps[i].h.Rows, ps[j].n.URL(), ps[j].h.Rows)
			}
			reps = append(reps, ps[j].n)
		}
		if len(routes) > 0 && lo != routes[len(routes)-1].hi {
			return nil, fmt.Errorf("cluster: shard ranges not contiguous: previous range ends at %d, %s starts at %d",
				routes[len(routes)-1].hi, reps[0].URL(), lo)
		}
		if cfg.Replicas > 0 && len(reps) < cfg.Replicas {
			return nil, fmt.Errorf("cluster: range [%d, %d) has %d replica(s), need %d",
				lo, hi, len(reps), cfg.Replicas)
		}
		routes = append(routes, route{lo: lo, hi: hi, replicas: reps})
		total += ps[i].h.Rows
		i = j
	}
	for _, p := range ps {
		p.n.healthy.Store(true)
		h := p.h
		p.n.last.Store(&h)
	}
	// The cluster data is one permutation of [0, total) exactly when each
	// range holds every value of its span clamped to [0, total): a
	// permutation has each value once, so the count must equal the
	// clamped range width.
	perm := true
	for _, rt := range routes {
		if h := rt.replicas[0].last.Load(); h.Rows != rangeWidth(rt.lo, rt.hi, total) {
			perm = false
		}
	}
	extendToDomain(routes)
	if err := validateRoutes(routes); err != nil {
		return nil, err
	}
	c.routes.Store(&routes)
	c.rows = total
	c.permutation = perm
	if st, err := ps[0].n.Stats(ctx); err == nil {
		c.algorithm = st.Algorithm
	}

	loopCtx, stop := context.WithCancel(context.Background())
	c.stop = stop
	c.loopDone = make(chan struct{})
	go c.healthLoop(loopCtx)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", c.handleQuery)
	mux.HandleFunc("POST /v1/insert", func(w http.ResponseWriter, r *http.Request) { c.handleUpdate(w, r, true) })
	mux.HandleFunc("POST /v1/delete", func(w http.ResponseWriter, r *http.Request) { c.handleUpdate(w, r, false) })
	mux.HandleFunc("POST /v1/migrate", c.handleMigrate)
	mux.HandleFunc("POST /v1/replicate", c.handleReplicate)
	mux.HandleFunc("POST /v1/drain", c.handleDrain)
	mux.HandleFunc("POST /v1/recover", c.handleRecover)
	mux.HandleFunc("GET /v1/stats", c.handleStats)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /debug/metrics", c.handleMetrics)
	c.handler = server.BearerAuth(cfg.AuthToken, mux)
	return c, nil
}

// probeUntilReady polls a backend's health endpoint until it answers or
// ctx expires.
func probeUntilReady(ctx context.Context, n *node) (server.HealthResponse, error) {
	var lastErr error
	for {
		h, err := n.Health(ctx)
		if err == nil {
			return h, nil
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return server.HealthResponse{}, fmt.Errorf("never became ready: %w", lastErr)
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// rangeWidth returns the width of [lo, hi) clamped to [0, n).
func rangeWidth(lo, hi, n int64) int64 {
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return 0
	}
	return hi - lo
}

// extendToDomain stretches the first and last routing entries to the
// int64 domain edges, so every value routes somewhere.
func extendToDomain(routes []route) {
	routes[0].lo = minInt64
	routes[len(routes)-1].hi = maxInt64
}

// validateRoutes checks the invariants every routing-table swap must
// preserve: non-empty, ascending, contiguous, tiling the full int64
// domain, and every range keeping at least one live replica. Swaps that
// would violate any of these are refused — a bad drain plan must fail
// the drain, not the cluster.
func validateRoutes(routes []route) error {
	if len(routes) == 0 {
		return errors.New("cluster: empty routing table")
	}
	if routes[0].lo != minInt64 {
		return fmt.Errorf("cluster: routing table starts at %d, not the domain edge", routes[0].lo)
	}
	if routes[len(routes)-1].hi != maxInt64 {
		return fmt.Errorf("cluster: routing table ends at %d, not the domain edge", routes[len(routes)-1].hi)
	}
	for i := range routes {
		rt := &routes[i]
		if rt.lo >= rt.hi {
			return fmt.Errorf("cluster: empty route [%d, %d)", rt.lo, rt.hi)
		}
		if i > 0 && rt.lo != routes[i-1].hi {
			return fmt.Errorf("cluster: routes not contiguous at %d", rt.lo)
		}
		if len(rt.replicas) == 0 {
			return fmt.Errorf("cluster: range [%d, %d) has no replicas", rt.lo, rt.hi)
		}
		if len(rt.liveReplicas()) == 0 {
			return fmt.Errorf("cluster: range [%d, %d) has no live replicas", rt.lo, rt.hi)
		}
	}
	return nil
}

const (
	minInt64 = int64(-1 << 63)
	maxInt64 = int64(1<<63 - 1)
)

// Close stops the health loop. It does not touch the backends.
func (c *Coordinator) Close() {
	c.stop()
	<-c.loopDone
}

// Handler returns the coordinator's HTTP handler: its mux behind
// server.BearerAuth with Config.AuthToken.
func (c *Coordinator) Handler() http.Handler { return c.handler }

// Rows returns the cluster-wide row count.
func (c *Coordinator) Rows() int64 { return c.rows }

// healthLoop probes every node's readiness payload on a fixed cadence,
// maintaining the healthy flags /healthz and /debug/metrics report, and
// kicks off catch-up for an out replica as soon as it answers probes
// again. The data path does not consult the flags — circuits and
// retries handle trouble inline — so a slow probe can never take a
// serving backend out of rotation.
func (c *Coordinator) healthLoop(ctx context.Context) {
	defer close(c.loopDone)
	tick := time.NewTicker(c.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		c.nodesMu.Lock()
		nodes := append([]*node(nil), c.nodes...)
		c.nodesMu.Unlock()
		for _, n := range nodes {
			pctx, cancel := context.WithTimeout(ctx, c.cfg.HealthInterval)
			h, err := n.Health(pctx)
			cancel()
			if err != nil {
				n.healthy.Store(false)
				continue
			}
			n.healthy.Store(true)
			n.last.Store(&h)
			// A reachable out replica is ready to be caught up; do it in
			// the background so the probe cadence is unaffected.
			if n.out.Load() && !n.drained.Load() && n.recovering.CompareAndSwap(false, true) {
				go func(n *node) { _ = c.catchUp(ctx, n) }(n)
			}
		}
	}
}

// itemRanges normalizes one wire query item to disjoint ascending
// half-open ranges (the same semantics the crackdb predicate algebra
// gives a single server).
func itemRanges(it server.QueryItem) ([][2]int64, error) {
	if it.Col != "" {
		return nil, errors.New("cluster serves a single column; drop \"col\"")
	}
	if len(it.Or) == 0 {
		return [][2]int64{{it.Lo, it.Hi}}, nil
	}
	if it.Lo != 0 || it.Hi != 0 {
		return nil, errors.New("query: give either lo/hi or \"or\", not both")
	}
	set := &intervals.Set{}
	for _, r := range it.Or {
		if r.Lo < r.Hi {
			set.Add(r.Lo, r.Hi)
		}
	}
	var rs [][2]int64
	set.Each(func(lo, hi int64) bool {
		rs = append(rs, [2]int64{lo, hi})
		return true
	})
	if rs == nil {
		rs = [][2]int64{{0, 0}} // all-empty Or: one empty range
	}
	return rs, nil
}

// span is one clamped sub-request of a scatter: route ri answers
// [lo, hi).
type span struct {
	ri     int
	lo, hi int64
}

// planSpans clamps [lo, hi) against the routing table: one span per
// intersecting route, ascending and disjoint, unioning back to exactly
// the requested range.
func planSpans(routes []route, lo, hi int64) []span {
	var spans []span
	for i := range routes {
		slo, shi := lo, hi
		if slo < routes[i].lo {
			slo = routes[i].lo
		}
		if shi > routes[i].hi {
			shi = routes[i].hi
		}
		if slo < shi {
			spans = append(spans, span{ri: i, lo: slo, hi: shi})
		}
	}
	return spans
}

// scatter answers one half-open range across the routing table: one
// clamped sub-request per intersecting range, each answered by that
// range's replica set (preferred replica first, failover behind it),
// gathered in ascending route (= value-range) order so multi-range
// answers merge deterministically.
func (c *Coordinator) scatter(ctx context.Context, lo, hi int64, aggregate bool) (server.QueryResult, error) {
	var out server.QueryResult
	if lo >= hi {
		return out, nil
	}
	routes := *c.routes.Load()
	spans := planSpans(routes, lo, hi)
	if len(spans) == 0 {
		return out, nil
	}
	results := make([]server.QueryResult, len(spans))
	errs := make([]error, len(spans))
	run := func(i int) {
		rt := &routes[spans[i].ri]
		live := rt.readReplicas()
		if len(live) == 0 {
			errs[i] = &rangeUnavailableError{lo: rt.lo, hi: rt.hi, cause: errors.New("no live replicas")}
			return
		}
		bs := make([]*client.Backend, len(live))
		for j, n := range live {
			bs[j] = n.Backend
		}
		req := server.QueryRequest{
			QueryItem: server.QueryItem{Lo: spans[i].lo, Hi: spans[i].hi},
			Aggregate: aggregate,
		}
		resp, err := client.QueryAcross(ctx, bs, req)
		if err != nil {
			var apiErr *server.APIError
			if errors.As(err, &apiErr) && apiErr.Status < 500 {
				errs[i] = err // the request itself is wrong; not an availability problem
				return
			}
			errs[i] = &rangeUnavailableError{lo: rt.lo, hi: rt.hi, cause: err}
			return
		}
		if len(resp.Results) != 1 {
			errs[i] = fmt.Errorf("range [%d, %d): %d results for one sub-range", rt.lo, rt.hi, len(resp.Results))
			return
		}
		if r := resp.Results[0]; !aggregate && r.Count != len(r.Values) {
			errs[i] = fmt.Errorf("range [%d, %d): count %d for %d values", rt.lo, rt.hi, r.Count, len(r.Values))
			return
		}
		results[i] = resp.Results[0]
	}
	if len(spans) == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for i := 1; i < len(spans); i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); run(i) }(i)
		}
		run(0)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	// Gather in route order: range i's values all precede range i+1's,
	// so a split-range answer concatenates into one deterministic
	// ascending-by-shard sequence.
	return gather(results), nil
}

// gather concatenates parts in order, summing counts and sums. A lone
// part is handed through as is: its values are a fresh slice decoded for
// this request, so a query answered by one route copies no values.
func gather(parts []server.QueryResult) server.QueryResult {
	if len(parts) == 1 {
		return parts[0]
	}
	var out server.QueryResult
	n := 0
	for _, p := range parts {
		n += len(p.Values)
	}
	if n > 0 {
		out.Values = make([]int64, 0, n)
	}
	for _, p := range parts {
		out.Count += p.Count
		out.Sum += p.Sum
		out.Values = append(out.Values, p.Values...)
	}
	return out
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req server.QueryRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	items, err := req.Items()
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	resp := server.QueryResponse{Results: make([]server.QueryResult, 0, len(items))}
	for _, it := range items {
		rs, err := itemRanges(it)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		parts := make([]server.QueryResult, len(rs))
		for i, rg := range rs {
			if parts[i], err = c.scatter(r.Context(), rg[0], rg[1], req.Aggregate); err != nil {
				writeBackendError(w, err)
				return
			}
		}
		resp.Results = append(resp.Results, gather(parts))
	}
	c.queries.Add(int64(len(items)))
	server.WriteQueryResponse(w, resp)
}

// routeIndexFor returns the index of the routing entry owning value v.
func routeIndexFor(routes []route, v int64) int {
	i := sort.Search(len(routes), func(i int) bool { return v < routes[i].hi })
	if i == len(routes) {
		i = len(routes) - 1 // v == MaxInt64: the top entry absorbs its bound
	}
	return i
}

func (c *Coordinator) handleUpdate(w http.ResponseWriter, r *http.Request, insert bool) {
	var req server.UpdateRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	values, err := req.List()
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	// Updates hold the read side for their whole span so a migration's
	// capture-swap window — and a recovering replica's journal replay —
	// can exclude them wholesale.
	c.updMu.RLock()
	defer c.updMu.RUnlock()
	routes := *c.routes.Load()
	byRoute := map[int][]int64{}
	for _, v := range values {
		ri := routeIndexFor(routes, v)
		byRoute[ri] = append(byRoute[ri], v)
	}
	pending := 0
	for ri, vals := range byRoute {
		p, err := c.applyReplicated(r.Context(), &routes[ri], vals, insert)
		if err != nil {
			writeBackendError(w, err)
			return
		}
		pending += p
	}
	server.WriteJSON(w, http.StatusOK, server.UpdateResponse{Pending: pending, Accepted: len(values)})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	routes := *c.routes.Load()
	resp := server.StatsResponse{
		Name: fmt.Sprintf("cluster-%d(%s)", len(routes), c.algorithm),
		Mode: fmt.Sprintf("cluster-%d", len(routes)),
		Info: server.Info{
			Rows: c.rows, Algorithm: c.algorithm, Permutation: c.permutation,
		},
		QueriesServed: c.queries.Load(),
	}
	var maxPiece int
	// One representative per range: a node holding several ranges
	// reports them all in one stats payload, so a range one of whose
	// replicas was already counted is covered. Within a range, fail over
	// across replicas.
	seen := map[*node]bool{}
	for i := range routes {
		rt := &routes[i]
		covered := false
		for _, n := range rt.replicas {
			if seen[n] {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		var lastErr error
		done := false
		for _, n := range rt.readReplicas() {
			st, err := n.Stats(r.Context())
			if err != nil {
				lastErr = fmt.Errorf("backend %s: %w", n.URL(), err)
				continue
			}
			seen[n] = true
			resp.PendingUpdates += st.PendingUpdates
			resp.Index.Queries += st.Index.Queries
			resp.Index.Touched += st.Index.Touched
			resp.Index.Swaps += st.Index.Swaps
			resp.Index.Cracks += st.Index.Cracks
			resp.Index.Pieces += st.Index.Pieces
			if st.Pieces != nil && st.Pieces.MaxSize > maxPiece {
				maxPiece = st.Pieces.MaxSize
			}
			done = true
			break
		}
		if !done {
			if lastErr == nil {
				lastErr = errors.New("no live replicas")
			}
			writeBackendError(w, &rangeUnavailableError{lo: rt.lo, hi: rt.hi, cause: lastErr})
			return
		}
	}
	if resp.Index.Pieces > 0 && c.rows > 0 {
		resp.Pieces = &stats.PieceStats{
			N: int(c.rows), Pieces: resp.Index.Pieces, MaxSize: maxPiece,
			Skew: float64(maxPiece) / float64(c.rows),
		}
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// ClusterHealth is the coordinator's /healthz body: overall status
// ("ok" when every routed backend is live and healthy and every range
// has its full replica set, "degraded" otherwise), the per-backend view
// and the per-range replica counts.
type ClusterHealth struct {
	Status   string          `json:"status"`
	Rows     int64           `json:"rows"`
	Backends []BackendHealth `json:"backends"`
	Ranges   []RangeHealth   `json:"ranges"`
}

// BackendHealth is one backend's row in the coordinator's /healthz.
type BackendHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Routed  bool   `json:"routed"`
	ShardLo int64  `json:"shard_lo"`
	ShardHi int64  `json:"shard_hi"`
	Pieces  int    `json:"pieces"`
	// Restored reports the backend's own restored-vs-cold flag (true
	// after a warm start or a migration restore).
	Restored bool   `json:"restored"`
	Circuit  string `json:"circuit"`
	// Out is true while the replica is excluded from reads because it
	// missed an acknowledged update and has not been caught up yet.
	Out bool `json:"out,omitempty"`
	// Draining is true once the node's ranges were handed off.
	Draining bool `json:"draining,omitempty"`
	// JournalOps is the number of missed ops queued for catch-up replay.
	JournalOps int `json:"journal_ops,omitempty"`
}

// RangeHealth is one routing range's replica census.
type RangeHealth struct {
	Lo       int64 `json:"lo"`
	Hi       int64 `json:"hi"`
	Replicas int   `json:"replicas"`
	Live     int   `json:"live"`
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	routes := *c.routes.Load()
	routed := map[*node][2]int64{}
	for i := range routes {
		for _, n := range routes[i].replicas {
			if _, ok := routed[n]; !ok {
				routed[n] = [2]int64{routes[i].lo, routes[i].hi}
			}
		}
	}
	c.nodesMu.Lock()
	nodes := append([]*node(nil), c.nodes...)
	c.nodesMu.Unlock()
	resp := ClusterHealth{Status: "ok", Rows: c.rows}
	for _, n := range nodes {
		bh := BackendHealth{
			URL: n.URL(), Healthy: n.healthy.Load(),
			Out: n.out.Load(), Draining: n.drained.Load(), JournalOps: n.journalLen(),
		}
		if rg, ok := routed[n]; ok {
			bh.Routed = true
			bh.ShardLo, bh.ShardHi = rg[0], rg[1]
			if !bh.Healthy || bh.Out {
				resp.Status = "degraded"
			}
		}
		if h := n.last.Load(); h != nil {
			bh.Pieces = h.Pieces
			bh.Restored = h.Restored
		}
		bh.Circuit, _, _ = n.CircuitState()
		resp.Backends = append(resp.Backends, bh)
	}
	for i := range routes {
		rt := &routes[i]
		live := len(rt.liveReplicas())
		resp.Ranges = append(resp.Ranges, RangeHealth{
			Lo: rt.lo, Hi: rt.hi, Replicas: len(rt.replicas), Live: live,
		})
		if live < len(rt.replicas) {
			resp.Status = "degraded"
		}
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	routes := *c.routes.Load()
	routed := map[*node]bool{}
	for i := range routes {
		for _, n := range routes[i].replicas {
			routed[n] = true
		}
	}
	c.nodesMu.Lock()
	nodes := append([]*node(nil), c.nodes...)
	c.nodesMu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP crackcluster_queries_total Queries answered by the coordinator.\n")
	fmt.Fprintf(w, "# TYPE crackcluster_queries_total counter\n")
	fmt.Fprintf(w, "crackcluster_queries_total %d\n", c.queries.Load())
	fmt.Fprintf(w, "# HELP crackcluster_migrations_total Completed shard migrations.\n")
	fmt.Fprintf(w, "# TYPE crackcluster_migrations_total counter\n")
	fmt.Fprintf(w, "crackcluster_migrations_total %d\n", c.migrations.Load())
	fmt.Fprintf(w, "# HELP crackcluster_replications_total Completed replica bootstraps.\n")
	fmt.Fprintf(w, "# TYPE crackcluster_replications_total counter\n")
	fmt.Fprintf(w, "crackcluster_replications_total %d\n", c.replications.Load())
	fmt.Fprintf(w, "# HELP crackcluster_drains_total Completed node drains.\n")
	fmt.Fprintf(w, "# TYPE crackcluster_drains_total counter\n")
	fmt.Fprintf(w, "crackcluster_drains_total %d\n", c.drains.Load())
	fmt.Fprintf(w, "# HELP crackcluster_catchups_total Replicas caught up and returned to the read set.\n")
	fmt.Fprintf(w, "# TYPE crackcluster_catchups_total counter\n")
	fmt.Fprintf(w, "crackcluster_catchups_total %d\n", c.catchups.Load())
	fmt.Fprintf(w, "# HELP crackcluster_backend_up Backend health as seen by the probe loop.\n")
	fmt.Fprintf(w, "# TYPE crackcluster_backend_up gauge\n")
	for _, n := range nodes {
		up := 0
		if n.healthy.Load() {
			up = 1
		}
		fmt.Fprintf(w, "crackcluster_backend_up{backend=%q,routed=%q} %d\n",
			n.URL(), fmt.Sprint(routed[n]), up)
	}
	fmt.Fprintf(w, "# HELP crackcluster_replica_out Replica excluded from reads pending catch-up.\n")
	fmt.Fprintf(w, "# TYPE crackcluster_replica_out gauge\n")
	for _, n := range nodes {
		out := 0
		if n.out.Load() {
			out = 1
		}
		fmt.Fprintf(w, "crackcluster_replica_out{backend=%q} %d\n", n.URL(), out)
	}
	fmt.Fprintf(w, "# HELP crackcluster_journal_ops Missed ops queued for catch-up replay.\n")
	fmt.Fprintf(w, "# TYPE crackcluster_journal_ops gauge\n")
	for _, n := range nodes {
		fmt.Fprintf(w, "crackcluster_journal_ops{backend=%q} %d\n", n.URL(), n.journalLen())
	}
	fmt.Fprintf(w, "# HELP crackcluster_backend_circuit Per-backend circuit state (1 in exactly one state).\n")
	fmt.Fprintf(w, "# TYPE crackcluster_backend_circuit gauge\n")
	for _, n := range nodes {
		state, fails, trips := n.CircuitState()
		for _, s := range []string{"closed", "open", "half-open"} {
			v := 0
			if s == state {
				v = 1
			}
			fmt.Fprintf(w, "crackcluster_backend_circuit{backend=%q,state=%q} %d\n", n.URL(), s, v)
		}
		fmt.Fprintf(w, "crackcluster_backend_consecutive_failures{backend=%q} %d\n", n.URL(), fails)
		fmt.Fprintf(w, "crackcluster_backend_circuit_trips_total{backend=%q} %d\n", n.URL(), trips)
		fmt.Fprintf(w, "crackcluster_backend_retries_total{backend=%q} %d\n", n.URL(), n.Retries())
	}
}

// MigrateRequest is the body of POST /v1/migrate: move the value range
// [Lo, Hi) from the replica set owning it to the (typically fresh and
// empty) node at To. The range must touch an edge of the owning range —
// moving an interior slice would leave the donors owning two disjoint
// ranges, which one routing entry cannot express.
type MigrateRequest struct {
	To string `json:"to"`
	Lo int64  `json:"lo"`
	Hi int64  `json:"hi"`
}

// MigrateResponse reports a completed migration.
type MigrateResponse struct {
	From string `json:"from"`
	To   string `json:"to"`
	Lo   int64  `json:"lo"`
	Hi   int64  `json:"hi"`
	// Rows/Pieces/Pending describe the state the joiner restored —
	// non-zero Pieces means it starts warm, resuming the donor's earned
	// refinement instead of cracking from scratch.
	Rows      int   `json:"rows"`
	Pieces    int   `json:"pieces"`
	Pending   int   `json:"pending"`
	ElapsedMS int64 `json:"elapsed_ms"`
	// RetainFailed flags a donor that kept a stale copy of the moved
	// range (its shrink step failed). Service stays correct — clamped
	// routing never exposes the stale copy — but the donor holds extra
	// memory until a retry or restart.
	RetainFailed bool `json:"retain_failed,omitempty"`
}

// Migrate moves [lo, hi) to the node at toURL. See MigrateRequest. The
// moved range starts unreplicated (the joiner is its only copy); use
// AddReplica to restore redundancy.
func (c *Coordinator) Migrate(ctx context.Context, toURL string, lo, hi int64) (MigrateResponse, error) {
	if lo >= hi {
		return MigrateResponse{}, errors.New("cluster: migrate: need lo < hi")
	}
	c.migMu.Lock()
	defer c.migMu.Unlock()
	start := time.Now()

	routes := *c.routes.Load()
	di := -1
	for i, rt := range routes {
		if lo >= rt.lo && (hi <= rt.hi || (rt.hi == maxInt64 && hi == maxInt64)) {
			di = i
			break
		}
	}
	if di < 0 {
		return MigrateResponse{}, fmt.Errorf("cluster: migrate: [%d, %d) not owned by a single range", lo, hi)
	}
	donor := routes[di]
	if lo != donor.lo && hi != donor.hi {
		return MigrateResponse{}, fmt.Errorf(
			"cluster: migrate: [%d, %d) is interior to the owner's [%d, %d); move a range touching an edge", lo, hi, donor.lo, donor.hi)
	}
	src := firstServing(donor.replicas)
	if src == nil {
		return MigrateResponse{}, fmt.Errorf("cluster: migrate: no live replica of [%d, %d) to capture from", donor.lo, donor.hi)
	}

	joiner := c.admitNode(toURL)
	if _, err := probeUntilReady(ctx, joiner); err != nil {
		return MigrateResponse{}, fmt.Errorf("cluster: joiner %s: %w", toURL, err)
	}

	// Block updates for the whole capture-restore-swap-shrink window:
	// an update routed to the donors after the capture would be lost
	// when they shrink. Queries keep flowing — the donors serve the
	// moving range until the swap, the joiner after.
	c.updMu.Lock()
	defer c.updMu.Unlock()

	restored, err := c.transfer(ctx, joiner, []rangeCopy{{src: src, lo: lo, hi: hi}})
	if err != nil {
		return MigrateResponse{}, fmt.Errorf("cluster: %w", err)
	}

	// Swap the routing table: the joiner takes [lo, hi) alone, the
	// donors keep the rest of their range with the full replica set
	// (nothing, when the whole range moved).
	next := make([]route, 0, len(routes)+1)
	next = append(next, routes[:di]...)
	if donor.lo < lo {
		next = append(next, route{lo: donor.lo, hi: lo, replicas: donor.replicas})
	}
	next = append(next, route{lo: lo, hi: hi, replicas: []*node{joiner}})
	if hi < donor.hi {
		next = append(next, route{lo: hi, hi: donor.hi, replicas: donor.replicas})
	}
	next = append(next, routes[di+1:]...)
	if err := c.install(ctx, next, joiner); err != nil {
		return MigrateResponse{}, err
	}

	resp := MigrateResponse{
		From: src.URL(), To: toURL, Lo: lo, Hi: hi,
		Rows: restored.Rows, Pieces: restored.Pieces, Pending: restored.Pending,
	}
	// Shrink every donor replica to what it still owns. A failure here
	// is survivable (see RetainFailed) — the routing table already hides
	// the moved range.
	if donor.lo < lo || hi < donor.hi {
		keepLo, keepHi := donor.lo, lo
		if lo == donor.lo {
			keepLo, keepHi = hi, donor.hi
		}
		for _, n := range donor.replicas {
			if _, err := n.Retain(ctx, keepLo, keepHi); err != nil {
				resp.RetainFailed = true
			}
		}
	}
	c.migrations.Add(1)
	resp.ElapsedMS = time.Since(start).Milliseconds()
	return resp, nil
}

// firstServing returns the first replica that is both live (in the read
// set) and probe-healthy — the node to capture a snapshot from. Probe
// health matters here, unlike on the data path: a capture source is a
// choice the coordinator makes up front, not a request it can fail over
// mid-flight.
func firstServing(replicas []*node) *node {
	for _, n := range replicas {
		if n.live() && n.healthy.Load() {
			return n
		}
	}
	return nil
}

// rangeCopy is one value range to copy into a node, and the node to
// capture it from.
type rangeCopy struct {
	src    *node
	lo, hi int64
}

// transfer is the one routine that moves data between nodes — migrate,
// replicate, re-seed and drain all call it. It captures every range from
// its source (GET /v1/snapshot/range), merges several captures into one
// manifest (POST /v1/restore replaces a node's whole state), passes a
// single capture through unchanged, and restores the result into dst.
// The caller holds updMu, so the captures are exactly the acked history.
func (c *Coordinator) transfer(ctx context.Context, dst *node, copies []rangeCopy) (server.RestoreResponse, error) {
	sort.Slice(copies, func(i, j int) bool { return copies[i].lo < copies[j].lo })
	streams := make([][]byte, len(copies))
	for i, rc := range copies {
		var err error
		if streams[i], err = rc.src.SnapshotRange(ctx, rc.lo, rc.hi); err != nil {
			return server.RestoreResponse{}, fmt.Errorf("capturing [%d, %d) from %s: %w", rc.lo, rc.hi, rc.src.URL(), err)
		}
	}
	stream := streams[0]
	if len(copies) > 1 {
		var err error
		if stream, err = mergeStreams(copies, streams); err != nil {
			return server.RestoreResponse{}, err
		}
	}
	restored, err := dst.RestoreSnapshot(ctx, stream, copies[0].lo, copies[len(copies)-1].hi)
	if err != nil {
		return server.RestoreResponse{}, fmt.Errorf("restoring into %s: %w", dst.URL(), err)
	}
	return restored, nil
}

// mergeStreams re-tiles the captured streams of ascending, disjoint
// ranges into one whole-domain manifest. The parts are widened to tile
// the full domain — safe because each stream's values and cracks lie
// strictly within its actual range, and disjoint sorted ranges nest in
// the widened bounds; the restore request carries the actual range.
func mergeStreams(copies []rangeCopy, streams [][]byte) ([]byte, error) {
	parts := make(snapshot.Parts, 0, len(copies))
	for i, rc := range copies {
		pm, err := snapshot.ReadManifest(bytes.NewReader(streams[i]))
		if err != nil {
			return nil, fmt.Errorf("decoding captured [%d, %d): %w", rc.lo, rc.hi, err)
		}
		cp, ok := pm.Column("")
		if !ok {
			return nil, fmt.Errorf("captured [%d, %d) is not a single-column stream", rc.lo, rc.hi)
		}
		wlo, whi := minInt64, maxInt64
		if i > 0 {
			wlo = rc.lo
		}
		if i < len(copies)-1 {
			whi = copies[i+1].lo
		}
		parts = append(parts, snapshot.ClampedPart(wlo, whi, cp.Merged()))
	}
	var buf bytes.Buffer
	if err := snapshot.WriteManifest(&buf, snapshot.Manifest{Columns: []snapshot.TableColumn{{Parts: parts}}}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// install publishes a planned routing table in which the receivers just
// got their data: it rejoins them, validates the plan, stores it, marks
// them healthy and refreshes their cached readiness (the pre-restore
// payload says cold, and /healthz should not wait a probe period to show
// the warm join). Rejoining a live node changes nothing — only an out
// node holds a journal or a resync mark — so a drain target keeps its
// state.
func (c *Coordinator) install(ctx context.Context, next []route, receivers ...*node) error {
	for _, n := range receivers {
		n.rejoin()
	}
	if err := validateRoutes(next); err != nil {
		return err
	}
	c.routes.Store(&next)
	for _, n := range receivers {
		n.healthy.Store(true)
		if h, err := n.Health(ctx); err == nil {
			n.last.Store(&h)
		}
	}
	return nil
}

// rejoin clears every exclusion flag on a node that is being given a
// fresh range (migration target or new replica): whatever it missed
// before is irrelevant, it was just seeded from a live copy.
func (n *node) rejoin() {
	n.jmu.Lock()
	n.journal = nil
	n.resync.Store(false)
	n.out.Store(false)
	n.jmu.Unlock()
	n.drained.Store(false)
}

// admitNode returns the node for url, creating and registering it if the
// coordinator has not seen it before.
func (c *Coordinator) admitNode(url string) *node {
	c.nodesMu.Lock()
	defer c.nodesMu.Unlock()
	for _, n := range c.nodes {
		if n.URL() == url {
			return n
		}
	}
	n := &node{Backend: client.New(url, c.cfg.Client)}
	c.nodes = append(c.nodes, n)
	return n
}

// findNode returns the admitted node for url, or nil.
func (c *Coordinator) findNode(url string) *node {
	c.nodesMu.Lock()
	defer c.nodesMu.Unlock()
	for _, n := range c.nodes {
		if n.URL() == url {
			return n
		}
	}
	return nil
}

func (c *Coordinator) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	if req.To == "" {
		server.WriteError(w, http.StatusBadRequest, "bad_request", "need \"to\": the joining node's URL")
		return
	}
	resp, err := c.Migrate(r.Context(), req.To, req.Lo, req.Hi)
	if err != nil {
		status, code := http.StatusBadGateway, "migration_failed"
		if strings.Contains(err.Error(), "migrate:") {
			status, code = http.StatusBadRequest, "bad_request"
		}
		server.WriteError(w, status, code, err.Error())
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// rangeUnavailableError reports that a value range currently has no
// replica able to answer: every live replica failed, or none are live.
// It maps to a 503 with code "unavailable_range" and a Retry-After —
// the request is fine, the cluster needs a moment (a kill is being
// failed over, a catch-up is running).
type rangeUnavailableError struct {
	lo, hi int64
	cause  error
}

func (e *rangeUnavailableError) Error() string {
	return fmt.Sprintf("range [%d, %d) unavailable: %v", e.lo, e.hi, e.cause)
}

func (e *rangeUnavailableError) Unwrap() error { return e.cause }

// writeBackendError maps a scatter/update failure: a backend's own API
// error passes through with its status, an unavailable range becomes a
// machine-readable 503 with Retry-After (mirroring the server's 429
// convention — same flat {"error","code"} body, same header), and other
// transport-level trouble becomes a 502, so clients can tell "retry in
// a moment" from "the cluster is broken" from "my request is wrong".
func writeBackendError(w http.ResponseWriter, err error) {
	var unavail *rangeUnavailableError
	if errors.As(err, &unavail) {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, "unavailable_range", err.Error())
		return
	}
	var apiErr *server.APIError
	if errors.As(err, &apiErr) && apiErr.Status < 500 {
		server.WriteError(w, apiErr.Status, apiErr.Code, err.Error())
		return
	}
	server.WriteError(w, http.StatusBadGateway, "backend_unavailable", err.Error())
}
