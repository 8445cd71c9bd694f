package crackdb

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/hybrids"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/updates"
)

// Concurrency selects how a DB executes queries. It is a construction
// option (WithConcurrency), not a separate index type: the query API is
// identical in every mode, only the execution strategy changes.
type Concurrency struct {
	kind   concKind
	shards int
}

type concKind uint8

const (
	concSingle concKind = iota
	concShared
	concSharded
)

// Single serves queries on the caller's goroutine with no locking and
// zero-copy results. The DB is not safe for concurrent use in this mode;
// it is the fastest choice for single-threaded workloads (the paper's
// experimental setting).
var Single = Concurrency{kind: concSingle}

// Shared serves queries through the adaptive read/write execution layer
// (internal/exec): converged queries run in parallel under a shared lock,
// reorganizing queries serialize under an exclusive one. Results are
// owned slices. Safe for concurrent use.
var Shared = Concurrency{kind: concShared}

// Sharded value-range partitions the column into k shards, each an
// independent adaptive index behind its own executor; queries fan out to
// the intersected shards on a bounded worker pool. Safe for concurrent
// use; the highest-throughput mode for large columns under heavy traffic.
func Sharded(k int) Concurrency { return Concurrency{kind: concSharded, shards: k} }

// String names the mode ("single", "shared", "sharded-8").
func (c Concurrency) String() string {
	switch c.kind {
	case concShared:
		return "shared"
	case concSharded:
		return fmt.Sprintf("sharded-%d", c.shards)
	default:
		return "single"
	}
}

// WithConcurrency sets the DB's concurrency mode (default Single).
func WithConcurrency(c Concurrency) Option {
	return func(cfg *config) { cfg.conc = c }
}

// Aggregate is the result of QueryAggregate: the count and sum of the
// qualifying values, computed without materializing them.
type Aggregate struct {
	Count int
	Sum   int64
}

// DB is the unified front door to adaptive indexing: one handle, one
// predicate-first query API, every execution strategy. Open builds a DB
// over a single column, OpenTable over named columns; WithConcurrency
// picks Single (zero-copy, unsynchronized), Shared (adaptive read/write
// locking) or Sharded(k) (value-range partitioned fan-out) at
// construction time — no upfront decision is baked into call sites,
// matching the paper's no-upfront-decisions philosophy at the API level.
//
// All reads go through Query, QueryBatch and QueryAggregate, which honor
// context cancellation in every mode: a canceled context aborts long
// batches and shard fan-outs between ranges, never leaving the index in
// an inconsistent state. Updates (Insert, Delete) queue and merge lazily
// during query processing; Snapshot serializes the adapted physical
// state. After Close, queries, updates and snapshots fail with ErrClosed;
// the read-only accessors (Stats, PendingUpdates, Rows, Columns, Name,
// Mode) stay readable so shutdown paths can still report final counters.
type DB struct {
	mode   Concurrency
	closed atomic.Bool
	rows   int

	// Single-column backends (exactly one non-nil, per mode).
	ix *singleIndex   // Single
	x  *exec.Executor // Shared
	sh *exec.Sharded  // Sharded(k)

	// b is the group-commit batcher in front of the write path; nil
	// unless the DB was opened with WithGroupCommit.
	b *exec.Batcher

	// Table backends (exactly one non-nil for OpenTable handles).
	tbl  *table.Table  // Single
	stbl *table.Shared // Shared

	cols       []string // table column names; nil for single-column DBs
	defaultCol string   // the only column of a one-column table
}

// Open builds a DB over a single integer column using the named algorithm
// (see Algorithms). The slice is owned by the DB afterwards and will be
// reorganized in place. The zero Option set gives a Single-mode DB with
// the paper's default tuning.
func Open(values []int64, algorithm string, opts ...Option) (*DB, error) {
	cfg := applyOptions(opts)
	db := &DB{mode: cfg.conc, rows: len(values)}
	switch cfg.conc.kind {
	case concSingle:
		ix, err := buildSingle(values, algorithm, cfg)
		if err != nil {
			return nil, err
		}
		db.ix = ix
	case concShared:
		ix, err := buildSingle(values, algorithm, cfg)
		if err != nil {
			return nil, err
		}
		db.x = ix.executor()
	case concSharded:
		s, err := exec.NewSharded(values, algorithm, cfg.conc.shards, cfg.core)
		if err != nil {
			// The hybrids are known algorithms that the engine-backed
			// sharding layer cannot run; say "unsupported in this mode",
			// not "unknown".
			if errors.Is(err, ErrUnknownAlgorithm) && slices.Contains(hybrids.Specs(), algorithm) {
				return nil, fmt.Errorf("crackdb: algorithm %q in sharded mode: %w", algorithm, errors.ErrUnsupported)
			}
			return nil, fmt.Errorf("crackdb: %w", err)
		}
		db.sh = s
	}
	if err := db.attachGroupCommit(cfg); err != nil {
		return nil, err
	}
	return db, nil
}

// attachGroupCommit installs the group-commit batcher over the DB's
// executor when WithGroupCommit was given. Concurrent table modes get one
// batcher per column (writes to different columns are independent);
// Single mode — column or table — has no concurrent write path to batch
// and fails with errors.ErrUnsupported.
func (db *DB) attachGroupCommit(cfg config) error {
	if !cfg.groupOn {
		return nil
	}
	switch {
	case db.x != nil:
		db.b = exec.NewBatcher(db.x, cfg.groupOpt)
	case db.sh != nil:
		db.b = exec.NewBatcher(db.sh, cfg.groupOpt)
	case db.stbl != nil:
		db.stbl.EnableGroupCommit(cfg.groupOpt)
	default:
		return fmt.Errorf("crackdb: group commit in %s mode: %w", db.mode, errors.ErrUnsupported)
	}
	return nil
}

// OpenTable builds a DB over named, equal-length columns; selections
// crack only the column the predicate names (scope predicates with
// Predicate.On). Single mode serves queries unsynchronized; Shared gives
// every selection column its own adaptive executor, so queries on
// different columns run fully in parallel; Sharded(k) gives every column
// k range-partitioned executors, so disjoint-range queries on the same
// column proceed in parallel too.
func OpenTable(cols map[string][]int64, algorithm string, opts ...Option) (*DB, error) {
	cfg := applyOptions(opts)
	t, err := table.New(cols, algorithm, cfg.core)
	if err != nil {
		return nil, fmt.Errorf("crackdb: %w", err)
	}
	db := &DB{mode: cfg.conc, rows: t.Rows(), cols: t.Columns()}
	if len(db.cols) == 1 {
		db.defaultCol = db.cols[0]
	}
	switch cfg.conc.kind {
	case concSingle:
		db.tbl = t
	case concShared:
		db.stbl = table.NewShared(t)
	case concSharded:
		db.stbl = table.NewSharded(t, cfg.conc.shards)
	}
	if err := db.attachGroupCommit(cfg); err != nil {
		return nil, err
	}
	return db, nil
}

// Close marks the handle closed; subsequent queries, updates and
// snapshots fail with ErrClosed (read-only accessors stay readable). It
// does not free the column (the garbage collector does) — Close exists
// so pooled handles fail loudly instead of serving after their lifecycle
// ended.
func (db *DB) Close() error {
	db.closed.Store(true)
	if db.b != nil {
		// Stops the collector goroutine; writes already admitted are
		// still flushed and acknowledged before Close returns.
		db.b.Close()
	}
	if db.stbl != nil {
		db.stbl.Close() // per-column batchers, same drain-first contract
	}
	return nil // idempotent, io.Closer-style: repeat closes are not errors
}

// Mode returns the DB's concurrency mode.
func (db *DB) Mode() Concurrency { return db.mode }

// Rows returns the number of rows (tuples) the DB was opened with.
func (db *DB) Rows() int { return db.rows }

// Columns returns the table's column names in deterministic order, or nil
// for a single-column DB.
func (db *DB) Columns() []string { return append([]string(nil), db.cols...) }

// Name identifies the backing configuration (e.g. "dd1r",
// "exec(updatable(dd1r))", "sharded-8(dd1r)", "table").
func (db *DB) Name() string {
	switch {
	case db.ix != nil:
		return db.ix.name()
	case db.x != nil:
		return db.x.Name()
	case db.sh != nil:
		return db.sh.Name()
	case db.stbl != nil && db.stbl.Sharded() > 0:
		return fmt.Sprintf("table(sharded-%d)", db.stbl.Sharded())
	default:
		return "table"
	}
}

// check validates the handle and the context before any operation.
func (db *DB) check(ctx context.Context) error {
	if db.closed.Load() {
		return fmt.Errorf("crackdb: %w", ErrClosed)
	}
	return ctx.Err()
}

// resolveColumn maps a predicate to the column it queries. Single-column
// DBs take unscoped predicates only; tables require a scope unless they
// have exactly one column.
func (db *DB) resolveColumn(p Predicate) (string, error) {
	if p.conflict != "" {
		return "", fmt.Errorf("crackdb: predicate composes different columns (%s): %w", p.conflict, ErrUnknownColumn)
	}
	col := p.Column()
	if db.tbl == nil && db.stbl == nil {
		if col != "" {
			return "", fmt.Errorf("crackdb: single-column database, predicate is scoped to %q: %w", col, ErrUnknownColumn)
		}
		return "", nil
	}
	if col == "" {
		if db.defaultCol != "" {
			return db.defaultCol, nil
		}
		return "", fmt.Errorf("crackdb: predicate names no column (scope it with Predicate.On): %w", ErrUnknownColumn)
	}
	return col, nil
}

// Query answers the predicate, adapting the index as a side effect, and
// returns the qualifying values. In Single mode the Result is a zero-copy
// view valid until the next query; the concurrent modes return owned
// results (Result.Owned is then copy-free). Multi-range predicates (Or)
// are answered as a batch under the hood, in ascending range order.
func (db *DB) Query(ctx context.Context, p Predicate) (Result, error) {
	if err := db.check(ctx); err != nil {
		return Result{}, err
	}
	col, err := db.resolveColumn(p)
	if err != nil {
		return Result{}, err
	}
	// Single-range predicates (every non-Or shape) skip the range-list
	// allocation: with a converged query in Single mode this whole path is
	// allocation-free.
	if lo, hi, ok := p.singleRange(); ok {
		if lo >= hi {
			return Result{}, nil
		}
		return db.queryRange(ctx, col, lo, hi)
	}
	rs := p.rangeList()
	// Multi-range: one batch, concatenated in ascending range order.
	parts, err := db.batchRanges(ctx, col, toExecRanges(rs))
	if err != nil {
		return Result{}, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int64, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return NewResult(out), nil
}

// queryRange answers one half-open range on one column in the DB's mode.
func (db *DB) queryRange(ctx context.Context, col string, lo, hi int64) (Result, error) {
	switch {
	case db.ix != nil:
		return db.ix.query(lo, hi), nil
	case db.x != nil:
		vals, err := db.x.QueryCtx(ctx, lo, hi)
		if err != nil {
			return Result{}, err
		}
		return NewResult(vals), nil
	case db.sh != nil:
		vals, err := db.sh.QueryCtx(ctx, lo, hi)
		if err != nil {
			return Result{}, err
		}
		return NewResult(vals), nil
	case db.stbl != nil:
		vals, err := db.stbl.Query(ctx, col, lo, hi)
		if err != nil {
			return Result{}, err
		}
		return NewResult(vals), nil
	default:
		vals, err := db.tbl.Select(col, lo, hi)
		if err != nil {
			return Result{}, err
		}
		return NewResult(vals), nil
	}
}

// batchRanges answers many ranges on one column, one owned slice per
// range in input order.
func (db *DB) batchRanges(ctx context.Context, col string, ranges []exec.Range) ([][]int64, error) {
	switch {
	case db.x != nil:
		return db.x.QueryBatchCtx(ctx, ranges)
	case db.sh != nil:
		return db.sh.QueryBatchCtx(ctx, ranges)
	case db.stbl != nil:
		return db.stbl.QueryBatch(ctx, col, ranges)
	default:
		// Single mode (column or table): sequential, re-checking the
		// context between ranges so long batches cancel cleanly.
		out := make([][]int64, len(ranges))
		for i, r := range ranges {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if db.ix != nil {
				res := db.ix.query(r.Lo, r.Hi)
				out[i] = res.Materialize(make([]int64, 0, res.Count()))
				continue
			}
			vals, err := db.tbl.Select(col, r.Lo, r.Hi)
			if err != nil {
				return nil, err
			}
			out[i] = vals
		}
		return out, nil
	}
}

// QueryBatch answers many predicates, returning one Result per predicate
// in input order. Ranges sharing a column are answered under shared lock
// passes (at most two lock acquisitions per column in Shared mode); a
// canceled context aborts the batch between ranges, also mid-fan-out on a
// sharded DB, and discards the partial answers.
func (db *DB) QueryBatch(ctx context.Context, ps []Predicate) ([]Result, error) {
	if err := db.check(ctx); err != nil {
		return nil, err
	}
	results := make([]Result, len(ps))
	// Flatten predicate ranges per column, remembering which predicate
	// each flattened range answers.
	type group struct {
		ranges []exec.Range
		owner  []int
	}
	order := make([]string, 0, 1) // columns in first-seen order
	groups := make(map[string]*group, 1)
	nRanges := make([]int, len(ps))
	for pi, p := range ps {
		col, err := db.resolveColumn(p)
		if err != nil {
			return nil, err
		}
		g := groups[col]
		if g == nil {
			g = &group{}
			groups[col] = g
			order = append(order, col)
		}
		for _, r := range p.rangeList() {
			g.ranges = append(g.ranges, exec.Range{Lo: r[0], Hi: r[1]})
			g.owner = append(g.owner, pi)
			nRanges[pi]++
		}
	}
	for _, col := range order {
		g := groups[col]
		parts, err := db.batchRanges(ctx, col, g.ranges)
		if err != nil {
			return nil, err
		}
		// Stitch flattened answers back per predicate. Single-range
		// predicates (the common case) adopt their owned slice directly;
		// a multi-range predicate's ranges were flattened in ascending
		// order, so appending in flat order reassembles them correctly.
		var acc map[int][]int64
		for j, part := range parts {
			pi := g.owner[j]
			if nRanges[pi] == 1 {
				results[pi] = NewResult(part)
				continue
			}
			if acc == nil {
				acc = make(map[int][]int64)
			}
			acc[pi] = append(acc[pi], part...)
		}
		for pi, vals := range acc {
			results[pi] = NewResult(vals)
		}
	}
	return results, nil
}

// QueryAggregate answers the predicate returning only (count, sum),
// skipping materialization wherever the mode allows.
func (db *DB) QueryAggregate(ctx context.Context, p Predicate) (Aggregate, error) {
	if err := db.check(ctx); err != nil {
		return Aggregate{}, err
	}
	col, err := db.resolveColumn(p)
	if err != nil {
		return Aggregate{}, err
	}
	var agg Aggregate
	// Single-range predicates skip the range-list allocation, like Query.
	if lo, hi, ok := p.singleRange(); ok {
		if lo >= hi {
			return agg, nil
		}
		return db.aggRange(ctx, col, lo, hi, agg)
	}
	for _, r := range p.rangeList() {
		// Re-check between the ranges of a multi-range predicate so long
		// Single-mode aggregates cancel cleanly too (the concurrent
		// branches also check inside the executor).
		if err := ctx.Err(); err != nil {
			return Aggregate{}, err
		}
		var err error
		if agg, err = db.aggRange(ctx, col, r[0], r[1], agg); err != nil {
			return Aggregate{}, err
		}
	}
	return agg, nil
}

// aggRange folds one half-open range's (count, sum) into agg in the DB's
// mode.
func (db *DB) aggRange(ctx context.Context, col string, lo, hi int64, agg Aggregate) (Aggregate, error) {
	switch {
	case db.ix != nil:
		res := db.ix.query(lo, hi)
		agg.Count += res.Count()
		agg.Sum += res.Sum()
	case db.x != nil:
		c, s, err := db.x.QueryAggregateCtx(ctx, lo, hi)
		if err != nil {
			return Aggregate{}, err
		}
		agg.Count += c
		agg.Sum += s
	case db.sh != nil:
		c, s, err := db.sh.QueryAggregateCtx(ctx, lo, hi)
		if err != nil {
			return Aggregate{}, err
		}
		agg.Count += c
		agg.Sum += s
	case db.stbl != nil:
		c, s, err := db.stbl.QueryAggregate(ctx, col, lo, hi)
		if err != nil {
			return Aggregate{}, err
		}
		agg.Count += c
		agg.Sum += s
	default:
		vals, err := db.tbl.Select(col, lo, hi)
		if err != nil {
			return Aggregate{}, err
		}
		agg.Count += len(vals)
		for _, v := range vals {
			agg.Sum += v
		}
	}
	return agg, nil
}

// SelectProject answers SELECT proj WHERE p on a table DB with late
// (row-id) tuple reconstruction: p's column (resolved like Query's, so
// scope it with On) is cracked as a side effect, and proj is fetched from
// its base column by row id. Multi-range predicates concatenate in
// ascending range order, like Query. Projection is single-threaded: only
// Single-mode tables serve it; Shared and Sharded tables fail with
// errors.ErrUnsupported and single-column DBs with ErrUnknownColumn.
// Columns restored from a snapshot or written to since opening have lost
// their row alignment and fail with ErrSnapshotUnsupported and
// ErrUpdatesUnsupported respectively.
func (db *DB) SelectProject(ctx context.Context, p Predicate, proj string) ([]int64, error) {
	return db.project(ctx, p, proj, (*table.Table).SelectProject)
}

// SelectProjectSideways answers SelectProject's query through a sideways
// cracker map: proj's values physically travel with the selection column
// during cracking, so the projection is one contiguous copy. The map is
// built lazily per (selection, projection) column pair; the contract is
// SelectProject's.
func (db *DB) SelectProjectSideways(ctx context.Context, p Predicate, proj string) ([]int64, error) {
	return db.project(ctx, p, proj, (*table.Table).SelectProjectSideways)
}

// project answers every range of p through one reconstruction strategy.
func (db *DB) project(ctx context.Context, p Predicate, proj string,
	strategy func(t *table.Table, sel, proj string, lo, hi int64) ([]int64, error)) ([]int64, error) {
	if err := db.check(ctx); err != nil {
		return nil, err
	}
	switch {
	case db.stbl != nil:
		return nil, fmt.Errorf("crackdb: projection on a %s table: %w", db.mode, errors.ErrUnsupported)
	case db.tbl == nil || !slices.Contains(db.cols, proj):
		return nil, fmt.Errorf("crackdb: no column %q to project: %w", proj, ErrUnknownColumn)
	}
	sel, err := db.resolveColumn(p)
	if err != nil {
		return nil, err
	}
	var out []int64
	for _, r := range p.rangeList() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		vals, err := strategy(db.tbl, sel, proj, r[0], r[1])
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = vals // the answer owns it; a single range needs no copy
			continue
		}
		out = append(out, vals...)
	}
	return out, nil
}

// Insert queues a value for insertion; it is merged into the column by
// the first query whose range covers it (Ripple merge). On a sharded DB
// the value routes to the shard owning its range; with WithGroupCommit
// the value rides a collector flush and Insert returns after the flush
// applied it. On a table database the value goes to the default column
// (the only column of a one-column table; use InsertOn for wider
// tables). It fails with ErrUpdatesUnsupported for algorithms that
// cannot take updates.
func (db *DB) Insert(v int64) error {
	if db.closed.Load() {
		return fmt.Errorf("crackdb: %w", ErrClosed)
	}
	if db.tbl != nil || db.stbl != nil {
		_, err := db.applyTable(context.Background(), "", []int64{v}, nil)
		return err
	}
	if db.b != nil {
		_, err := db.b.Enqueue(context.Background(), []exec.Op{{Value: v}})
		return err
	}
	switch {
	case db.ix != nil:
		return db.ix.insert(v)
	case db.x != nil:
		return db.x.Insert(v)
	default:
		return db.sh.Insert(v)
	}
}

// InsertOn queues a value for insertion into the named table column.
// Columns update independently (cracking is per attribute), so inserting
// into one column widens that column only.
func (db *DB) InsertOn(col string, v int64) error {
	_, err := db.ApplyBatchOn(context.Background(), col, []int64{v}, nil)
	return err
}

// Delete queues the removal of one occurrence of v, merged on demand like
// Insert. Table databases route to the default column, like Insert.
func (db *DB) Delete(v int64) error {
	if db.closed.Load() {
		return fmt.Errorf("crackdb: %w", ErrClosed)
	}
	if db.tbl != nil || db.stbl != nil {
		_, err := db.applyTable(context.Background(), "", nil, []int64{v})
		return err
	}
	if db.b != nil {
		_, err := db.b.Enqueue(context.Background(), []exec.Op{{Value: v, Delete: true}})
		return err
	}
	switch {
	case db.ix != nil:
		return db.ix.delete(v)
	case db.x != nil:
		return db.x.Delete(v)
	default:
		return db.sh.Delete(v)
	}
}

// DeleteOn queues the removal of one occurrence of v from the named
// table column.
func (db *DB) DeleteOn(col string, v int64) error {
	_, err := db.ApplyBatchOn(context.Background(), col, nil, []int64{v})
	return err
}

// UpdateTimings decomposes an acknowledged write batch's latency into
// the group-commit stages: Queue (waiting for the collector to seal a
// flush), Flush (the sealed flush waiting for the exclusive section) and
// Apply (holding it). Grouped reports whether the batch rode the
// group-commit path; without it only Flush (lock wait) and Apply are
// meaningful and Queue is zero.
type UpdateTimings struct {
	Queue   time.Duration
	Flush   time.Duration
	Apply   time.Duration
	Grouped bool
}

// ApplyBatch applies a whole list of inserts and deletes as one write
// batch and returns its decomposed latency. With WithGroupCommit the
// batch rides one collector flush (possibly grouped with concurrent
// writers); otherwise it is applied directly under one exclusive section
// per touched shard — either way the values pay one lock handshake per
// batch, not one per value, and ApplyBatch returns only after every
// value is applied. The context governs admission to the group-commit
// queue; once admitted the batch is applied even if the context expires,
// because an acknowledged write must never be half-applied.
func (db *DB) ApplyBatch(ctx context.Context, inserts, deletes []int64) (UpdateTimings, error) {
	if err := db.check(ctx); err != nil {
		return UpdateTimings{}, err
	}
	if len(inserts)+len(deletes) == 0 {
		return UpdateTimings{}, nil
	}
	if db.tbl != nil || db.stbl != nil {
		return db.applyTable(ctx, "", inserts, deletes)
	}
	ops := make([]exec.Op, 0, len(inserts)+len(deletes))
	for _, v := range deletes {
		ops = append(ops, exec.Op{Value: v, Delete: true})
	}
	for _, v := range inserts {
		ops = append(ops, exec.Op{Value: v})
	}
	if db.b != nil {
		t, err := db.b.Enqueue(ctx, ops)
		return UpdateTimings{Queue: t.Queue, Flush: t.Flush, Apply: t.Apply, Grouped: true}, err
	}
	var lockWait, apply time.Duration
	var err error
	switch {
	case db.x != nil:
		lockWait, apply, err = db.x.ApplyOps(ops)
	case db.sh != nil:
		lockWait, apply, err = db.sh.ApplyOps(ops)
	default:
		start := time.Now()
		for _, op := range ops {
			if op.Delete {
				err = db.ix.delete(op.Value)
			} else {
				err = db.ix.insert(op.Value)
			}
			if err != nil {
				return UpdateTimings{}, err
			}
		}
		return UpdateTimings{Apply: time.Since(start)}, nil
	}
	return UpdateTimings{Flush: lockWait, Apply: apply}, err
}

// ApplyBatchOn is ApplyBatch scoped to one table column: the batch
// queues against col's index only, merged lazily by the next covering
// query on that column. col may be empty on a one-column table (the
// default column takes the batch) and on single-column DBs (where the
// call is plain ApplyBatch).
func (db *DB) ApplyBatchOn(ctx context.Context, col string, inserts, deletes []int64) (UpdateTimings, error) {
	if db.tbl == nil && db.stbl == nil {
		if col != "" {
			return UpdateTimings{}, fmt.Errorf("crackdb: single-column database, batch is scoped to %q: %w", col, ErrUnknownColumn)
		}
		return db.ApplyBatch(ctx, inserts, deletes)
	}
	if err := db.check(ctx); err != nil {
		return UpdateTimings{}, err
	}
	if len(inserts)+len(deletes) == 0 {
		return UpdateTimings{}, nil
	}
	return db.applyTable(ctx, col, inserts, deletes)
}

// applyTable applies a write batch to one table column in either table
// mode. Deletes go first, matching ApplyBatch's op order, so a delete in
// the batch annihilates a matching queued insert.
func (db *DB) applyTable(ctx context.Context, col string, inserts, deletes []int64) (UpdateTimings, error) {
	if col == "" {
		if db.defaultCol == "" {
			return UpdateTimings{}, fmt.Errorf("crackdb: write names no column (use ApplyBatchOn): %w", ErrUnknownColumn)
		}
		col = db.defaultCol
	}
	if db.tbl != nil {
		start := time.Now()
		if err := db.tbl.Apply(col, inserts, deletes); err != nil {
			return UpdateTimings{}, err
		}
		return UpdateTimings{Apply: time.Since(start)}, nil
	}
	ops := make([]exec.Op, 0, len(inserts)+len(deletes))
	for _, v := range deletes {
		ops = append(ops, exec.Op{Value: v, Delete: true})
	}
	for _, v := range inserts {
		ops = append(ops, exec.Op{Value: v})
	}
	queue, flush, apply, grouped, err := db.stbl.Apply(ctx, col, ops)
	return UpdateTimings{Queue: queue, Flush: flush, Apply: apply, Grouped: grouped}, err
}

// GroupCommitStats reports the group-commit batcher's counters — summed
// across the per-column batchers on a table database; ok is false when
// the DB was opened without WithGroupCommit.
func (db *DB) GroupCommitStats() (st exec.BatcherStats, ok bool) {
	if db.stbl != nil {
		return db.stbl.GroupCommitStats()
	}
	if db.b == nil {
		return exec.BatcherStats{}, false
	}
	return db.b.Stats(), true
}

// PendingUpdates returns the number of queued, not-yet-merged updates
// across the whole DB (all shards in Sharded mode, all columns on a
// table database).
func (db *DB) PendingUpdates() int {
	switch {
	case db.ix != nil:
		return db.ix.pending()
	case db.x != nil:
		return db.x.Pending()
	case db.sh != nil:
		return db.sh.Pending()
	case db.tbl != nil:
		return db.tbl.PendingUpdates()
	case db.stbl != nil:
		return db.stbl.Pending()
	default:
		return 0
	}
}

// Stats returns cumulative physical-cost counters, aggregated across
// shards and columns where applicable.
func (db *DB) Stats() Stats {
	switch {
	case db.ix != nil:
		return db.ix.stats()
	case db.x != nil:
		return db.x.Stats()
	case db.sh != nil:
		return db.sh.Stats()
	case db.stbl != nil:
		return db.stbl.Stats()
	default:
		return db.tbl.Stats()
	}
}

// PathStats reports how many queries the adaptive execution layer
// answered under the shared read lock versus the exclusive write lock —
// the observable form of the executor's convergence-driven adaptivity
// (README "Concurrency model"). ok is false for modes without an
// executor (Single mode, column or table), whose counters would be
// meaningless. On a sharded DB a multi-shard query counts once per shard
// it touched: the counters measure executor lock traffic. Concurrent
// table databases sum the counters across their column executors.
func (db *DB) PathStats() (reads, writes int64, ok bool) {
	switch {
	case db.x != nil:
		reads, writes = db.x.PathStats()
		return reads, writes, true
	case db.sh != nil:
		reads, writes = db.sh.PathStats()
		return reads, writes, true
	case db.stbl != nil:
		reads, writes = db.stbl.PathStats()
		return reads, writes, true
	default:
		return 0, 0, false
	}
}

// PieceSizes returns the current sizes (in tuples) of the column's
// pieces, in storage order — the physical-refinement state the paper
// reasons about. A Shared DB reads them under the exclusive lock; a
// sharded DB concatenates its shards' pieces in shard order; a table
// database concatenates its columns' pieces in column-name order
// (never-queried columns report one unbroken piece). Non-engine-backed
// algorithms are unsupported.
func (db *DB) PieceSizes() ([]int, error) {
	if db.closed.Load() {
		return nil, fmt.Errorf("crackdb: %w", ErrClosed)
	}
	sizesOf := func(inner exec.Index) ([]int, error) {
		acc, ok := inner.(interface{ Engine() *core.Engine })
		if !ok {
			return nil, fmt.Errorf("crackdb: %s: piece sizes: %w", inner.Name(), errors.ErrUnsupported)
		}
		e := acc.Engine()
		return stats.SizesFromBounds(e.CrackerIndex().Pieces(e.Column().Len())), nil
	}
	switch {
	case db.ix != nil:
		return sizesOf(db.ix.inner)
	case db.x != nil:
		var sizes []int
		var err error
		db.x.Exclusive(func(inner exec.Index) { sizes, err = sizesOf(inner) })
		return sizes, err
	case db.sh != nil:
		var all []int
		for i := 0; i < db.sh.NumShards(); i++ {
			var sizes []int
			var err error
			db.sh.Shard(i).Exclusive(func(inner exec.Index) { sizes, err = sizesOf(inner) })
			if err != nil {
				return nil, err
			}
			all = append(all, sizes...)
		}
		return all, nil
	case db.tbl != nil:
		return db.tbl.PieceSizes(), nil
	default:
		return db.stbl.PieceSizes(), nil
	}
}

// Snapshot captures the DB's physical state as a multi-part manifest so
// a later OpenSnapshot resumes with all adaptation earned so far. Every
// single-column mode snapshots: Single directly, Shared under the
// executor's exclusive lock (draining in-flight queries first), and
// Sharded with every shard drained at once (exec.Sharded.ExclusiveAll)
// so the manifest is one atomic cut of the whole index — one part per
// shard, shard boundaries included, so the restore can rebuild or re-cut
// the same partitioning.
// Queued, not-yet-merged updates are captured with the snapshot (the
// manifest carries the pending queues; OpenSnapshot re-queues them), so a
// capture never has to refuse because updates are in flight — use
// SnapshotStrict when a caller explicitly wants that refusal.
//
// Table databases produce a table manifest: one entry per column, each
// holding that column's cracked state and pending queues (row-id
// payloads are dropped — see snapshot.TableColumn). Restore it with
// OpenTableSnapshot, into any table concurrency mode.
func (db *DB) Snapshot() (DBSnapshot, error) {
	if db.closed.Load() {
		return DBSnapshot{}, fmt.Errorf("crackdb: %w", ErrClosed)
	}
	switch {
	case db.ix != nil:
		st, err := db.ix.snapshotState()
		if err != nil {
			return DBSnapshot{}, err
		}
		return snapshot.Single(st), nil
	case db.x != nil:
		var st SnapshotState
		var err error
		db.x.Exclusive(func(inner exec.Index) {
			st, err = snapshotInner(inner)
		})
		if err != nil {
			return DBSnapshot{}, err
		}
		return snapshot.Single(st), nil
	case db.sh != nil:
		parts := make([]SnapshotPart, 0, db.sh.NumShards())
		var err error
		db.sh.ExclusiveAll(func(inners []exec.Index) {
			for i, inner := range inners {
				var st SnapshotState
				if st, err = snapshotInner(inner); err != nil {
					return
				}
				lo, hi := db.sh.ShardRange(i)
				parts = append(parts, snapshot.ClampedPart(lo, hi, st))
			}
		})
		if err != nil {
			return DBSnapshot{}, err
		}
		return DBSnapshot{Parts: parts}, nil
	case db.tbl != nil:
		return db.tbl.Snapshot()
	default:
		return db.stbl.Snapshot()
	}
}

// snapshotInner serializes any engine-backed index. Pending updates are
// captured into the state's queue fields, not merged: the restore
// re-queues them so the first covering query merges them lazily, exactly
// as it would have on the snapshotted index.
func snapshotInner(inner exec.Index) (SnapshotState, error) {
	acc, ok := inner.(interface{ Engine() *core.Engine })
	if !ok {
		return SnapshotState{}, fmt.Errorf("crackdb: %s: %w", inner.Name(), ErrSnapshotUnsupported)
	}
	st := acc.Engine().Snapshot()
	if u, ok := inner.(*updates.Index); ok {
		st.PendingInserts, st.PendingDeletes = u.PendingSnapshot()
	}
	return st, nil
}

// SnapshotStrict is Snapshot refusing to capture while updates are
// queued: it fails with ErrPendingUpdates instead of carrying the
// queues. Callers that treat a snapshot as a fully-merged cut (e.g. an
// operator asking for a clean backup) use this; everyone else wants
// Snapshot, which never refuses.
func (db *DB) SnapshotStrict() (DBSnapshot, error) {
	snap, err := db.Snapshot()
	if err != nil {
		return DBSnapshot{}, err
	}
	// Checked on the captured manifest, not a live counter, so the
	// decision is atomic with the capture even in concurrent modes.
	if n := snap.Pending(); n > 0 {
		return DBSnapshot{}, fmt.Errorf("crackdb: %d updates queued; merge them before snapshotting: %w",
			n, ErrPendingUpdates)
	}
	return snap, nil
}

// toExecRanges converts a predicate range list to the executor form.
func toExecRanges(rs [][2]int64) []exec.Range {
	out := make([]exec.Range, len(rs))
	for i, r := range rs {
		out[i] = exec.Range{Lo: r[0], Hi: r[1]}
	}
	return out
}
