package crackdb

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/table"
)

// Concurrency selects how a DB executes queries. It is a construction
// option (WithConcurrency), not a separate index type: the query API is
// identical in every mode, only the execution strategy changes.
type Concurrency struct {
	m exec.Mode
}

// Single serves queries on the caller's goroutine with no locking and
// zero-copy results. The DB is not safe for concurrent use in this mode;
// it is the fastest choice for single-threaded workloads (the paper's
// experimental setting).
var Single = Concurrency{}

// Shared serves queries through the adaptive read/write execution layer
// (internal/exec): converged queries run in parallel under a shared lock,
// reorganizing queries serialize under an exclusive one. Results are
// owned slices. Safe for concurrent use.
var Shared = Concurrency{exec.Mode{Kind: exec.ModeShared}}

// Sharded value-range partitions the column into k shards, each an
// independent adaptive index behind its own executor; queries fan out to
// the intersected shards on a bounded worker pool. Safe for concurrent
// use; the highest-throughput mode for large columns under heavy traffic.
func Sharded(k int) Concurrency { return Concurrency{exec.Mode{Kind: exec.ModeSharded, Shards: k}} }

// String names the mode ("single", "shared", "sharded-8").
func (c Concurrency) String() string { return c.m.String() }

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
	closed atomic.Bool
	// A single-column DB is a one-column table whose column is unnamed;
	// every column is one exec.Backend behind its optional group-commit
	// batcher.
	tbl *table.Table
	// algo and cfg are what the DB was opened with; Reopen reuses them.
	algo string
	cfg  config
}

// Open builds a DB over a single integer column using the named algorithm
// (see Algorithms): a one-column table whose column is unnamed, so
// predicates and writes need no column name. Like OpenTable, the DB owns
// the slice afterwards and reorganizes it in place. The zero Option set
// gives a Single-mode DB with the paper's default tuning.
func Open(values []int64, algorithm string, opts ...Option) (*DB, error) {
	return OpenTable(map[string][]int64{"": values}, algorithm, opts...)
}

// configure applies opts and rejects group commit in Single mode, which
// has no concurrent write path to batch.
func configure(opts []Option) (config, error) {
	cfg := applyOptions(opts)
	if cfg.group != nil && cfg.conc.m.Kind == exec.ModeSingle {
		return cfg, fmt.Errorf("crackdb: group commit in %s mode: %w", cfg.conc, errors.ErrUnsupported)
	}
	return cfg, nil
}

// OpenTable builds a DB over named, equal-length columns; selections
// crack only the column the predicate names (scope predicates with
// Predicate.On). The DB owns the slices afterwards and reorganizes them
// in place — give each DB its own. Single mode serves queries
// unsynchronized; Shared gives every column its own adaptive executor, so
// queries on different columns run fully in parallel; Sharded(k) gives
// every column k range-partitioned executors, so disjoint-range queries
// on the same column proceed in parallel too. With WithGroupCommit every
// column gets its own batcher (writes to different columns are
// independent). Every algorithm Open takes works here, the partition/merge
// hybrids included, except in a Single table of two or more columns: that
// is the one shape that projects (SelectProject), which needs an
// engine-backed algorithm.
func OpenTable(cols map[string][]int64, algorithm string, opts ...Option) (*DB, error) {
	cfg, err := configure(opts)
	if err != nil {
		return nil, err
	}
	t, err := table.New(cols, algorithm, cfg.conc.m, cfg.core, cfg.group)
	if err != nil {
		return nil, fmt.Errorf("crackdb: %w", err)
	}
	return &DB{algo: algorithm, cfg: cfg, tbl: t}, nil
}

// Close marks the handle closed; subsequent queries, updates and
// snapshots fail with ErrClosed (read-only accessors stay readable). It
// does not free the column (the garbage collector does) — Close exists
// so pooled handles fail loudly instead of serving after their lifecycle
// ended. Group-commit batchers stop after flushing the writes they
// already admitted.
func (db *DB) Close() error {
	db.closed.Store(true)
	db.tbl.Close()
	return nil // idempotent, io.Closer-style: repeat closes are not errors
}

// Mode returns the DB's concurrency mode.
func (db *DB) Mode() Concurrency { return db.cfg.conc }

// Rows returns the number of rows (tuples) the DB was opened with.
func (db *DB) Rows() int { return db.tbl.Rows() }

// Columns returns the table's column names in deterministic order, or nil
// for a single-column DB.
func (db *DB) Columns() []string { return db.tbl.Columns() }

// Name identifies the backing configuration (e.g. "dd1r",
// "exec(updatable(dd1r))", "sharded-8(dd1r)", "table").
func (db *DB) Name() string { return db.tbl.Name() }

// check validates the handle and the context before any operation.
func (db *DB) check(ctx context.Context) error {
	if db.closed.Load() {
		return fmt.Errorf("crackdb: %w", ErrClosed)
	}
	return ctx.Err()
}

// column resolves a column name to its backend; "" names the only column
// of a one-column table, which a single-column DB is.
func (db *DB) column(name string) (*exec.Column, error) {
	c, err := db.tbl.Column(name)
	if err != nil {
		return nil, fmt.Errorf("crackdb: %w", err)
	}
	return c, nil
}

// resolve maps a predicate to the backend of the column it queries.
func (db *DB) resolve(p Predicate) (*exec.Column, error) {
	name, err := scope(p)
	if err != nil {
		return nil, err
	}
	return db.column(name)
}

// scope returns the column p names, rejecting predicates composed across
// different columns.
func scope(p Predicate) (string, error) {
	if p.conflict != "" {
		return "", fmt.Errorf("crackdb: predicate composes different columns (%s): %w", p.conflict, ErrUnknownColumn)
	}
	return p.Column(), nil
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
	c, err := db.resolve(p)
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
		return c.View(ctx, lo, hi)
	}
	// Multi-range: one batch, concatenated in ascending range order.
	parts, err := c.QueryBatchInto(ctx, toExecRanges(p.rangeList()), new(exec.BatchBuffer))
	if err != nil {
		return Result{}, err
	}
	return NewResult(slices.Concat(parts...)), nil
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
		c      *exec.Column
		ranges []exec.Range
		owner  []int
	}
	var groups []*group // columns in first-seen order
	nRanges := make([]int, len(ps))
	for pi, p := range ps {
		c, err := db.resolve(p)
		if err != nil {
			return nil, err
		}
		i := 0
		for i < len(groups) && groups[i].c != c {
			i++
		}
		if i == len(groups) {
			groups = append(groups, &group{c: c})
		}
		g := groups[i]
		for _, r := range p.rangeList() {
			g.ranges = append(g.ranges, exec.Range{Lo: r[0], Hi: r[1]})
			g.owner = append(g.owner, pi)
			nRanges[pi]++
		}
	}
	for _, g := range groups {
		// A fresh arena per column: every answer is a capacity-capped
		// subslice of it, owned by the caller like any Result.
		parts, err := g.c.QueryBatchInto(ctx, g.ranges, new(exec.BatchBuffer))
		if err != nil {
			return nil, err
		}
		// Stitch flattened answers back per predicate. Single-range
		// predicates (the common case) adopt their arena slice directly;
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
	c, err := db.resolve(p)
	if err != nil {
		return Aggregate{}, err
	}
	// Single-range predicates skip the range-list allocation, like Query.
	if lo, hi, ok := p.singleRange(); ok {
		if lo >= hi {
			return Aggregate{}, nil
		}
		count, sum, err := c.QueryAggregateCtx(ctx, lo, hi)
		return Aggregate{Count: count, Sum: sum}, err
	}
	var agg Aggregate
	for _, r := range p.rangeList() {
		// Re-check between the ranges of a multi-range predicate so long
		// Single-mode aggregates cancel cleanly too (the concurrent
		// backends also check inside the executor).
		if err := ctx.Err(); err != nil {
			return Aggregate{}, err
		}
		count, sum, err := c.QueryAggregateCtx(ctx, r[0], r[1])
		if err != nil {
			return Aggregate{}, err
		}
		agg.Count += count
		agg.Sum += sum
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
	sel, err := scope(p)
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
			return nil, fmt.Errorf("crackdb: %w", err)
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
	c, err := db.writeColumn("")
	if err != nil {
		return err
	}
	return c.Insert(v)
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
	c, err := db.writeColumn("")
	if err != nil {
		return err
	}
	return c.Delete(v)
}

// writeColumn checks the handle and resolves the column a write targets.
func (db *DB) writeColumn(name string) (*exec.Column, error) {
	if db.closed.Load() {
		return nil, fmt.Errorf("crackdb: %w", ErrClosed)
	}
	return db.column(name)
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
// because an acknowledged write must never be half-applied. On a table
// database the batch goes to the default column, like Insert.
func (db *DB) ApplyBatch(ctx context.Context, inserts, deletes []int64) (UpdateTimings, error) {
	return db.ApplyBatchOn(ctx, "", inserts, deletes)
}

// ApplyBatchOn is ApplyBatch scoped to one table column: the batch
// queues against col's index only, merged lazily by the next covering
// query on that column. col may be empty on a one-column table (the
// default column takes the batch) and on single-column DBs (where the
// call is plain ApplyBatch). Deletes apply before inserts, so a delete in
// the batch annihilates a matching queued insert.
func (db *DB) ApplyBatchOn(ctx context.Context, col string, inserts, deletes []int64) (UpdateTimings, error) {
	if err := db.check(ctx); err != nil {
		return UpdateTimings{}, err
	}
	if len(inserts)+len(deletes) == 0 {
		return UpdateTimings{}, nil
	}
	c, err := db.column(col)
	if err != nil {
		return UpdateTimings{}, err
	}
	ops := make([]exec.Op, 0, len(inserts)+len(deletes))
	for _, v := range deletes {
		ops = append(ops, exec.Op{Value: v, Delete: true})
	}
	for _, v := range inserts {
		ops = append(ops, exec.Op{Value: v})
	}
	t, grouped, err := c.Apply(ctx, ops)
	return UpdateTimings{Queue: t.Queue, Flush: t.Flush, Apply: t.Apply, Grouped: grouped}, err
}

// GroupCommitStats reports the group-commit batcher's counters — summed
// across the per-column batchers on a table database; ok is false when
// the DB was opened without WithGroupCommit.
func (db *DB) GroupCommitStats() (st exec.BatcherStats, ok bool) {
	return db.tbl.GroupCommitStats()
}

// PendingUpdates returns the number of queued, not-yet-merged updates
// across the whole DB (all shards in Sharded mode, all columns on a
// table database).
func (db *DB) PendingUpdates() int { return db.tbl.Pending() }

// Stats returns cumulative physical-cost counters, aggregated across
// shards and columns where applicable.
func (db *DB) Stats() Stats { return db.tbl.Stats() }

// PathStats reports how many queries the adaptive execution layer
// answered under the shared read lock versus the exclusive write lock —
// the observable form of the executor's convergence-driven adaptivity
// (README "Concurrency model"). ok is false for modes without an
// executor (Single mode, column or table), whose counters would be
// meaningless. On a sharded DB a multi-shard query counts once per shard
// it touched: the counters measure executor lock traffic. Concurrent
// table databases sum the counters across their column executors.
func (db *DB) PathStats() (reads, writes int64, ok bool) {
	if db.cfg.conc.m.Kind == exec.ModeSingle {
		return 0, 0, false
	}
	reads, writes = db.tbl.PathStats()
	return reads, writes, true
}

// PieceSizes returns the current sizes (in tuples) of the column's
// pieces, in storage order — the physical-refinement state the paper
// reasons about. Concurrent DBs read them with the executors drained; a
// sharded DB concatenates its shards' pieces in shard order; a table
// database concatenates its columns' pieces in column-name order
// (never-queried columns report one unbroken piece). Non-engine-backed
// algorithms are unsupported.
func (db *DB) PieceSizes() ([]int, error) {
	if db.closed.Load() {
		return nil, fmt.Errorf("crackdb: %w", ErrClosed)
	}
	sizes, err := db.tbl.PieceSizes()
	if err != nil {
		return nil, fmt.Errorf("crackdb: %w", err)
	}
	return sizes, nil
}

// Snapshot captures the DB's physical state as a manifest so
// a later OpenSnapshot resumes with all adaptation earned so far. Every
// mode snapshots: Single directly, Shared under the executor's exclusive
// lock (draining in-flight queries first), and Sharded with every shard
// drained at once (exec.Sharded.ExclusiveAll) so each column's parts are
// one atomic cut — one part per shard, shard boundaries included, so the
// restore can rebuild or re-cut the same partitioning.
// Queued, not-yet-merged updates are captured with the snapshot (the
// manifest carries the pending queues; OpenSnapshot re-queues them), so a
// capture never has to refuse because updates are in flight — use
// SnapshotStrict when a caller explicitly wants that refusal.
//
// The manifest holds one entry per column, the unnamed one for a
// single-column DB, each with that column's cracked state and pending
// queues. Row ids never enter a snapshot (see snapshot.TableColumn).
func (db *DB) Snapshot() (DBSnapshot, error) {
	if db.closed.Load() {
		return DBSnapshot{}, fmt.Errorf("crackdb: %w", ErrClosed)
	}
	snap, err := db.tbl.Snapshot()
	if err != nil {
		return DBSnapshot{}, fmt.Errorf("crackdb: %w", err)
	}
	return snap, nil
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
