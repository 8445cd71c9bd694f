package table

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dberr"
	"repro/internal/exec"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/updates"
)

// Shared is a goroutine-safe view of a Table for value selections and
// per-column writes: every selection column's adaptive index runs behind
// its own concurrent backend, so queries on different columns proceed
// fully in parallel (they share no physical state — cracking is per
// attribute, paper §2) and queries on the same column get the backend's
// adaptive read/write locking. The backend is a single exec.Executor per
// column by default, or an exec.Sharded (k range-partitioned executors)
// per column when built with NewSharded — the table analogue of the
// facade's Sharded(k) single-column mode. The wrapper assumes ownership
// of the Table; the single-threaded projection paths (SelectProject,
// SelectProjectSideways) must not be used concurrently with it, which is
// why DB.SelectProject refuses Shared and Sharded tables.
type Shared struct {
	t       *Table
	shards  int        // 0: one executor per column; k>0: k shards per column
	buildMu sync.Mutex // serializes lazy index construction on the shared Table
	// execs holds one slot per column, made at construction: the columns
	// are fixed when the table opens, so the map is read-only afterwards
	// and a query's slot lookup takes no lock.
	execs map[string]*colExec

	// Group commit: when enabled (before first use), every column backend
	// gets its own write batcher, created with the backend.
	groupOn  bool
	groupOpt exec.BatcherOptions
}

// colBackend is one built column: the concurrent query/write surface plus
// its group-commit batcher (nil unless group commit is on).
type colBackend struct {
	b     backend
	sh    *exec.Sharded  // non-nil iff the backend is sharded
	x     *exec.Executor // non-nil iff the backend is a single executor
	batch *exec.Batcher
}

// backend is the per-column concurrent surface both exec.Executor and
// exec.Sharded provide.
type backend interface {
	QueryCtx(ctx context.Context, a, b int64) ([]int64, error)
	QueryAggregateCtx(ctx context.Context, a, b int64) (count int, sum int64, err error)
	QueryBatchCtx(ctx context.Context, ranges []exec.Range) ([][]int64, error)
	ApplyOps(ops []exec.Op) (lockWait, apply time.Duration, err error)
	Pending() int
	Stats() core.Stats
	PathStats() (reads, writes int64)
}

// colExec is one column's backend slot; once gates the O(rows) lazy
// build so queries on other (already-built) columns never wait for it.
// v is atomic because Stats peeks at slots without entering the once.
type colExec struct {
	once sync.Once
	v    atomic.Pointer[colBackend]
	err  error // read only after once.Do returns
}

// NewShared wraps t for concurrent use, one executor per column.
func NewShared(t *Table) *Shared {
	return &Shared{t: t, execs: slots(t)}
}

// slots makes one empty backend slot per column of t.
func slots(t *Table) map[string]*colExec {
	execs := make(map[string]*colExec, len(t.names))
	for _, name := range t.names {
		execs[name] = &colExec{}
	}
	return execs
}

// NewSharded wraps t for concurrent use with k range-partitioned
// executors per column: disjoint-range queries and writes on the same
// column proceed in parallel, exactly as in the facade's single-column
// Sharded(k) mode. Row ids are not tracked (shard-local ids cannot
// reconstruct across columns), so the projection paths reject sharded
// columns once built.
func NewSharded(t *Table, k int) *Shared {
	if k < 1 {
		k = 1
	}
	if rows := t.Rows(); k > rows && rows > 0 {
		k = rows
	}
	return &Shared{t: t, shards: k, execs: slots(t)}
}

// EnableGroupCommit turns on per-column write batching: every column
// backend built after this call owns an exec.Batcher, so concurrent
// writers to the same column coalesce into one exclusive-lock
// acquisition. Must be called before the first query or write.
func (s *Shared) EnableGroupCommit(opt exec.BatcherOptions) {
	s.groupOn = true
	s.groupOpt = opt
}

// Rows returns the number of rows.
func (s *Shared) Rows() int { return s.t.Rows() }

// Columns returns the column names in deterministic order.
func (s *Shared) Columns() []string { return s.t.Columns() }

// Sharded reports the per-column shard count (0 when each column runs a
// single executor).
func (s *Shared) Sharded() int { return s.shards }

// backend returns (building lazily) the concurrent backend on column sel.
// The build runs under buildMu (the Table's lazy-build state is shared
// across columns), so concurrent builds of different columns serialize
// with each other but never stall queries on columns that already have
// backends.
func (s *Shared) backend(sel string) (*colBackend, error) {
	ce, ok := s.execs[sel]
	if !ok {
		return nil, fmt.Errorf("table: %w %q", dberr.ErrUnknownColumn, sel)
	}
	ce.once.Do(func() {
		s.buildMu.Lock()
		defer s.buildMu.Unlock()
		cb, err := s.buildColumn(sel)
		if err != nil {
			ce.err = err
			return
		}
		ce.v.Store(cb)
	})
	return ce.v.Load(), ce.err
}

// buildColumn constructs the backend for one column: an updates-wrapped
// executor (or a k-sharded executor set), resuming from the column's
// restore seed when the table came from a snapshot.
func (s *Shared) buildColumn(sel string) (*colBackend, error) {
	cb := &colBackend{}
	if s.shards > 0 {
		sh, err := s.shardedColumn(sel)
		if err != nil {
			return nil, err
		}
		cb.b, cb.sh = sh, sh
	} else {
		si, err := s.t.index(sel)
		if err != nil {
			return nil, err
		}
		var inner exec.Index = si.ix
		if si.u != nil {
			inner = si.u
		}
		x := exec.New(inner)
		cb.b, cb.x = x, x
	}
	if s.groupOn {
		cb.batch = exec.NewBatcher(cb.b, s.groupOpt)
	}
	return cb, nil
}

// shardedColumn builds column sel's k-sharded executor set, from the
// restore seed when present (re-cut along SplitBounds, so cracks and
// pending queues land on the shards owning their ranges) and from the
// base column otherwise.
func (s *Shared) shardedColumn(sel string) (*exec.Sharded, error) {
	opt := s.t.opt
	opt.TrackRowIDs = false
	if st, ok := s.t.seeds[sel]; ok {
		m := snapshot.Manifest{Parts: []snapshot.Part{snapshot.ClampedPart(math.MinInt64, math.MaxInt64, st)}}
		k := s.shards
		if n := len(st.Values); k > n && n > 0 {
			k = n
		}
		if k != len(m.Parts) {
			var err error
			m, err = m.Reshard(m.SplitBounds(k, opt.Seed))
			if err != nil {
				return nil, fmt.Errorf("table: column %q: %w", sel, err)
			}
		}
		states := make([]core.SnapshotState, len(m.Parts))
		bounds := make([]int64, 0, len(m.Parts)-1)
		for i, p := range m.Parts {
			states[i] = p.State
			if i > 0 {
				bounds = append(bounds, p.Lo)
			}
		}
		sh, err := exec.RestoreSharded(states, bounds, s.t.algo, opt)
		if err != nil {
			return nil, fmt.Errorf("table: column %q: %w", sel, err)
		}
		delete(s.t.seeds, sel)
		return sh, nil
	}
	return exec.NewSharded(append([]int64(nil), s.t.base[sel]...), s.t.algo, s.shards, opt)
}

// Query returns the values of column sel in [lo, hi) as an owned slice,
// adapting sel's index as a side effect; converged queries run in parallel
// under the column backend's shared lock.
func (s *Shared) Query(ctx context.Context, sel string, lo, hi int64) ([]int64, error) {
	cb, err := s.backend(sel)
	if err != nil {
		return nil, err
	}
	return cb.b.QueryCtx(ctx, lo, hi)
}

// QueryAggregate returns (count, sum) over column sel in [lo, hi).
func (s *Shared) QueryAggregate(ctx context.Context, sel string, lo, hi int64) (count int, sum int64, err error) {
	cb, err := s.backend(sel)
	if err != nil {
		return 0, 0, err
	}
	return cb.b.QueryAggregateCtx(ctx, lo, hi)
}

// QueryBatch answers many ranges over column sel, one owned slice per
// range in input order, in at most two lock acquisitions on the column.
func (s *Shared) QueryBatch(ctx context.Context, sel string, ranges []exec.Range) ([][]int64, error) {
	cb, err := s.backend(sel)
	if err != nil {
		return nil, err
	}
	return cb.b.QueryBatchCtx(ctx, ranges)
}

// Apply applies a write batch to column sel — through the column's
// group-commit batcher when one is attached (grouped=true; queue/flush
// report time spent waiting for the batch), directly under the column
// lock otherwise. ops follow the facade's batch order (deletes before
// inserts).
func (s *Shared) Apply(ctx context.Context, sel string, ops []exec.Op) (queue, flush, apply time.Duration, grouped bool, err error) {
	cb, err := s.backend(sel)
	if err != nil {
		return 0, 0, 0, false, err
	}
	if cb.batch != nil {
		t, err := cb.batch.Enqueue(ctx, ops)
		return t.Queue, t.Flush, t.Apply, true, err
	}
	lockWait, applied, err := cb.b.ApplyOps(ops)
	return lockWait, 0, applied, false, err
}

// Pending reports queued, not-yet-merged updates across all built column
// backends.
func (s *Shared) Pending() int {
	n := 0
	for _, cb := range s.built() {
		n += cb.b.Pending()
	}
	return n
}

// built returns the currently built column backends (order unspecified).
func (s *Shared) built() []*colBackend {
	out := make([]*colBackend, 0, len(s.execs))
	for _, ce := range s.execs {
		if cb := ce.v.Load(); cb != nil {
			out = append(out, cb)
		}
	}
	return out
}

// builtFor returns column name's backend if built, without building it.
func (s *Shared) builtFor(name string) *colBackend {
	if ce := s.execs[name]; ce != nil {
		return ce.v.Load()
	}
	return nil
}

// Stats aggregates physical-cost counters across the column backends.
// Columns never queried through the wrapper cost, and report, nothing.
func (s *Shared) Stats() core.Stats {
	var agg core.Stats
	for _, cb := range s.built() {
		st := cb.b.Stats()
		agg.Queries += st.Queries
		agg.Touched += st.Touched
		agg.Swaps += st.Swaps
		agg.Cracks += st.Cracks
		agg.Pieces += st.Pieces
	}
	return agg
}

// PathStats sums fast-path/slow-path read and write counters across the
// built column backends.
func (s *Shared) PathStats() (reads, writes int64) {
	for _, cb := range s.built() {
		r, w := cb.b.PathStats()
		reads += r
		writes += w
	}
	return reads, writes
}

// GroupCommitStats aggregates batcher counters across the built columns;
// ok reports whether group commit is enabled at all.
func (s *Shared) GroupCommitStats() (agg exec.BatcherStats, ok bool) {
	if !s.groupOn {
		return exec.BatcherStats{}, false
	}
	agg.BatchSize = s.groupOpt.BatchSize
	agg.MaxWait = s.groupOpt.MaxWait
	for _, cb := range s.built() {
		if cb.batch == nil {
			continue
		}
		st := cb.batch.Stats()
		agg.Enqueued += st.Enqueued
		agg.Ops += st.Ops
		agg.Flushes += st.Flushes
		agg.MaxBatch = max(agg.MaxBatch, st.MaxBatch)
		agg.QueueNS += st.QueueNS
		agg.FlushNS += st.FlushNS
		agg.ApplyNS += st.ApplyNS
		agg.BatchSize = st.BatchSize
		agg.MaxWait = st.MaxWait
	}
	return agg, true
}

// Close shuts down the per-column group-commit batchers (no-op without
// group commit). In-flight enqueues drain first; later writes fail with
// exec.ErrBatcherClosed.
func (s *Shared) Close() {
	for _, cb := range s.built() {
		if cb.batch != nil {
			cb.batch.Close()
		}
	}
}

// PieceSizes reports current piece sizes column by column, in column-name
// order: built columns from their live cracker indexes (under a drain, so
// sizes are consistent), seeded columns from their restore seed's cracks,
// cold columns as one unbroken piece. buildMu is held throughout so no
// column flips from cold to built mid-walk.
func (s *Shared) PieceSizes() []int {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	var sizes []int
	for _, name := range s.t.names {
		cb := s.builtFor(name)
		switch {
		case cb != nil && cb.x != nil:
			cb.x.Exclusive(func(inner exec.Index) {
				sizes = append(sizes, sizesFromInner(inner)...)
			})
		case cb != nil && cb.sh != nil:
			cb.sh.ExclusiveAll(func(inners []exec.Index) {
				for _, inner := range inners {
					sizes = append(sizes, sizesFromInner(inner)...)
				}
			})
		default:
			if st, ok := s.t.seeds[name]; ok {
				sizes = append(sizes, sizesFromState(st)...)
			} else {
				sizes = append(sizes, len(s.t.base[name]))
			}
		}
	}
	return sizes
}

// sizesFromInner derives piece sizes from a drained engine-backed index.
func sizesFromInner(inner exec.Index) []int {
	acc, ok := inner.(interface{ Engine() *core.Engine })
	if !ok {
		return nil
	}
	e := acc.Engine()
	return stats.SizesFromBounds(e.CrackerIndex().Pieces(e.Column().Len()))
}

// captureInner snapshots a drained engine-backed index: physical state
// plus the update wrapper's pending queues, row ids dropped (table
// snapshots capture per-column value state only).
func captureInner(inner exec.Index, algo string) (core.SnapshotState, error) {
	acc, ok := inner.(interface{ Engine() *core.Engine })
	if !ok {
		return core.SnapshotState{}, fmt.Errorf("table: %s: %w", algo, dberr.ErrSnapshotUnsupported)
	}
	st := acc.Engine().Snapshot()
	st.RowIDs = nil
	if u, ok := inner.(*updates.Index); ok {
		st.PendingInserts, st.PendingDeletes = u.PendingSnapshot()
	}
	return st, nil
}

// Snapshot captures the whole table as a table manifest, column by
// column: built columns drain (queries finish, writes pause) and capture
// their cracked state plus pending queues — one part per shard in sharded
// mode — while cold columns capture base values and seeded columns re-emit
// their seed. Each column's capture is atomic; the cut is per column, not
// cross-column, matching the independence of per-column updates. buildMu
// is held throughout, so a write racing the capture of a still-cold
// column cannot be acknowledged and then missed.
func (s *Shared) Snapshot() (snapshot.Manifest, error) {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	cols := make([]snapshot.TableColumn, 0, len(s.t.names))
	var capErr error
	for _, name := range s.t.names {
		cb := s.builtFor(name)
		var parts []snapshot.Part
		switch {
		case cb != nil && cb.x != nil:
			cb.x.Exclusive(func(inner exec.Index) {
				st, err := captureInner(inner, s.t.algo)
				if err != nil {
					capErr = err
					return
				}
				parts = []snapshot.Part{snapshot.ClampedPart(math.MinInt64, math.MaxInt64, st)}
			})
		case cb != nil && cb.sh != nil:
			cb.sh.ExclusiveAll(func(inners []exec.Index) {
				for i, inner := range inners {
					st, err := captureInner(inner, s.t.algo)
					if err != nil {
						capErr = err
						return
					}
					lo, hi := cb.sh.ShardRange(i)
					parts = append(parts, snapshot.ClampedPart(lo, hi, st))
				}
			})
		default:
			st := s.t.columnState(name)
			parts = []snapshot.Part{snapshot.ClampedPart(math.MinInt64, math.MaxInt64, st)}
		}
		if capErr != nil {
			return snapshot.Manifest{}, capErr
		}
		cols = append(cols, snapshot.TableColumn{Name: name, Parts: parts})
	}
	m := snapshot.Table(cols)
	if err := m.Validate(); err != nil {
		return snapshot.Manifest{}, err
	}
	return m, nil
}
