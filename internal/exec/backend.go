package exec

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dberr"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/updates"
)

// Backend is one column's adaptive index as the facade and the table serve
// it, whatever the execution mode: Single (unsynchronized), Executor
// (adaptive read/write locking) or Sharded (range-partitioned executors).
// The paper cracks at the attribute level (§2), so a stand-alone column
// and a table column are the same thing, built, queried, written,
// captured and measured through this one surface.
//
// Reads have four methods and one rule: one single-range values path
// (QueryAppendCtx, with View the same answer as a Result), one aggregate
// path (QueryAggregateCtx) and one batch path (QueryBatchInto) per
// backend. Every other read — an Or predicate, a facade batch — is built
// on these, so a new read-side concern threads through them only.
type Backend interface {
	// View answers [a, b). Single returns the engine's zero-copy view,
	// valid until the next query; the concurrent backends return owned
	// results.
	View(ctx context.Context, a, b int64) (core.Result, error)
	// QueryAppendCtx appends [a, b)'s values to dst, append-style.
	QueryAppendCtx(ctx context.Context, a, b int64, dst []int64) ([]int64, error)
	// QueryAggregateCtx returns [a, b)'s count and sum without copying.
	QueryAggregateCtx(ctx context.Context, a, b int64) (count int, sum int64, err error)
	// QueryBatchInto answers ranges in input order into bb's arena.
	QueryBatchInto(ctx context.Context, ranges []Range, bb *BatchBuffer) ([][]int64, error)
	Insert(v int64) error
	Delete(v int64) error
	ApplyOps(ops []Op) (lockWait, apply time.Duration, err error)
	Pending() int
	Stats() core.Stats
	PathStats() (reads, writes int64)
	Name() string
	// Capture calls fn on every part [lo, hi) of the value domain with the
	// part's inner index, all parts drained at once so fn sees one cut.
	// fn must not retain inner.
	Capture(fn func(lo, hi int64, inner Index))
}

// ModeKind names a Backend's execution strategy.
type ModeKind uint8

const (
	ModeSingle  ModeKind = iota // one unsynchronized index
	ModeShared                  // one Executor
	ModeSharded                 // Shards range-partitioned executors
)

// Mode selects the Backend that Build and Restore construct.
type Mode struct {
	Kind   ModeKind
	Shards int // ModeSharded only
}

// String names the mode ("single", "shared", "sharded-8").
func (m Mode) String() string {
	switch m.Kind {
	case ModeShared:
		return "shared"
	case ModeSharded:
		return fmt.Sprintf("sharded-%d", m.Shards)
	default:
		return "single"
	}
}

// Build builds the named algorithm over values, which the backend owns and
// reorganizes in place, and serves it in mode.
func Build(values []int64, spec string, mode Mode, opt core.Options) (Backend, error) {
	if mode.Kind == ModeSharded {
		return NewSharded(values, spec, mode.Shards, opt)
	}
	u, err := wrap(core.Build(values, spec, opt))
	if err != nil {
		return nil, err
	}
	return serve(u, mode), nil
}

// wrap is every backend's one build step: the index core.Build or
// core.Restore returned (err their error) behind its update wrapper.
// Specs whose index has no engine (the figure harness's sorted baseline)
// fail with dberr.ErrUnknownAlgorithm.
func wrap(ix core.Index, err error) (*updates.Index, error) {
	if err != nil {
		return nil, err
	}
	u, ok := updates.Wrap(ix)
	if !ok {
		return nil, fmt.Errorf("exec: %w %q: no engine", dberr.ErrUnknownAlgorithm, ix.Name())
	}
	return u, nil
}

// Restore rebuilds a backend in mode from manifest parts, validating every
// crack invariant and re-queuing the parts' pending updates. Single and
// Shared merge the parts into one state (old part bounds become cracks);
// Sharded(k) re-cuts them along k-1 bounds — the parts' own when k
// matches, else SplitBounds — without losing cracks. spec selects who
// continues the cracking: crack state is algorithm-agnostic.
func Restore(parts snapshot.Parts, spec string, mode Mode, opt core.Options) (Backend, error) {
	if mode.Kind != ModeSharded {
		u, err := restore(parts.Merged(), spec, opt)
		if err != nil {
			return nil, err
		}
		return serve(u, mode), nil
	}
	k := max(mode.Shards, 1)
	if rows := parts.Rows(); k > rows && rows > 0 {
		k = rows
	}
	if k != len(parts) {
		var err error
		if parts, err = parts.Reshard(parts.SplitBounds(k, opt.Seed)); err != nil {
			return nil, err
		}
	}
	states := make([]core.SnapshotState, len(parts))
	bounds := make([]int64, 0, len(parts)-1)
	for i, p := range parts {
		states[i] = p.State
		if i > 0 {
			bounds = append(bounds, p.Lo)
		}
	}
	return RestoreSharded(states, bounds, spec, opt)
}

// restore rebuilds one index from st, re-queuing the state's pending
// updates.
func restore(st core.SnapshotState, spec string, opt core.Options) (*updates.Index, error) {
	u, err := wrap(core.Restore(st, spec, opt))
	if err != nil {
		return nil, err
	}
	u.SeedPending(st.PendingInserts, st.PendingDeletes)
	return u, nil
}

// serve puts one index behind mode's single-index backend.
func serve(u *updates.Index, mode Mode) Backend {
	if mode.Kind == ModeSingle {
		return &Single{ix: u}
	}
	return New(u)
}

// CaptureParts captures b's physical state as manifest parts, one per part
// Capture visits, with pending updates carried in each state's queues (a
// restore re-queues them; nothing is merged).
func CaptureParts(b Backend) snapshot.Parts {
	var parts snapshot.Parts
	b.Capture(func(lo, hi int64, inner Index) {
		st := inner.Engine().Snapshot()
		st.PendingInserts, st.PendingDeletes = inner.PendingSnapshot()
		parts = append(parts, snapshot.ClampedPart(lo, hi, st))
	})
	return parts
}

// PieceSizes returns b's piece sizes in tuples, in value order across its
// parts.
func PieceSizes(b Backend) []int {
	var sizes []int
	b.Capture(func(_, _ int64, inner Index) {
		e := inner.Engine()
		sizes = append(sizes, stats.SizesFromBounds(e.CrackerIndex().Pieces(e.Column().Len()))...)
	})
	return sizes
}

// Column is a Backend behind its optional group-commit batcher: the one
// write path of every table column, a single-column DB's included. Reads
// go to the backend.
type Column struct {
	Backend
	Batch *Batcher // nil without group commit
}

// NewColumn serves b, attaching a group-commit batcher when group is
// non-nil.
func NewColumn(b Backend, group *BatcherOptions) *Column {
	c := &Column{Backend: b}
	if group != nil {
		c.Batch = NewBatcher(b, *group)
	}
	return c
}

// Insert queues v: through the batcher when one is attached (returning
// once its flush applied v), else on the backend's single-op path.
func (c *Column) Insert(v int64) error {
	if c.Batch != nil {
		_, err := c.Batch.Enqueue(context.Background(), []Op{{Value: v}})
		return err
	}
	return c.Backend.Insert(v)
}

// Delete queues the removal of one occurrence of v, like Insert.
func (c *Column) Delete(v int64) error {
	if c.Batch != nil {
		_, err := c.Batch.Enqueue(context.Background(), []Op{{Value: v, Delete: true}})
		return err
	}
	return c.Backend.Delete(v)
}

// Apply applies a write batch, through the batcher when one is attached
// (grouped; ctx governs admission to its queue), else under the backend's
// exclusive section(s), where Flush is the lock wait.
func (c *Column) Apply(ctx context.Context, ops []Op) (t Timings, grouped bool, err error) {
	if c.Batch != nil {
		t, err = c.Batch.Enqueue(ctx, ops)
		return t, true, err
	}
	t.Flush, t.Apply, err = c.ApplyOps(ops)
	return t, false, err
}

// Single is the Single-mode Backend: one adaptive index served on the
// caller's goroutine with no locking, so View returns the engine's
// zero-copy view. Not safe for concurrent use.
type Single struct {
	ix *updates.Index
}

// Query answers [a, b), merging the pending updates it covers first.
func (s *Single) Query(a, b int64) core.Result { return s.ix.Query(a, b) }

// Merged returns the number of updates merged into the column so far.
func (s *Single) Merged() int64 { return s.ix.Merged() }

// View answers [a, b) as the engine's zero-copy view.
func (s *Single) View(_ context.Context, a, b int64) (core.Result, error) {
	return s.Query(a, b), nil
}

// QueryAppendCtx appends [a, b)'s values to dst.
func (s *Single) QueryAppendCtx(_ context.Context, a, b int64, dst []int64) ([]int64, error) {
	return s.Query(a, b).Materialize(dst), nil
}

// QueryAggregateCtx returns [a, b)'s count and sum without copying.
func (s *Single) QueryAggregateCtx(_ context.Context, a, b int64) (count int, sum int64, err error) {
	res := s.Query(a, b)
	return res.Count(), res.Sum(), nil
}

// QueryBatchInto answers the ranges in input order into bb's arena. Each
// result is materialized at once — a later range may reorganize the
// column, so views cannot be held across the batch.
func (s *Single) QueryBatchInto(ctx context.Context, ranges []Range, bb *BatchBuffer) ([][]int64, error) {
	bb.reset(len(ranges))
	for i, r := range ranges {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := len(bb.vals)
		if r.Lo < r.Hi {
			bb.vals = s.Query(r.Lo, r.Hi).Materialize(bb.vals)
		}
		bb.offs[i] = [2]int{start, len(bb.vals)}
	}
	return bb.stitch(), nil
}

// Insert queues v, merged by the first query whose range covers it
// (Ripple merge, [17]).
func (s *Single) Insert(v int64) error {
	s.ix.Insert(v)
	return nil
}

// Delete queues the removal of one occurrence of v, like Insert.
func (s *Single) Delete(v int64) error {
	s.ix.Delete(v)
	return nil
}

// ApplyOps queues a write batch in order; with no lock to wait for, only
// apply is measured.
func (s *Single) ApplyOps(ops []Op) (lockWait, apply time.Duration, err error) {
	start := time.Now()
	applyRuns(s.ix, ops)
	return 0, time.Since(start), nil
}

// Pending returns the number of queued, not-yet-merged updates.
func (s *Single) Pending() int { return s.ix.Pending() }

// Stats reports the index's counters.
func (s *Single) Stats() core.Stats { return s.ix.Stats() }

// PathStats is zero: Single mode has no read/write paths.
func (s *Single) PathStats() (reads, writes int64) { return 0, 0 }

// Name identifies the algorithm (e.g. "dd1r").
func (s *Single) Name() string { return s.ix.Unwrap().Name() }

// Capture visits the whole domain with the index directly: there is
// nothing concurrent to drain.
func (s *Single) Capture(fn func(lo, hi int64, inner Index)) {
	fn(math.MinInt64, math.MaxInt64, s.ix)
}
