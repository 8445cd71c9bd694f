package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dberr"
	"repro/internal/hybrids"
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
	// fn must not retain inner; the first error stops the walk.
	Capture(fn func(lo, hi int64, inner Index) error) error
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
// reorganizes in place, and serves it in mode. Specs core does not know
// fall back to the partition/merge hybrids (with their default source
// partition count); Sharded mode cannot run those and fails with
// errors.ErrUnsupported.
func Build(values []int64, spec string, mode Mode, opt core.Options) (Backend, error) {
	if mode.Kind == ModeSharded {
		s, err := NewSharded(values, spec, mode.Shards, opt)
		if errors.Is(err, dberr.ErrUnknownAlgorithm) && slices.Contains(hybrids.Specs(), spec) {
			return nil, fmt.Errorf("exec: algorithm %q in sharded mode: %w", spec, errors.ErrUnsupported)
		}
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	ix, err := core.Build(values, spec, opt)
	if errors.Is(err, dberr.ErrUnknownAlgorithm) {
		h, herr := hybrids.Build(values, spec, hybrids.Options{
			Seed:      opt.Seed,
			CrackSize: opt.CrackSize,
		})
		if herr != nil {
			return nil, herr
		}
		ix, err = h, nil
	}
	if err != nil {
		return nil, err
	}
	u, _ := updates.Wrap(ix)
	return serve(ix, u, mode), nil
}

// Restore rebuilds a backend in mode from manifest parts, validating every
// crack invariant and re-queuing the parts' pending updates. Single and
// Shared merge the parts into one state (old part bounds become cracks);
// Sharded(k) re-cuts them along k-1 bounds — the parts' own when k
// matches, else SplitBounds — without losing cracks. spec selects who
// continues the cracking: crack state is algorithm-agnostic.
func Restore(parts snapshot.Parts, spec string, mode Mode, opt core.Options) (Backend, error) {
	if mode.Kind != ModeSharded {
		ix, u, err := restore(parts.Merged(), spec, opt)
		if err != nil {
			return nil, err
		}
		return serve(ix, u, mode), nil
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
	s, err := RestoreSharded(states, bounds, spec, opt)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// restore rebuilds one engine from st and wraps it for updates, re-queuing
// the state's pending updates; u is nil when the algorithm takes no
// updates, and then st must carry none.
func restore(st core.SnapshotState, spec string, opt core.Options) (core.Index, *updates.Index, error) {
	ix, err := core.Restore(st, spec, opt)
	if err != nil {
		return nil, nil, err
	}
	u, _ := updates.Wrap(ix)
	if st.Pending() > 0 {
		if u == nil {
			return nil, nil, fmt.Errorf("exec: %s: snapshot carries %d pending updates: %w",
				spec, st.Pending(), dberr.ErrUpdatesUnsupported)
		}
		u.SeedPending(st.PendingInserts, st.PendingDeletes)
	}
	return ix, u, nil
}

// serve puts one index (u its update wrapper, nil when it takes no
// updates) behind mode's single-index backend.
func serve(ix core.Index, u *updates.Index, mode Mode) Backend {
	if mode.Kind == ModeSingle {
		return &Single{inner: ix, upd: u}
	}
	return shared(ix, u)
}

// shared wraps an index in an Executor, through its update wrapper when it
// has one.
func shared(ix core.Index, u *updates.Index) *Executor {
	if u != nil {
		return New(u)
	}
	// Hybrids (and the sorted baseline) expose no convergence probe; the
	// executor serves them entirely under the exclusive lock.
	return New(ix)
}

// CaptureParts captures b's physical state as manifest parts, one per part
// Capture visits, with pending updates carried in each state's queues (a
// restore re-queues them; nothing is merged). Only engine-backed
// algorithms serialize; the hybrids fail with dberr.ErrSnapshotUnsupported.
func CaptureParts(b Backend) (snapshot.Parts, error) {
	var parts snapshot.Parts
	err := b.Capture(func(lo, hi int64, inner Index) error {
		acc, ok := inner.(engineAccessor)
		if !ok {
			return fmt.Errorf("exec: %s: %w", inner.Name(), dberr.ErrSnapshotUnsupported)
		}
		st := acc.Engine().Snapshot()
		if u, ok := inner.(*updates.Index); ok {
			st.PendingInserts, st.PendingDeletes = u.PendingSnapshot()
		}
		parts = append(parts, snapshot.ClampedPart(lo, hi, st))
		return nil
	})
	return parts, err
}

// PieceSizes returns b's piece sizes in tuples, in value order across its
// parts. Algorithms without an engine fail with errors.ErrUnsupported.
func PieceSizes(b Backend) ([]int, error) {
	var sizes []int
	err := b.Capture(func(_, _ int64, inner Index) error {
		acc, ok := inner.(engineAccessor)
		if !ok {
			return fmt.Errorf("exec: %s: piece sizes: %w", inner.Name(), errors.ErrUnsupported)
		}
		e := acc.Engine()
		sizes = append(sizes, stats.SizesFromBounds(e.CrackerIndex().Pieces(e.Column().Len()))...)
		return nil
	})
	return sizes, err
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
	inner core.Index     // the algorithm itself
	upd   *updates.Index // nil when the algorithm cannot take updates
}

// Query answers [a, b), merging the pending updates it covers first.
func (s *Single) Query(a, b int64) core.Result {
	if s.upd != nil {
		return s.upd.Query(a, b)
	}
	return s.inner.Query(a, b)
}

// Engine exposes the index's engine (nil for the hybrids); table
// projection reads its row ids.
func (s *Single) Engine() *core.Engine {
	if acc, ok := s.inner.(engineAccessor); ok {
		return acc.Engine()
	}
	return nil
}

// Merged returns the number of updates merged into the column so far.
func (s *Single) Merged() int64 {
	if s.upd == nil {
		return 0
	}
	return s.upd.Merged()
}

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
// (Ripple merge, [17]); sorted and hybrid stores fail with
// dberr.ErrUpdatesUnsupported.
func (s *Single) Insert(v int64) error {
	if s.upd == nil {
		return s.unsupported()
	}
	s.upd.Insert(v)
	return nil
}

// Delete queues the removal of one occurrence of v, like Insert.
func (s *Single) Delete(v int64) error {
	if s.upd == nil {
		return s.unsupported()
	}
	s.upd.Delete(v)
	return nil
}

// ApplyOps queues a write batch in order; with no lock to wait for, only
// apply is measured.
func (s *Single) ApplyOps(ops []Op) (lockWait, apply time.Duration, err error) {
	if s.upd == nil {
		return 0, 0, s.unsupported()
	}
	start := time.Now()
	applyRuns(s.upd, ops)
	return 0, time.Since(start), nil
}

func (s *Single) unsupported() error {
	return fmt.Errorf("exec: %s: %w", s.inner.Name(), dberr.ErrUpdatesUnsupported)
}

// Pending returns the number of queued, not-yet-merged updates.
func (s *Single) Pending() int {
	if s.upd == nil {
		return 0
	}
	return s.upd.Pending()
}

// Stats reports the index's counters.
func (s *Single) Stats() core.Stats { return s.inner.Stats() }

// PathStats is zero: Single mode has no read/write paths.
func (s *Single) PathStats() (reads, writes int64) { return 0, 0 }

// Name identifies the algorithm (e.g. "dd1r").
func (s *Single) Name() string { return s.inner.Name() }

// Capture visits the whole domain with the index directly: there is
// nothing concurrent to drain.
func (s *Single) Capture(fn func(lo, hi int64, inner Index) error) error {
	var inner Index = s.inner
	if s.upd != nil {
		inner = s.upd
	}
	return fn(math.MinInt64, math.MaxInt64, inner)
}
