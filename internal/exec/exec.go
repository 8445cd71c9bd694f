// Package exec is the unified concurrent execution layer for adaptive
// indexes: one adaptive read/write locking discipline that every
// goroutine-safe path in the repository routes through (the facade's
// DB handle and Synchronized wrapper, the sharded index, the benchmark
// harness). It also owns Backend (backend.go), the one per-column surface
// the facade and internal/table serve every column through, in every
// mode.
//
// Cracking inverts the usual reader/writer economics — every query may
// physically reorganize the column, so a mutual-exclusion lock is the
// correct naive baseline (the paper leaves finer-grained schemes to future
// work, §6). But cracking also converges: after enough queries the pieces
// around most query bounds are exact cracks or too small to be worth
// splitting, and those queries reorganize nothing. Alvarez et al.
// (arXiv:1404.2034) show that exploiting exactly this is where the payoff
// of parallel adaptive indexing comes from. The Executor therefore probes
// each query with the index's non-mutating TryAnswerReadOnly, which fuses
// the convergence probe into the answer: a converged query is answered
// read-only under a shared lock, in parallel with other converged queries,
// while a reorganizing query takes the write lock. On a converged
// workload throughput scales with GOMAXPROCS instead of being serialized
// behind one mutex.
//
// The shared lock is striped per P (stripes.go): a converged read locks,
// counts itself on and unlocks only its own P's stripe, so parallel reads
// write no cache line another reader writes. A writer — a reorganizing
// query, an update, Exclusive — locks every stripe in index order.
//
// Every query path takes a context.Context and honors cancellation at the
// points where a long operation can be abandoned cheaply: before taking a
// lock, after winning a contended write lock (the wait may have outlived
// the caller), and between the ranges of a batch. A canceled context
// never leaves the index in an inconsistent state — cracking is abandoned
// only between queries, never inside one.
package exec

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dberr"
)

// Index is the surface the executor drives: any single-threaded adaptive
// index (core algorithms, hybrids, the updates wrapper). The executor
// assumes exclusive ownership of it.
type Index interface {
	Query(a, b int64) core.Result
	Name() string
	Stats() core.Stats
}

// prober is the optional fast-path surface: fused convergence probe plus
// read-only answer, sharing one cracker-index descent (see
// core.Engine.TryAnswerReadOnly). core.Engine implements it directly;
// updates.Index implements it with a pending-update check layered on top.
type prober interface {
	TryAnswerReadOnly(a, b int64, dst []int64) (_ []int64, ok bool)
	TryAnswerReadOnlyAggregate(a, b int64) (count int, sum int64, ok bool)
}

// inserter is the optional update surface (the updates wrapper).
type inserter interface {
	Insert(v int64)
	Delete(v int64)
}

// bulkInserter is the optional bulk update surface (updates.Index): a
// whole batch of values merges into the sorted pending queues in one
// pass instead of one binary-search-and-copy per value.
type bulkInserter interface {
	InsertMany(vs []int64)
	DeleteMany(vs []int64)
}

// engineAccessor is satisfied by every engine-backed core index.
type engineAccessor interface {
	Engine() *core.Engine
}

// Range is one half-open value range [Lo, Hi) of a batched query.
type Range struct {
	Lo, Hi int64
}

// Executor makes an Index safe for concurrent use with adaptive read/write
// locking. Results are returned as owned slices, safe to retain.
type Executor struct {
	mu    stripeLock
	inner Index
	p     prober   // nil: every query takes the write lock
	ins   inserter // nil: updates unsupported

	writeQueries atomic.Int64 // queries answered under the exclusive lock
}

// New wraps inner. The fast read path engages when inner exposes a
// convergence probe — directly (updates.Index) or through an engine-backed
// core index — and degrades to exclusive locking otherwise (hybrids).
func New(inner Index) *Executor {
	x := &Executor{inner: inner}
	x.mu.init()
	if p, ok := inner.(prober); ok {
		x.p = p
	} else if acc, ok := inner.(engineAccessor); ok {
		x.p = acc.Engine()
	}
	if ins, ok := inner.(inserter); ok {
		x.ins = ins
	}
	return x
}

// View answers [a, b) as an owned Result: QueryAppendCtx into a fresh
// slice.
func (x *Executor) View(ctx context.Context, a, b int64) (core.Result, error) {
	vals, err := x.QueryAppendCtx(ctx, a, b, nil)
	return core.NewOwnedResult(vals), err
}

// QueryAppendCtx answers [a, b) appending the qualifying values to dst
// and returning it, like append: the caller owns dst before and after.
// With a reused buffer of sufficient capacity a converged query performs
// zero heap allocations end to end — the probe, the piece scans and the
// append all run on caller- or engine-owned memory (see the AllocsPerRun
// regression tests). Reorganizing queries take the write lock and
// materialize into dst with one exact-size grow. It returns ctx.Err()
// without touching the index when the context is already done, and again
// after winning a contended write lock, since the wait may have outlived
// the caller.
func (x *Executor) QueryAppendCtx(ctx context.Context, a, b int64, dst []int64) ([]int64, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if x.p != nil {
		s := x.mu.rlock()
		out, ok := x.p.TryAnswerReadOnly(a, b, dst)
		if ok {
			s.reads.Add(1)
		}
		x.mu.runlock(s)
		if ok {
			return out, nil
		}
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	x.writeQueries.Add(1)
	res := x.inner.Query(a, b)
	return res.Materialize(slices.Grow(dst, res.Count())), nil
}

// QueryAggregateCtx answers [a, b) returning only (count, sum), skipping
// the copy when the caller needs aggregates; cancellation as in
// QueryAppendCtx.
func (x *Executor) QueryAggregateCtx(ctx context.Context, a, b int64) (count int, sum int64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	if x.p != nil {
		s := x.mu.rlock()
		count, sum, ok := x.p.TryAnswerReadOnlyAggregate(a, b)
		if ok {
			s.reads.Add(1)
		}
		x.mu.runlock(s)
		if ok {
			return count, sum, nil
		}
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	x.writeQueries.Add(1)
	res := x.inner.Query(a, b)
	return res.Count(), res.Sum(), nil
}

// sortedOrder fills order with 0..len(ranges)-1 sorted ascending by
// range: sorted bounds crack the column left to right, which keeps piece
// lookups and memory access local during the exclusive pass.
func sortedOrder(ranges []Range, order []int) {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		ri, rj := ranges[i], ranges[j]
		if c := cmp.Compare(ri.Lo, rj.Lo); c != 0 {
			return c
		}
		return cmp.Compare(ri.Hi, rj.Hi)
	})
}

// BatchBuffer holds the reusable state of QueryBatchInto: the result
// headers, the ordering scratch, the per-range offsets and one value
// arena every result is a subslice of. The zero value is ready for use;
// reusing one across calls makes converged batches allocation-free once
// the buffers have warmed to the workload's sizes.
type BatchBuffer struct {
	out   [][]int64
	order []int
	offs  [][2]int
	vals  []int64
}

// reset readies the buffer for n ranges, keeping every backing array.
func (bb *BatchBuffer) reset(n int) {
	bb.out = resetLen(bb.out, n)
	bb.order = resetLen(bb.order, n)
	bb.offs = resetLen(bb.offs, n)
	bb.vals = bb.vals[:0]
}

func resetLen[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// QueryBatchInto answers many ranges with at most two lock acquisitions:
// one shared pass answering every converged range, then — only if some
// ranges still need reorganization — one exclusive pass answering the rest
// in ascending range order (sorted bounds crack the column left to right,
// which keeps piece lookups and memory access local). Every result is a
// capacity-capped subslice of bb's value arena, in input-range order and
// valid until bb's next use (callers retaining results longer copy them
// out, or simply keep the buffer); the returned slice aliases bb. The
// context is re-checked between the ranges of the exclusive pass — the
// expensive one, where each range may crack the column — so a long batch
// aborts cleanly mid-way; on cancellation only the error is returned.
func (x *Executor) QueryBatchInto(ctx context.Context, ranges []Range, bb *BatchBuffer) ([][]int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bb.reset(len(ranges))
	if len(ranges) == 0 {
		return bb.out, nil
	}
	sortedOrder(ranges, bb.order)

	pending := bb.order[:0] // reuses order's backing array; reads stay ahead
	if x.p != nil {
		reads := int64(0)
		s := x.mu.rlock()
		for _, i := range bb.order {
			r := ranges[i]
			start := len(bb.vals)
			if res, ok := x.p.TryAnswerReadOnly(r.Lo, r.Hi, bb.vals); ok {
				bb.vals = res
				bb.offs[i] = [2]int{start, len(bb.vals)}
				reads++
			} else {
				pending = append(pending, i)
			}
		}
		s.reads.Add(reads)
		x.mu.runlock(s)
	} else {
		pending = bb.order
	}
	if len(pending) > 0 {
		x.mu.Lock()
		for _, i := range pending {
			if err := ctx.Err(); err != nil {
				x.mu.Unlock()
				return nil, err
			}
			r := ranges[i]
			x.writeQueries.Add(1)
			res := x.inner.Query(r.Lo, r.Hi)
			start := len(bb.vals)
			bb.vals = res.Materialize(slices.Grow(bb.vals, res.Count()))
			bb.offs[i] = [2]int{start, len(bb.vals)}
		}
		x.mu.Unlock()
	}
	return bb.stitch(), nil
}

// stitch slices every result out of the arena. Offsets stay valid across
// arena growth, so slicing happens only after the last append.
func (bb *BatchBuffer) stitch() [][]int64 {
	for i, o := range bb.offs {
		bb.out[i] = bb.vals[o[0]:o[1]:o[1]]
	}
	return bb.out
}

// Insert queues value v for insertion (merged into the column by the first
// query whose range covers it). It errors when the wrapped index cannot
// take updates.
func (x *Executor) Insert(v int64) error {
	if x.ins == nil {
		return fmt.Errorf("exec: %s: %w", x.inner.Name(), dberr.ErrUpdatesUnsupported)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ins.Insert(v)
	return nil
}

// Delete queues the removal of one occurrence of v, like Insert.
func (x *Executor) Delete(v int64) error {
	if x.ins == nil {
		return fmt.Errorf("exec: %s: %w", x.inner.Name(), dberr.ErrUpdatesUnsupported)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ins.Delete(v)
	return nil
}

// Op is one element of a write batch: an insert of Value, or — with
// Delete set — the removal of one occurrence of Value.
type Op struct {
	Value  int64
	Delete bool
}

// ApplyOps queues a whole batch of updates under a single exclusive lock
// acquisition — the group-commit apply. Per-value Insert/Delete pays one
// write-lock handshake per value; ApplyOps pays one per batch, and when
// the wrapped index exposes the bulk surface (updates.Index) the batch
// merges into the sorted pending queues in one pass. It returns how long
// the batch waited for the exclusive section (lockWait) and how long it
// held it (apply), so callers can decompose write tail latency; the
// updates-unsupported error is returned before any lock is taken.
func (x *Executor) ApplyOps(ops []Op) (lockWait, apply time.Duration, err error) {
	if len(ops) == 0 {
		return 0, 0, nil
	}
	if x.ins == nil {
		return 0, 0, fmt.Errorf("exec: %s: %w", x.inner.Name(), dberr.ErrUpdatesUnsupported)
	}
	start := time.Now()
	x.mu.Lock()
	locked := time.Now()
	applyRuns(x.ins, ops)
	done := time.Now()
	x.mu.Unlock()
	return locked.Sub(start), done.Sub(locked), nil
}

// applyRuns queues ops in batch order. When ins exposes the bulk surface
// (updates.Index) it applies maximal same-kind runs. Order matters: a
// delete annihilates a pending insert queued before it, so a batch-wide
// insert/delete split would resolve an insert-then-delete pair
// differently from serial application.
func applyRuns(ins inserter, ops []Op) {
	bulk, ok := ins.(bulkInserter)
	if !ok {
		for _, op := range ops {
			if op.Delete {
				ins.Delete(op.Value)
			} else {
				ins.Insert(op.Value)
			}
		}
		return
	}
	for i := 0; i < len(ops); {
		j := i + 1
		for j < len(ops) && ops[j].Delete == ops[i].Delete {
			j++
		}
		run := make([]int64, 0, j-i)
		for _, op := range ops[i:j] {
			run = append(run, op.Value)
		}
		if ops[i].Delete {
			bulk.DeleteMany(run)
		} else {
			bulk.InsertMany(run)
		}
		i = j
	}
}

// Pending returns the number of queued, not-yet-merged updates (0 when
// the wrapped index cannot take updates).
func (x *Executor) Pending() int {
	if x.ins == nil {
		return 0
	}
	s := x.mu.rlock()
	defer x.mu.runlock(s)
	if p, ok := x.inner.(interface{ Pending() int }); ok {
		return p.Pending()
	}
	return 0
}

// Exclusive runs fn on the wrapped index under the exclusive lock, with
// every concurrent query drained. It is the escape hatch for whole-index
// operations that the executor does not model itself — snapshotting the
// physical state, counting pending updates — and must not be used to
// retain the inner index past fn's return.
func (x *Executor) Exclusive(fn func(inner Index)) {
	x.mu.Lock()
	defer x.mu.Unlock()
	fn(x.inner)
}

// Capture runs fn on the whole domain under Exclusive.
func (x *Executor) Capture(fn func(lo, hi int64, inner Index) error) (err error) {
	x.Exclusive(func(inner Index) { err = fn(math.MinInt64, math.MaxInt64, inner) })
	return err
}

// Name identifies the wrapped algorithm.
func (x *Executor) Name() string { return "exec(" + x.inner.Name() + ")" }

// Stats reports the wrapped index's counters. Queries answered on the read
// path never reach the wrapped index, so their count is added back in.
func (x *Executor) Stats() core.Stats {
	s := x.mu.rlock()
	st := x.inner.Stats()
	x.mu.runlock(s)
	st.Queries += x.mu.reads()
	return st
}

// PathStats reports how many queries ran under the shared read lock versus
// the exclusive write lock — the executor's adaptivity, observable.
func (x *Executor) PathStats() (reads, writes int64) {
	return x.mu.reads(), x.writeQueries.Load()
}
