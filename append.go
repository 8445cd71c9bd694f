package crackdb

import (
	"context"

	"repro/internal/exec"
)

// The allocation-free form of the query API. Query and QueryBatch return
// owned results, which costs one fresh slice per call; latency-sensitive
// callers on the hot path reuse buffers instead: QueryAppend appends into
// a caller-owned slice, QueryBatchAppend materializes a whole batch into
// a reusable BatchBuffer arena. With warmed buffers, a converged query —
// one whose bounds are exact cracks or fall in pieces too small to split —
// performs zero heap allocations end to end in Single and Shared modes,
// a contract enforced by AllocsPerRun regression tests. (One exception:
// results wide enough to take the parallel bulk copy — megabytes — spend
// a few fixed coordination allocations to copy on all cores.)

// QueryAppend answers the predicate like Query, appending the qualifying
// values to dst and returning it, append-style: the caller owns dst
// before and after. Sharded and table modes answer through their fan-out
// paths and append the result, so they stay correct but allocate
// internally. Multi-range predicates append their ranges in ascending
// order, matching Query's concatenation.
func (db *DB) QueryAppend(ctx context.Context, p Predicate, dst []int64) ([]int64, error) {
	if err := db.check(ctx); err != nil {
		return dst, err
	}
	col, err := db.resolveColumn(p)
	if err != nil {
		return dst, err
	}
	if lo, hi, ok := p.singleRange(); ok {
		if lo >= hi {
			return dst, nil
		}
		return db.appendRange(ctx, col, lo, hi, dst)
	}
	for _, r := range p.rangeList() {
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		dst, err = db.appendRange(ctx, col, r[0], r[1], dst)
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendRange answers one half-open range on one column, appending into
// dst in the DB's mode.
func (db *DB) appendRange(ctx context.Context, col string, lo, hi int64, dst []int64) ([]int64, error) {
	switch {
	case db.ix != nil:
		res := db.ix.query(lo, hi)
		return res.Materialize(dst), nil
	case db.x != nil:
		return db.x.QueryAppendCtx(ctx, lo, hi, dst)
	case db.sh != nil:
		vals, err := db.sh.QueryCtx(ctx, lo, hi)
		if err != nil {
			return dst, err
		}
		return append(dst, vals...), nil
	case db.stbl != nil:
		vals, err := db.stbl.Query(ctx, col, lo, hi)
		if err != nil {
			return dst, err
		}
		return append(dst, vals...), nil
	default:
		vals, err := db.tbl.Select(col, lo, hi)
		if err != nil {
			return dst, err
		}
		return append(dst, vals...), nil
	}
}

// BatchBuffer holds the reusable state of DB.QueryBatchAppend: the range
// scratch, per-predicate offsets, result headers and one value arena
// every result is a subslice of. The zero value is ready for use.
type BatchBuffer struct {
	eb     exec.BatchBuffer
	ranges []exec.Range
	out    [][]int64
	offs   [][2]int
	vals   []int64
}

// QueryBatchAppend answers many predicates like QueryBatch, materializing
// every result into bb instead of fresh allocations. Each returned slice
// is a capacity-capped subslice of bb's arena, in input-predicate order,
// valid until bb's next use; callers retaining results longer copy them
// out. Once bb has warmed to the workload's sizes, a batch of converged
// single-range predicates runs allocation-free in Single and Shared
// modes. Batches containing multi-range (Or) predicates, and Sharded or
// table databases, fall back to the allocating batch path internally —
// same answers, fresh slices.
func (db *DB) QueryBatchAppend(ctx context.Context, ps []Predicate, bb *BatchBuffer) ([][]int64, error) {
	if err := db.check(ctx); err != nil {
		return nil, err
	}
	bb.ranges = bb.ranges[:0]
	simple := true
	col := ""
	for i, p := range ps {
		c, err := db.resolveColumn(p)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			col = c
		}
		lo, hi, ok := p.singleRange()
		if !ok || c != col {
			simple = false
			break
		}
		bb.ranges = append(bb.ranges, exec.Range{Lo: lo, Hi: hi})
	}
	if !simple {
		// Multi-range predicates or a cross-column table batch: the
		// stitching belongs to QueryBatch; adopt its owned results.
		results, err := db.QueryBatch(ctx, ps)
		if err != nil {
			return nil, err
		}
		bb.out = bb.out[:0]
		for _, r := range results {
			bb.out = append(bb.out, r.Owned())
		}
		return bb.out, nil
	}

	switch {
	case db.x != nil:
		return db.x.QueryBatchInto(ctx, bb.ranges, &bb.eb)
	case db.ix != nil:
		// Single mode: answer in input order on the caller's goroutine,
		// materializing immediately — a later range may reorganize the
		// column, so views cannot be held across the batch. Offsets stay
		// valid while the arena grows; results are sliced at the end.
		if cap(bb.offs) < len(bb.ranges) {
			bb.offs = make([][2]int, len(bb.ranges))
		}
		bb.offs = bb.offs[:len(bb.ranges)]
		bb.vals = bb.vals[:0]
		for i, r := range bb.ranges {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			start := len(bb.vals)
			if r.Lo < r.Hi {
				res := db.ix.query(r.Lo, r.Hi)
				bb.vals = res.Materialize(bb.vals)
			}
			bb.offs[i] = [2]int{start, len(bb.vals)}
		}
		bb.out = bb.out[:0]
		for _, o := range bb.offs {
			bb.out = append(bb.out, bb.vals[o[0]:o[1]:o[1]])
		}
		return bb.out, nil
	default:
		// Sharded and single-column-table modes: the fan-out owns its
		// allocations; adopt its owned slices.
		parts, err := db.batchRanges(ctx, col, bb.ranges)
		if err != nil {
			return nil, err
		}
		bb.out = append(bb.out[:0], parts...)
		return bb.out, nil
	}
}
