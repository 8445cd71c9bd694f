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
// on single-column DBs and tables alike, and through QueryAppend on a
// sharded DB when the range falls inside one shard — a contract enforced
// by AllocsPerRun regression tests. (One exception:
// results wide enough to take the parallel bulk copy — megabytes — spend
// a few fixed coordination allocations to copy on all cores.)

// QueryAppend answers the predicate like Query, appending the qualifying
// values to dst and returning it, append-style: the caller owns dst
// before and after. A converged query allocates nothing in every mode and
// on tables; on a sharded DB that holds for ranges inside one shard,
// while wider ones append the fan-out's answer. Multi-range predicates
// append their ranges in ascending order, matching Query's
// concatenation.
func (db *DB) QueryAppend(ctx context.Context, p Predicate, dst []int64) ([]int64, error) {
	if err := db.check(ctx); err != nil {
		return dst, err
	}
	c, err := db.resolve(p)
	if err != nil {
		return dst, err
	}
	if lo, hi, ok := p.singleRange(); ok {
		if lo >= hi {
			return dst, nil
		}
		return c.QueryAppendCtx(ctx, lo, hi, dst)
	}
	for _, r := range p.rangeList() {
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		if dst, err = c.QueryAppendCtx(ctx, r[0], r[1], dst); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// BatchBuffer holds the reusable state of DB.QueryBatchAppend: the range
// scratch, the result headers and the executor's arena every result is a
// subslice of. The zero value is ready for use.
type BatchBuffer struct {
	eb     exec.BatchBuffer
	ranges []exec.Range
	out    [][]int64
}

// QueryBatchAppend answers many predicates like QueryBatch, materializing
// every result into bb instead of fresh allocations. Each returned slice
// is a capacity-capped subslice of bb's arena, in input-predicate order,
// valid until bb's next use; callers retaining results longer copy them
// out. Once bb has warmed to the workload's sizes, a batch of converged
// single-range predicates on one column runs allocation-free in Single
// and Shared modes, column or table; a Sharded database answers into bb
// too but allocates its per-shard sub-batches. Batches containing
// multi-range (Or) predicates or spanning columns fall back to QueryBatch
// internally — same answers, fresh slices.
func (db *DB) QueryBatchAppend(ctx context.Context, ps []Predicate, bb *BatchBuffer) ([][]int64, error) {
	if err := db.check(ctx); err != nil {
		return nil, err
	}
	bb.ranges = bb.ranges[:0]
	var col *exec.Column
	for i, p := range ps {
		c, err := db.resolve(p)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			col = c
		}
		lo, hi, ok := p.singleRange()
		if !ok || c != col {
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
		bb.ranges = append(bb.ranges, exec.Range{Lo: lo, Hi: hi})
	}
	if col == nil {
		return bb.out[:0], nil
	}
	return col.QueryBatchInto(ctx, bb.ranges, &bb.eb)
}
