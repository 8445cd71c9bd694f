package exec

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/updates"
)

// Sharded is a parallel cracking index: the column is value-range
// partitioned into k shards, each an independent engine-backed index
// behind its own adaptive Executor, and queries fan out to the shards
// their range intersects. It addresses the paper's §6 "distribution"
// direction at the scale of one process: physical reorganization never
// crosses a shard boundary, so disjoint shards crack independently, and
// within a shard the executor lets converged queries run in parallel.
//
// Shard boundaries are chosen by sampling so each shard holds roughly the
// same number of tuples. Single-shard queries are served inline on the
// calling goroutine; multi-shard queries offload the extra shards to the
// process-wide bounded worker pool. Results are returned materialized
// (shards are not contiguous with one another).
//
// Updates route by value: each shard is wrapped with the pending-update
// machinery (when the algorithm is engine-backed), and Insert/Delete hand
// the value to the one shard whose range owns it, where it merges lazily
// like on any single index.
type Sharded struct {
	shards []shard
	spec   string
	q      atomic.Int64
}

type shard struct {
	lo, hi int64 // value range [lo, hi) this shard owns
	ex     *Executor
}

// NewSharded builds a sharded index: values are split into k value-range
// shards, each indexed independently with the given algorithm spec.
func NewSharded(values []int64, spec string, k int, opt core.Options) (*Sharded, error) {
	if k < 1 {
		k = 1
	}
	if k > len(values) && len(values) > 0 {
		k = len(values)
	}
	bounds := shardBounds(values, k, opt.Seed)
	// Count first, so each bucket is allocated once at its exact size: the
	// build copies the column once.
	sizes := make([]int, len(bounds)+1)
	for _, v := range values {
		sizes[bucketOf(bounds, v)]++
	}
	buckets := make([][]int64, len(sizes))
	for i, n := range sizes {
		buckets[i] = make([]int64, 0, n)
	}
	for _, v := range values {
		i := bucketOf(bounds, v)
		buckets[i] = append(buckets[i], v)
	}
	s := &Sharded{spec: spec}
	lo := int64(math.MinInt64)
	for i, b := range buckets {
		hi := int64(math.MaxInt64)
		if i < len(bounds) {
			hi = bounds[i]
		}
		ix, err := core.Build(b, spec, opt)
		if err != nil {
			return nil, fmt.Errorf("exec: sharded: %w", err)
		}
		u, _ := updates.Wrap(ix)
		s.shards = append(s.shards, shard{lo: lo, hi: hi, ex: shared(ix, u)})
		lo = hi
	}
	return s, nil
}

// RestoreSharded rebuilds a sharded index from per-shard snapshot states
// and the k-1 interior bounds separating them (strictly ascending; shard
// i owns [bounds[i-1], bounds[i]), the first and last extending to the
// domain edges). Each state is validated and restored through
// core.Restore, so the shards resume with every crack earned before the
// snapshot; the caller (the facade's OpenSnapshot) is responsible for
// cutting a manifest along these bounds first.
func RestoreSharded(states []core.SnapshotState, bounds []int64, spec string, opt core.Options) (*Sharded, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("exec: sharded restore: no shard states")
	}
	if len(bounds) != len(states)-1 {
		return nil, fmt.Errorf("exec: sharded restore: %d bounds for %d shards", len(bounds), len(states))
	}
	s := &Sharded{spec: spec}
	lo := int64(math.MinInt64)
	for i, st := range states {
		hi := int64(math.MaxInt64)
		if i < len(bounds) {
			hi = bounds[i]
		}
		if hi <= lo {
			return nil, fmt.Errorf("exec: sharded restore: bounds not ascending at shard %d", i)
		}
		ix, u, err := restore(st, spec, opt)
		if err != nil {
			return nil, fmt.Errorf("exec: sharded restore: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, shard{lo: lo, hi: hi, ex: shared(ix, u)})
		lo = hi
	}
	return s, nil
}

// shardBounds picks k-1 splitting values by sampling and sorting. The
// sample strides over the unsorted input, with the stride offset seeded so
// different seeds probe different tuples; the input is workload data,
// typically a shuffle, so strided sampling is unbiased — worst case we get
// uneven shards, never wrong results.
func shardBounds(values []int64, k int, seed uint64) []int64 {
	if k <= 1 || len(values) == 0 {
		return nil
	}
	const perShard = 32
	sampleSize := k * perShard
	if sampleSize > len(values) {
		sampleSize = len(values)
	}
	stride := len(values) / sampleSize
	if stride < 1 {
		stride = 1
	}
	start := int(seed % uint64(stride))
	sample := make([]int64, 0, sampleSize)
	for i := start; i < len(values) && len(sample) < sampleSize; i += stride {
		sample = append(sample, values[i])
	}
	insertionSort(sample)
	bounds := make([]int64, 0, k-1)
	for i := 1; i < k; i++ {
		b := sample[i*len(sample)/k]
		if len(bounds) == 0 || b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	return bounds
}

func insertionSort(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func bucketOf(bounds []int64, v int64) int {
	// Linear scan: bounds is small (k-1) and this is load-time only.
	for i, b := range bounds {
		if v < b {
			return i
		}
	}
	return len(bounds)
}

// intersect returns the index range [first, last] of shards whose value
// range intersects [a, b); ok is false when no shard does.
func (s *Sharded) intersect(a, b int64) (first, last int, ok bool) {
	first = -1
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.hi <= a || sh.lo >= b {
			continue
		}
		if first < 0 {
			first = i
		}
		last = i
	}
	return first, last, first >= 0
}

// shardFor returns the shard whose value range owns v. Shard ranges tile
// the whole int64 domain, with the last shard absorbing the top edge.
func (s *Sharded) shardFor(v int64) *shard {
	return &s.shards[s.shardIndexFor(v)]
}

// shardIndexFor is shardFor returning the shard's index.
func (s *Sharded) shardIndexFor(v int64) int {
	for i := range s.shards {
		if v < s.shards[i].hi {
			return i
		}
	}
	return len(s.shards) - 1
}

// fanOut runs work(si) for every shard in [first, last]: all but the
// first are offloaded to the bounded worker pool (running inline when it
// is saturated), the first runs on the calling goroutine, and fanOut
// returns when every shard finished. Tasks must be independent.
func (s *Sharded) fanOut(first, last int, work func(si int)) {
	var wg sync.WaitGroup
	for i := first + 1; i <= last; i++ {
		idx := i
		wg.Add(1)
		task := func() {
			work(idx)
			wg.Done()
		}
		if !pool.Submit(task) {
			task()
		}
	}
	work(first)
	wg.Wait()
}

// QueryCtx answers [a, b) as one owned slice, every intersected shard
// answering through its QueryAppendCtx. A query intersecting a single
// shard runs inline on the calling goroutine; wider queries offload the
// extra shards to the worker pool. The context is propagated to every
// intersected shard's executor, so a canceled context aborts the remaining
// per-shard work (already-running shard queries finish their current
// range, then stop). Sharded is safe for concurrent use.
func (s *Sharded) QueryCtx(ctx context.Context, a, b int64) ([]int64, error) {
	s.q.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if a >= b {
		return nil, nil
	}
	first, last, ok := s.intersect(a, b)
	if !ok {
		return nil, nil
	}
	if first == last {
		return s.shards[first].ex.QueryAppendCtx(ctx, a, b, nil)
	}
	parts := make([][]int64, last-first+1)
	errs := make([]error, last-first+1)
	s.fanOut(first, last, func(si int) {
		parts[si-first], errs[si-first] = s.shards[si].ex.QueryAppendCtx(ctx, a, b, nil)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return slices.Concat(parts...), nil
}

// View is QueryCtx as an owned Result.
func (s *Sharded) View(ctx context.Context, a, b int64) (core.Result, error) {
	vals, err := s.QueryCtx(ctx, a, b)
	return core.NewOwnedResult(vals), err
}

// QueryAppendCtx answers [a, b) appending to dst. A range inside one shard
// runs that shard's QueryAppendCtx, so a converged one allocates nothing;
// wider ranges append the fan-out's answer.
func (s *Sharded) QueryAppendCtx(ctx context.Context, a, b int64, dst []int64) ([]int64, error) {
	if first, last, ok := s.intersect(a, b); ok && first == last && a < b {
		s.q.Add(1)
		return s.shards[first].ex.QueryAppendCtx(ctx, a, b, dst)
	}
	vals, err := s.QueryCtx(ctx, a, b)
	return append(dst, vals...), err
}

// QueryAggregateCtx answers [a, b) returning only (count, sum), fanning
// the aggregate out to the intersected shards without materializing any
// values.
func (s *Sharded) QueryAggregateCtx(ctx context.Context, a, b int64) (count int, sum int64, err error) {
	s.q.Add(1)
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	if a >= b {
		return 0, 0, nil
	}
	first, last, ok := s.intersect(a, b)
	if !ok {
		return 0, 0, nil
	}
	if first == last {
		return s.shards[first].ex.QueryAggregateCtx(ctx, a, b)
	}
	counts := make([]int, last-first+1)
	sums := make([]int64, last-first+1)
	errs := make([]error, last-first+1)
	s.fanOut(first, last, func(si int) {
		counts[si-first], sums[si-first], errs[si-first] = s.shards[si].ex.QueryAggregateCtx(ctx, a, b)
	})
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	for i := range counts {
		count += counts[i]
		sum += sums[i]
	}
	return count, sum, nil
}

// QueryBatchInto answers many ranges into bb's arena, in input order,
// each range's values in shard (= ascending value) order; results are
// capacity-capped subslices valid until bb's next use. Ranges are grouped
// by shard so each intersected shard answers its whole sub-batch through
// its executor's QueryBatchInto (one or two lock acquisitions per shard,
// regardless of batch size), the sub-batches fanning out like a wide
// query. The context reaches every shard's batch, which re-checks it
// between ranges, so canceling while sub-batches are in flight abandons
// the remaining ranges on every shard; on cancellation only the error is
// returned.
func (s *Sharded) QueryBatchInto(ctx context.Context, ranges []Range, bb *BatchBuffer) ([][]int64, error) {
	s.q.Add(int64(len(ranges)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bb.reset(len(ranges))
	// Per shard: the sub-batch of input ranges intersecting it.
	subs := make([][]Range, len(s.shards))
	first, last := len(s.shards), -1
	for _, r := range ranges {
		f, l, ok := s.intersect(r.Lo, r.Hi)
		if !ok || r.Lo >= r.Hi {
			continue
		}
		for si := f; si <= l; si++ {
			subs[si] = append(subs[si], r)
		}
		first, last = min(first, f), max(last, l)
	}
	if last < 0 {
		return bb.stitch(), nil
	}
	parts := make([][][]int64, len(s.shards)) // parts[shard][pos in subs[shard]]
	errs := make([]error, len(s.shards))
	s.fanOut(first, last, func(si int) {
		if len(subs[si]) > 0 {
			parts[si], errs[si] = s.shards[si].ex.QueryBatchInto(ctx, subs[si], new(BatchBuffer))
		}
	})
	total := 0
	for si, err := range errs {
		if err != nil {
			return nil, err
		}
		for _, p := range parts[si] {
			total += len(p)
		}
	}
	// Stitch shard answers back per range, in shard order.
	bb.vals = slices.Grow(bb.vals, total)
	pos := make([]int, len(s.shards))
	for i, r := range ranges {
		start := len(bb.vals)
		if f, l, ok := s.intersect(r.Lo, r.Hi); ok && r.Lo < r.Hi {
			for si := f; si <= l; si++ {
				bb.vals = append(bb.vals, parts[si][pos[si]]...)
				pos[si]++
			}
		}
		bb.offs[i] = [2]int{start, len(bb.vals)}
	}
	return bb.stitch(), nil
}

// Insert queues value v for insertion on the shard whose value range owns
// it; the shard merges it lazily like any single index. It errors when the
// algorithm cannot take updates.
func (s *Sharded) Insert(v int64) error { return s.shardFor(v).ex.Insert(v) }

// Delete queues the removal of one occurrence of v, like Insert.
func (s *Sharded) Delete(v int64) error { return s.shardFor(v).ex.Delete(v) }

// ApplyOps routes a batch of updates to the shards owning each value and
// applies every shard's sub-batch under one exclusive section (see
// Executor.ApplyOps): k shards touched means k lock handshakes for the
// whole batch, not one per value. lockWait and apply are summed across
// the touched shards.
func (s *Sharded) ApplyOps(ops []Op) (lockWait, apply time.Duration, err error) {
	if len(ops) == 0 {
		return 0, 0, nil
	}
	if len(s.shards) == 1 {
		return s.shards[0].ex.ApplyOps(ops)
	}
	per := make([][]Op, len(s.shards))
	for _, op := range ops {
		si := s.shardIndexFor(op.Value)
		per[si] = append(per[si], op)
	}
	for si, sub := range per {
		if len(sub) == 0 {
			continue
		}
		lw, ap, err := s.shards[si].ex.ApplyOps(sub)
		lockWait += lw
		apply += ap
		if err != nil {
			return lockWait, apply, err
		}
	}
	return lockWait, apply, nil
}

// Pending returns the number of queued, not-yet-merged updates across all
// shards.
func (s *Sharded) Pending() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].ex.Pending()
	}
	return total
}

// Name identifies the configuration (e.g. "sharded-8(dd1r)").
func (s *Sharded) Name() string {
	return fmt.Sprintf("sharded-%d(%s)", len(s.shards), s.spec)
}

// Stats aggregates physical-cost counters across shards.
func (s *Sharded) Stats() core.Stats {
	agg := core.Stats{Queries: s.q.Load()}
	for i := range s.shards {
		st := s.shards[i].ex.Stats()
		agg.Touched += st.Touched
		agg.Swaps += st.Swaps
		agg.Cracks += st.Cracks
		agg.Pieces += st.Pieces
	}
	return agg
}

// PathStats aggregates the shards' read-path vs write-path query counts
// (see Executor.PathStats). A multi-shard query contributes once per shard
// it touched: the counters measure executor lock traffic, not client
// queries.
func (s *Sharded) PathStats() (reads, writes int64) {
	for i := range s.shards {
		r, w := s.shards[i].ex.PathStats()
		reads += r
		writes += w
	}
	return reads, writes
}

// ExclusiveAll runs fn with every shard's executor drained at once, so
// fn observes one atomic cut of the whole index — no query or update can
// complete on any shard between the first lock and fn's return.
// Snapshots need this: draining shards one at a time would let updates
// land on later shards after earlier ones were captured, producing a
// state that never existed at any instant. Locks are taken in shard
// order; every other path holds at most one shard lock at a time, so the
// ordering cannot deadlock.
func (s *Sharded) ExclusiveAll(fn func(inners []Index)) {
	inners := make([]Index, 0, len(s.shards))
	var acquire func(i int)
	acquire = func(i int) {
		if i == len(s.shards) {
			fn(inners)
			return
		}
		s.shards[i].ex.Exclusive(func(inner Index) {
			inners = append(inners, inner)
			acquire(i + 1)
		})
	}
	acquire(0)
}

// Capture runs fn on every shard's range under ExclusiveAll, in shard
// order.
func (s *Sharded) Capture(fn func(lo, hi int64, inner Index) error) (err error) {
	s.ExclusiveAll(func(inners []Index) {
		for i, inner := range inners {
			if err = fn(s.shards[i].lo, s.shards[i].hi, inner); err != nil {
				return
			}
		}
	})
	return err
}
