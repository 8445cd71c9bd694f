package column

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/pool"
)

// Parallel crack-in-two: the multi-core partition kernel of "Main Memory
// Adaptive Indexing for Multi-core Systems" (Alvarez et al.) layered on
// this package's branchless serial kernel. The piece is cut into
// cacheline-aligned chunks, each chunk is partitioned independently by
// crackInTwoVals (on internal/pool workers plus the calling goroutine),
// and the per-chunk splits are merged by swapping the misplaced middle
// runs into place.
//
// Serial-equivalence contract: ParallelCrackInTwo returns exactly the
// split position CrackInTwo would return (the number of values < pivot is
// a property of the multiset, not of the kernel), and each side holds
// exactly the same multiset of values as after the serial kernel. Only the
// order of values *within* a side may differ — no engine invariant depends
// on it: cracks record (pivot, position) partition facts only.
//
// Pool contract: chunks are handed out by an atomic counter and the
// calling goroutine claims chunks in a loop alongside any pool workers it
// managed to enlist (pool.Submit is best-effort), so completion never
// depends on a worker being free and a saturated pool degrades to the
// serial kernel's behavior instead of deadlocking — the same discipline as
// core's bulk copy, which the pool's own documentation points to.
//
// Determinism: chunk geometry is a pure function of the piece length, and
// both phases write disjoint regions whose contents do not depend on
// execution order, so the resulting layout is identical across runs and
// GOMAXPROCS settings. (The layout differs from the serial kernel's within
// sides; tests that assert physically identical layouts must keep parallel
// cracking disabled.)
const (
	// parallelChunkAlign is the chunk-size granule in tuples: 512 tuples =
	// 4 KiB of values, a whole number of cache lines, so chunk boundaries
	// never split a line between two workers.
	parallelChunkAlign = 512
	// minParallelChunk is the smallest chunk worth coordinating over
	// (32768 tuples = 256 KiB); pieces below two of these take the serial
	// kernel unconditionally.
	minParallelChunk = 1 << 15
	// parallelTargetChunks bounds the chunk count so coordination stays
	// O(chunks) cheap while still leaving every realistic worker count
	// several chunks each for load balancing.
	parallelTargetChunks = 64
	// swapRunMax caps one merge-phase swap job (tuples), so a single huge
	// misplaced run is still spread across workers.
	swapRunMax = 1 << 16
)

// parallelChunk returns the chunk size for an n-tuple piece: a pure
// function of n (for run-to-run determinism), aligned to
// parallelChunkAlign and floored at minParallelChunk.
func parallelChunk(n int) int {
	c := (n + parallelTargetChunks - 1) / parallelTargetChunks
	c = (c + parallelChunkAlign - 1) / parallelChunkAlign * parallelChunkAlign
	if c < minParallelChunk {
		c = minParallelChunk
	}
	return c
}

// claimLoop hands out job indices [0, n) through next, running work on the
// calling goroutine and on up to GOMAXPROCS-1 pool workers. It returns
// when all n jobs are done. work must not panic and must touch only
// job-private state.
func claimLoop(n int, work func(job int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	claim := func() {
		for {
			j := int(next.Add(1)) - 1
			if j >= n {
				return
			}
			work(j)
			wg.Done()
		}
	}
	helpers := runtime.GOMAXPROCS(0) - 1
	if m := n - 1; helpers > m {
		helpers = m
	}
	for i := 0; i < helpers; i++ {
		if !pool.Submit(claim) {
			break // saturated pool: the caller still finishes alone
		}
	}
	claim()
	wg.Wait()
}

// parallelPartitionVals partitions v on pivot using chunked parallel
// crack-in-two and returns the split position and the swap count (per-chunk
// displaced tuples plus one per merge-phase pair exchange; like the serial
// kernels, Swaps is a kernel-level diagnostic, not serial-comparable).
// Small inputs fall through to the serial kernel.
func parallelPartitionVals(v []int64, pivot int64) (int, int64) {
	if len(v) < 2*minParallelChunk {
		return crackInTwoVals(v, pivot)
	}
	return parallelPartitionChunked(v, pivot, parallelChunk(len(v)))
}

// parallelPartitionChunked is the chunked partition with an explicit chunk
// size; tests drive it with tiny chunks to exercise the merge phase
// densely. chunk must be positive.
func parallelPartitionChunked(v []int64, pivot int64, chunk int) (int, int64) {
	n := len(v)
	nchunks := (n + chunk - 1) / chunk
	splits := make([]int, nchunks) // absolute per-chunk split position
	var swaps atomic.Int64

	// Phase 1: partition each chunk independently with the serial
	// branchless kernel. Chunks are disjoint subslices, so workers never
	// share a tuple (and never share a cache line: chunk is a multiple of
	// parallelChunkAlign).
	claimLoop(nchunks, func(ci int) {
		s := ci * chunk
		e := s + chunk
		if e > n {
			e = n
		}
		p, sw := crackInTwoVals(v[s:e:e], pivot)
		splits[ci] = s + p
		swaps.Add(sw)
	})

	// Global split position: the total number of values < pivot. This is
	// exactly what the serial kernel returns — the count is a property of
	// the data, not of the kernel.
	p := 0
	for ci := 0; ci < nchunks; ci++ {
		p += splits[ci] - ci*chunk
	}

	// Phase 2: merge. After phase 1 each chunk is [lows | highs]; globally
	// the misplaced tuples are the high runs left of p and the low runs
	// right of p, and both sets have equal total size (every high left of
	// p displaces exactly one low to the right of p). Pair them up into
	// bounded swap jobs; the regions are disjoint (one side of p each), so
	// the jobs can run in parallel.
	type run struct{ s, e int }
	var highs, lows []run
	for ci := 0; ci < nchunks; ci++ {
		cs := ci * chunk
		ce := cs + chunk
		if ce > n {
			ce = n
		}
		b := splits[ci]
		if he := min(ce, p); b < he {
			highs = append(highs, run{b, he})
		}
		if ls := max(cs, p); ls < b {
			lows = append(lows, run{ls, b})
		}
	}
	type swapJob struct{ a, b, n int }
	var jobs []swapJob
	var misplaced int64
	hi, li := 0, 0
	ho, lo := 0, 0
	for hi < len(highs) && li < len(lows) {
		h, l := highs[hi], lows[li]
		m := min(h.e-h.s-ho, l.e-l.s-lo, swapRunMax)
		jobs = append(jobs, swapJob{h.s + ho, l.s + lo, m})
		misplaced += int64(m)
		ho += m
		lo += m
		if h.s+ho == h.e {
			hi++
			ho = 0
		}
		if l.s+lo == l.e {
			li++
			lo = 0
		}
	}
	if len(jobs) > 0 {
		claimLoop(len(jobs), func(ji int) {
			j := jobs[ji]
			x, y := v[j.a:j.a+j.n], v[j.b:j.b+j.n]
			for k := range x {
				x[k], y[k] = y[k], x[k]
			}
		})
	}
	return p, swaps.Load() + misplaced
}

// parallelOK reports whether the piece [lo, hi) can take the parallel
// kernels at all: only bare value columns qualify (a tandem payload keeps
// the generic serial path, exactly like the specialized serial kernels).
func (c *Column) parallelOK() bool {
	return c.Payload == nil
}

// ParallelCrackInTwo is CrackInTwo executed by the chunked parallel
// kernel: same split position, same per-side multisets, order within a
// side unspecified (see the package's serial-equivalence contract above).
// Columns carrying a payload, and pieces too small to
// coordinate over, fall back to CrackInTwo.
func (c *Column) ParallelCrackInTwo(lo, hi int, pivot int64) int {
	if !c.parallelOK() {
		return c.CrackInTwo(lo, hi, pivot)
	}
	c.checkRange(lo, hi)
	c.Stats.Touched += int64(hi - lo)
	p, swaps := parallelPartitionVals(c.Values[lo:hi:hi], pivot)
	c.Stats.Swaps += swaps
	return lo + p
}

// ParallelCrackInThree is CrackInThree via two parallel crack-in-two
// passes (the second over the upper part only), mirroring the serial
// values-only decomposition. Touched counts the piece once — the logical
// cost, as the serial kernel counts it.
func (c *Column) ParallelCrackInThree(lo, hi int, a, b int64) (p1, p2 int) {
	if !c.parallelOK() {
		return c.CrackInThree(lo, hi, a, b)
	}
	c.checkRange(lo, hi)
	if a > b {
		panic("column: ParallelCrackInThree with a > b")
	}
	c.Stats.Touched += int64(hi - lo)
	q1, s1 := parallelPartitionVals(c.Values[lo:hi:hi], a)
	p1 = lo + q1
	q2, s2 := parallelPartitionVals(c.Values[p1:hi:hi], b)
	p2 = p1 + q2
	c.Stats.Swaps += s1 + s2
	return p1, p2
}

// ParallelSplitAndMaterialize is the MDD1R primitive with the partition
// run by the parallel kernel: partition [lo, hi) on pivot, then collect
// values in [a, b) from whichever side(s) can hold them. Unlike the fused
// serial one-pass kernel it scans for qualifying tuples after
// partitioning, but the partition — the bulk of the work — runs on all
// cores, and the scan is confined to the side(s) intersecting [a, b).
// Touched counts the piece once (the logical cost). The materialized
// multiset equals the serial kernel's; its order may differ.
func (c *Column) ParallelSplitAndMaterialize(lo, hi int, pivot, a, b int64, out []int64) ([]int64, int) {
	if !c.parallelOK() {
		return c.SplitAndMaterialize(lo, hi, pivot, a, b, out)
	}
	c.checkRange(lo, hi)
	c.Stats.Touched += int64(hi - lo)
	if a > b {
		a = b
	}
	q, swaps := parallelPartitionVals(c.Values[lo:hi:hi], pivot)
	c.Stats.Swaps += swaps
	p := lo + q
	if a < pivot { // the left side can hold values in [a, min(b, pivot))
		for _, x := range c.Values[lo:p] {
			if inRange(x, a, b) {
				out = append(out, x)
			}
		}
	}
	if b > pivot { // the right side can hold values in [max(a, pivot), b)
		for _, x := range c.Values[p:hi] {
			if inRange(x, a, b) {
				out = append(out, x)
			}
		}
	}
	return out, p
}

// ParallelSplitAndMaterializeGE is the left-end-piece variant (collect
// values >= a) on the parallel partition kernel. When a < pivot the whole
// right side qualifies and is appended wholesale; only the left side is
// scanned.
func (c *Column) ParallelSplitAndMaterializeGE(lo, hi int, pivot, a int64, out []int64) ([]int64, int) {
	if !c.parallelOK() {
		return c.SplitAndMaterializeGE(lo, hi, pivot, a, out)
	}
	c.checkRange(lo, hi)
	c.Stats.Touched += int64(hi - lo)
	q, swaps := parallelPartitionVals(c.Values[lo:hi:hi], pivot)
	c.Stats.Swaps += swaps
	p := lo + q
	if a < pivot {
		for _, x := range c.Values[lo:p] {
			if x >= a {
				out = append(out, x)
			}
		}
		return append(out, c.Values[p:hi]...), p
	}
	for _, x := range c.Values[p:hi] {
		if x >= a {
			out = append(out, x)
		}
	}
	return out, p
}

// ParallelSplitAndMaterializeLT is the right-end-piece variant (collect
// values < b) on the parallel partition kernel; the mirror of the GE
// form — when b > pivot the whole left side qualifies wholesale.
func (c *Column) ParallelSplitAndMaterializeLT(lo, hi int, pivot, b int64, out []int64) ([]int64, int) {
	if !c.parallelOK() {
		return c.SplitAndMaterializeLT(lo, hi, pivot, b, out)
	}
	c.checkRange(lo, hi)
	c.Stats.Touched += int64(hi - lo)
	q, swaps := parallelPartitionVals(c.Values[lo:hi:hi], pivot)
	c.Stats.Swaps += swaps
	p := lo + q
	if b > pivot {
		out = append(out, c.Values[lo:p]...)
		for _, x := range c.Values[p:hi] {
			if x < b {
				out = append(out, x)
			}
		}
		return out, p
	}
	for _, x := range c.Values[lo:p] {
		if x < b {
			out = append(out, x)
		}
	}
	return out, p
}
