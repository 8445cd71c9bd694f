package main

import (
	"sort"

	"repro/internal/workload"
	"repro/internal/xrand"
)

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// op is one generated operation: a read of [lo, hi), or a write of value lo.
type op struct {
	kind   opKind
	lo, hi int64
}

// genParams is what a generator may depend on: the data size, the run's
// seed, the range-set size and which client of how many it generates for.
type genParams struct {
	n       int64
	seed    uint64
	q       int
	client  int
	clients int
}

// materialise drains q ranges from a paper workload generator.
func materialise(g workload.Generator, q int) []op {
	ops := make([]op, q)
	for i := range ops {
		lo, hi := g.Next()
		ops[i] = op{kind: opRead, lo: lo, hi: hi}
	}
	return ops
}

// genSequential is the paper's adversarial pattern; a cold column needs no
// warm-up.
func genSequential(p genParams) (warm, block []op) {
	return nil, materialise(workload.Sequential(workload.Params{N: p.n, Q: p.q, S: pointWidth, Seed: p.seed}), p.q)
}

// genRandom gives each client its own fixed random range set of width s; one
// pass over the set is the warm-up that converges it.
func genRandom(s int64) func(genParams) (warm, block []op) {
	return func(p genParams) (warm, block []op) {
		seed := p.seed*16 + uint64(p.client) + 1
		block = materialise(workload.Random(workload.Params{N: p.n, Q: p.q, S: s, Seed: seed}), p.q)
		return block, block
	}
}

// mixedCycles is the number of 10-op cycles in one mixed_rw block, and
// mixedWindow the steady number of live extra values per client. ISSUE 11
// asked for 2000 and 1000, taking a merge for microseconds; on the converged
// 10M-row column a ripple merge walks every crack above the value (~45 000
// exist) and costs 0.1-0.5 ms alone and about a millisecond beside a second
// client, so a block of that size runs 5 s and a run would hold 3 of them.
const (
	mixedCycles = 400
	mixedWindow = mixedCycles / 2
)

// genMixed builds the mixed_rw block: every client owns an equal slice of
// the value domain and cycles 10 ops — an insert, a read centred on it, a
// delete of the oldest live extra, a read centred on that, and six reads
// from its converged set. Cycle j inserts vals[j] and deletes
// vals[j-mixedWindow] (cyclically), so every block is the same op sequence
// and leaves the same mixedWindow extras live.
func genMixed(p genParams) (warm, block []op) {
	rlo := p.n * int64(p.client) / int64(p.clients)
	rhi := p.n * int64(p.client+1) / int64(p.clients)
	width := rhi - rlo
	seed := p.seed*16 + uint64(p.client) + 1
	set := materialise(workload.Random(workload.Params{N: width, Q: p.q, S: pointWidth, Seed: seed}), p.q)
	for i := range set {
		set[i].lo += rlo
		set[i].hi += rlo
	}
	cycles := min(mixedCycles, p.q/5) // shrunk test runs keep the 10-op cycle, with a smaller window
	window := cycles / 2
	rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	vals := make([]int64, cycles)
	for i := range vals {
		vals[i] = rlo + rng.Int63n(width)
	}
	centred := func(v int64) op {
		lo, hi := v-pointWidth/2, v+pointWidth/2
		if lo < rlo {
			lo, hi = rlo, rlo+pointWidth
		}
		if hi > rhi {
			lo, hi = rhi-pointWidth, rhi
		}
		return op{kind: opRead, lo: lo, hi: hi}
	}
	next := 0
	cycle := func(j int) []op {
		out := make([]op, 0, 10)
		ins, del := vals[j], vals[(j+cycles-window)%cycles]
		out = append(out, op{kind: opInsert, lo: ins}, centred(ins), op{kind: opDelete, lo: del}, centred(del))
		for k := 0; k < 6; k++ {
			out = append(out, set[next%len(set)])
			next++
		}
		return out
	}
	// Warm-up: converge the set, fill the window with the second half of
	// vals (so cycle 0 deletes the oldest), then one full block so every
	// centred read's bounds are cracked before timing starts.
	warm = append(warm, set...)
	for j := window; j < cycles; j++ {
		warm = append(warm, op{kind: opInsert, lo: vals[j]}, centred(vals[j]))
	}
	for j := 0; j < cycles; j++ {
		block = append(block, cycle(j)...)
	}
	warm = append(warm, block...)
	return warm, block
}

// extras is one client's multiset model of the values it inserted and has
// not deleted; with the closed-form oracle over the base permutation it
// predicts every read exactly. At most a window of values is live, so a
// sorted slice beats anything cleverer.
type extras struct{ sorted []int64 }

func (e *extras) add(v int64) {
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] >= v })
	e.sorted = append(e.sorted, 0)
	copy(e.sorted[i+1:], e.sorted[i:])
	e.sorted[i] = v
}

// remove drops one occurrence of v and reports whether one was live.
func (e *extras) remove(v int64) bool {
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] >= v })
	if i == len(e.sorted) || e.sorted[i] != v {
		return false
	}
	e.sorted = append(e.sorted[:i], e.sorted[i+1:]...)
	return true
}

// within returns the count and sum of live extras in [lo, hi).
func (e *extras) within(lo, hi int64) (count, sum int64) {
	if len(e.sorted) == 0 {
		return 0, 0
	}
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] >= lo })
	for ; i < len(e.sorted) && e.sorted[i] < hi; i++ {
		count++
		sum += e.sorted[i]
	}
	return count, sum
}

// permOracle is the closed-form count and sum of the values of the
// permutation [0, n) that fall in [lo, hi).
func permOracle(lo, hi, n int64) (count, sum int64) {
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return 0, 0
	}
	count = hi - lo
	return count, (lo + hi - 1) * count / 2
}
