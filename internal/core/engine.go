package core

import (
	"repro/internal/cindex"
	"repro/internal/column"
	"repro/internal/xrand"
)

// Index is an adaptive index over a single column. Query answers the range
// [a, b) (half-open over values) and, depending on the algorithm, refines
// the physical organization of the column as a side effect.
type Index interface {
	// Query returns the qualifying tuples for value range [a, b).
	// The Result is valid until the next Query call.
	Query(a, b int64) Result
	// Name identifies the algorithm (e.g. "crack", "dd1r", "pmdd1r-10").
	Name() string
	// Stats reports cumulative physical cost counters.
	Stats() Stats
}

// Engine bundles the cracker column, the cracker index, the PRNG and the
// reusable materialization buffers every cracking algorithm shares.
type Engine struct {
	col     *column.Column
	idx     *cindex.Tree
	rng     *xrand.Rand
	opt     Options
	queries int64

	// Materialization buffers reused across queries (one per result end),
	// keeping steady-state queries allocation-free — important both for
	// performance and for keeping Go GC pauses out of per-query latencies.
	leftBuf  []int64
	rightBuf []int64

	// In-progress progressive partitions, keyed by piece start position
	// (piece boundaries are stable while a partition is in flight).
	states map[int]*column.PartitionState
}

func newEngine(values []int64, opt Options) *Engine {
	opt = opt.withDefaults()
	var col *column.Column
	if opt.TrackRowIDs {
		col = column.NewWithRowIDs(values)
	} else {
		col = column.New(values)
	}
	e := &Engine{
		col:    col,
		idx:    &cindex.Tree{},
		rng:    xrand.New(opt.Seed),
		opt:    opt,
		states: make(map[int]*column.PartitionState),
	}
	e.coarseInit()
	return e
}

// Column exposes the underlying cracker column (read-mostly; used by the
// harness and the demo tool to display piece structure).
func (e *Engine) Column() *column.Column { return e.col }

// CrackerIndex exposes the cracker index.
func (e *Engine) CrackerIndex() *cindex.Tree { return e.idx }

// AbandonProgressivePartitions drops all in-flight progressive partition
// states. Merged updates move piece boundaries, invalidating the saved
// positions; abandoning a partial partition is harmless — the piece keeps
// the same multiset and simply remains uncracked until a later query
// starts a fresh partition.
func (e *Engine) AbandonProgressivePartitions() {
	clear(e.states)
}

func (e *Engine) stats() Stats {
	return Stats{
		Queries: e.queries,
		Touched: e.col.Stats.Touched,
		Swaps:   e.col.Stats.Swaps,
		Cracks:  e.idx.Len(),
		Pieces:  e.idx.Len() + 1,
	}
}

func (e *Engine) randomPivot(lo, hi int) int64 {
	return e.col.Values[lo+e.rng.Intn(hi-lo)]
}

// newPartitionState starts a progressive partition of piece [lo, hi) on a
// randomly chosen pivot.
func newPartitionState(e *Engine, lo, hi int) *column.PartitionState {
	return column.NewPartitionState(lo, hi, e.randomPivot(lo, hi))
}

// crackBound performs the original cracking operation for one query bound:
// it cracks the piece containing v on v itself and returns the crack
// position (the first position holding values >= v).
func (e *Engine) crackBound(v int64) int {
	lo, hi, exact := e.idx.PieceFor(v, e.col.Len())
	if exact {
		return lo
	}
	p := e.crackInTwo(lo, hi, v)
	e.idx.Insert(v, p)
	return p
}

// queryMixed is the shared executor for original cracking, MDD1R and every
// selective variant. The stoch callback decides, per touched piece, whether
// the piece is handled stochastically (MDD1R: one random crack integrated
// with result materialization, Fig. 5/6) or with original query-driven
// cracking; v is the query bound that fell into the piece.
func (e *Engine) queryMixed(a, b int64, stoch func(lo, hi int, v int64) bool) Result {
	e.queries++
	res := Result{col: e.col}
	n := e.col.Len()
	if a >= b || n == 0 {
		return res
	}
	loA, hiA, exactA, loB, hiB, exactB := e.idx.Bounds(a, b, n)

	// Both bounds inside the same piece, neither already cracked. Note an
	// empty piece can share its start with a neighboring piece, so both
	// boundaries must match.
	if !exactA && !exactB && loA == loB && hiA == hiB {
		if hiA-loA > 1 && stoch(loA, hiA, a) {
			pivot := e.randomPivot(loA, hiA)
			var p int
			e.leftBuf, p = e.splitAndMaterialize(loA, hiA, pivot, a, b, e.leftBuf[:0])
			e.idx.Insert(pivot, p)
			res.left = e.leftBuf
			return res
		}
		p1, p2 := e.crackInThree(loA, hiA, a, b)
		e.idx.Insert(a, p1)
		e.idx.Insert(b, p2)
		res.lo, res.hi = p1, p2
		return e.settle(res)
	}

	// The two bounds fall in different pieces (or are exactly cracked).
	// Work on a's piece cannot disturb b's piece: any crack inserted while
	// handling the left end carries a key below b's piece's lower key.

	// Left end piece: qualifying tuples are those >= a (the whole piece
	// lies below b).
	var viewStart int
	switch {
	case exactA:
		viewStart = loA
	case hiA-loA > 1 && stoch(loA, hiA, a):
		pivot := e.randomPivot(loA, hiA)
		var p int
		e.leftBuf, p = e.splitAndMaterializeGE(loA, hiA, pivot, a, e.leftBuf[:0])
		e.idx.Insert(pivot, p)
		res.left = e.leftBuf
		viewStart = hiA
	default:
		p := e.crackInTwo(loA, hiA, a)
		e.idx.Insert(a, p)
		viewStart = p
	}

	// Right end piece: qualifying tuples are those < b.
	var viewEnd int
	switch {
	case exactB:
		viewEnd = loB
	case hiB-loB > 1 && stoch(loB, hiB, b):
		pivot := e.randomPivot(loB, hiB)
		var p int
		e.rightBuf, p = e.splitAndMaterializeLT(loB, hiB, pivot, b, e.rightBuf[:0])
		e.idx.Insert(pivot, p)
		res.right = e.rightBuf
		viewEnd = loB
	default:
		p := e.crackInTwo(loB, hiB, b)
		e.idx.Insert(b, p)
		viewEnd = p
	}

	res.lo, res.hi = viewStart, viewEnd
	return e.settle(res)
}

// settle returns res as its reader may take it. A view spanning cracks can
// hold the holes merged updates leave at piece ends; when the column has
// any, the view's live runs are copied after the left part into leftBuf,
// and res carries the whole answer materialized, valid until the next
// query like every Result.
func (e *Engine) settle(res Result) Result {
	if e.idx.Holes() == 0 || res.hi <= res.lo {
		return res
	}
	buf := e.appendLive(append(e.leftBuf[:0], res.left...), res.lo, res.hi)
	e.leftBuf = append(buf, res.right...)
	return Result{col: e.col, left: e.leftBuf}
}
