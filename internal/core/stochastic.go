package core

import (
	"fmt"

	"repro/internal/selectalg"
)

// ddVariant distinguishes the four data-driven stochastic algorithms of
// §4: center (median) vs random pivots, recursive vs single-shot.
type ddVariant struct {
	center    bool // DDC/DD1C use medians; DDR/DD1R use random pivots
	recursive bool // DDC/DDR recurse to CrackSize; DD1C/DD1R stop after one
}

// DD is the family of data-driven stochastic cracking algorithms DDC, DDR,
// DD1C and DD1R (Fig. 3/4): before cracking on the query bound itself,
// they introduce auxiliary cracks — at piece medians (center) or at random
// pivots — on the path towards the requested value, so that no piece an
// unfavorable workload can repeatedly rescan stays large.
type DD struct {
	e *Engine
	v ddVariant
}

// NewDDC builds the Data Driven Center algorithm: recursively halve the
// piece holding each query bound (exact medians via introselect) until it
// is below CrackSize, then crack on the bound.
func NewDDC(values []int64, opt Options) *DD {
	return &DD{e: newEngine(values, opt), v: ddVariant{center: true, recursive: true}}
}

// NewDDR builds the Data Driven Random algorithm: like DDC but splitting
// on random pivots instead of exact medians (a single-branch quicksort).
func NewDDR(values []int64, opt Options) *DD {
	return &DD{e: newEngine(values, opt), v: ddVariant{center: false, recursive: true}}
}

// NewDD1C builds DD1C: at most one median split before cracking on the
// bound, reducing initialization cost at some cost in convergence.
func NewDD1C(values []int64, opt Options) *DD {
	return &DD{e: newEngine(values, opt), v: ddVariant{center: true, recursive: false}}
}

// NewDD1R builds DD1R: at most one random split before cracking on the
// bound — the paper's best overall choice for total cost (Fig. 20).
func NewDD1R(values []int64, opt Options) *DD {
	return &DD{e: newEngine(values, opt), v: ddVariant{center: false, recursive: false}}
}

// Name implements Index.
func (d *DD) Name() string {
	switch d.v {
	case ddVariant{center: true, recursive: true}:
		return "ddc"
	case ddVariant{center: false, recursive: true}:
		return "ddr"
	case ddVariant{center: true, recursive: false}:
		return "dd1c"
	default:
		return "dd1r"
	}
}

// Stats implements Index.
func (d *DD) Stats() Stats { return d.e.stats() }

// Engine exposes the underlying engine.
func (d *DD) Engine() *Engine { return d.e }

// Query evaluates [a, b) as two bound cracks, exactly as Fig. 4's
// DDC(C, a, b) prescribes, and returns the contiguous qualifying view.
func (d *DD) Query(a, b int64) Result {
	d.e.queries++
	res := Result{col: d.e.col}
	if a >= b || d.e.col.Len() == 0 {
		return res
	}
	res.lo = d.boundCrack(a)
	res.hi = d.boundCrack(b)
	return d.e.settle(res)
}

// boundCrack is Fig. 4's ddc_crack (and its DDR/DD1C/DD1R variants): find
// the piece containing v, split it towards v while it is large, then crack
// on v itself.
func (d *DD) boundCrack(v int64) int {
	e := d.e
	lo, hi, exact := e.idx.PieceFor(v, e.col.Len())
	if exact {
		return lo
	}
	for hi-lo > e.opt.CrackSize {
		key, p, ok := d.split(lo, hi)
		if !ok {
			break // piece cannot be split further (mass duplicates)
		}
		e.idx.Insert(key, p)
		if v < key {
			hi = p
		} else {
			lo = p
		}
		if key == v {
			// The auxiliary crack landed exactly on the query bound.
			return p
		}
		if !d.v.recursive {
			break
		}
	}
	p := e.crackInTwo(lo, hi, v)
	e.idx.Insert(v, p)
	return p
}

// split introduces one auxiliary crack in [lo, hi) and returns its (key,
// position). ok is false when the piece consists of a single repeated
// value and no split can make progress.
func (d *DD) split(lo, hi int) (key int64, p int, ok bool) {
	e := d.e
	if d.v.center {
		key, p = selectalg.Median(e.col, lo, hi, e.rng)
		if p == lo {
			// The median block starts at the piece start: more than half
			// the piece is one value; the crack adds no information.
			return 0, 0, false
		}
		return key, p, true
	}
	key = e.randomPivot(lo, hi)
	p = e.crackInTwo(lo, hi, key)
	if p == lo {
		// The random pivot hit the piece minimum; peel the minimum block
		// with key+1 to guarantee progress.
		key++
		p = e.crackInTwo(lo, hi, key)
		if p == hi {
			return 0, 0, false // the whole piece is one repeated value
		}
	}
	return key, p, true
}

// MDD1R is stochastic cracking with materialization (Fig. 5/6): one random
// crack per end piece, integrated with collecting the query's qualifying
// tuples; the query bounds themselves never become cracks. The middle of
// the result is returned as a view, only end pieces are materialized.
type MDD1R struct {
	e *Engine
}

// NewMDD1R builds an MDD1R index over values.
func NewMDD1R(values []int64, opt Options) *MDD1R {
	return &MDD1R{e: newEngine(values, opt)}
}

// Query implements Fig. 5's MDD1R(C, a, b).
func (m *MDD1R) Query(a, b int64) Result {
	return m.e.queryMixed(a, b, alwaysStochastic)
}

// Name implements Index.
func (m *MDD1R) Name() string { return "mdd1r" }

// Stats implements Index.
func (m *MDD1R) Stats() Stats { return m.e.stats() }

// Engine exposes the underlying engine.
func (m *MDD1R) Engine() *Engine { return m.e }

func alwaysStochastic(_, _ int, _ int64) bool { return true }

// PMDD1R is progressive stochastic cracking (§4, "Progressive Stochastic
// Cracking"): on pieces larger than ProgressiveSize, the random crack is
// completed collaboratively by successive queries, each performing at most
// SwapPct% of the piece's tuples in swaps; queries are answered by
// materializing the qualifying tuples of the piece they touch. At or below
// ProgressiveSize, full MDD1R takes over to preserve convergence.
type PMDD1R struct {
	e *Engine
}

// NewPMDD1R builds a progressive stochastic cracking index; opt.SwapPct
// sets the per-query swap budget (P1%..P100%).
func NewPMDD1R(values []int64, opt Options) *PMDD1R {
	return &PMDD1R{e: newEngine(values, opt)}
}

// Name implements Index.
func (p *PMDD1R) Name() string { return fmt.Sprintf("pmdd1r-%d", p.e.opt.SwapPct) }

// Stats implements Index.
func (p *PMDD1R) Stats() Stats { return p.e.stats() }

// Engine exposes the underlying engine.
func (p *PMDD1R) Engine() *Engine { return p.e }

// Query answers [a, b), advancing at most one in-flight partition per
// touched end piece.
func (p *PMDD1R) Query(a, b int64) Result {
	e := p.e
	e.queries++
	res := Result{col: e.col}
	n := e.col.Len()
	if a >= b || n == 0 {
		return res
	}
	loA, hiA, exactA, loB, hiB, exactB := e.idx.Bounds(a, b, n)

	if !exactA && !exactB && loA == loB && hiA == hiB {
		// Both bounds in one piece.
		if hiA-loA > e.opt.ProgressiveSize {
			p.step(loA, hiA)
			e.leftBuf = e.col.ScanMaterialize(loA, hiA, a, b, e.leftBuf[:0])
			res.left = e.leftBuf
			return res
		}
		if hiA-loA > 1 {
			pivot := e.randomPivot(loA, hiA)
			var pos int
			e.leftBuf, pos = e.splitAndMaterialize(loA, hiA, pivot, a, b, e.leftBuf[:0])
			e.idx.Insert(pivot, pos)
			res.left = e.leftBuf
			return res
		}
		e.leftBuf = e.col.ScanMaterialize(loA, hiA, a, b, e.leftBuf[:0])
		res.left = e.leftBuf
		return res
	}

	// Left end piece: qualifying values are those >= a.
	var viewStart int
	switch {
	case exactA:
		viewStart = loA
	case hiA-loA > e.opt.ProgressiveSize:
		p.step(loA, hiA)
		e.leftBuf = e.col.ScanMaterialize(loA, hiA, a, maxVal, e.leftBuf[:0])
		res.left = e.leftBuf
		viewStart = hiA
	case hiA-loA > 1:
		pivot := e.randomPivot(loA, hiA)
		var pos int
		e.leftBuf, pos = e.splitAndMaterializeGE(loA, hiA, pivot, a, e.leftBuf[:0])
		e.idx.Insert(pivot, pos)
		res.left = e.leftBuf
		viewStart = hiA
	default:
		e.leftBuf = e.col.ScanMaterialize(loA, hiA, a, maxVal, e.leftBuf[:0])
		res.left = e.leftBuf
		viewStart = hiA
	}

	// Right end piece: qualifying values are those < b.
	var viewEnd int
	switch {
	case exactB:
		viewEnd = loB
	case hiB-loB > e.opt.ProgressiveSize:
		p.step(loB, hiB)
		e.rightBuf = e.col.ScanMaterialize(loB, hiB, minVal, b, e.rightBuf[:0])
		res.right = e.rightBuf
		viewEnd = loB
	case hiB-loB > 1:
		pivot := e.randomPivot(loB, hiB)
		var pos int
		e.rightBuf, pos = e.splitAndMaterializeLT(loB, hiB, pivot, b, e.rightBuf[:0])
		e.idx.Insert(pivot, pos)
		res.right = e.rightBuf
		viewEnd = loB
	default:
		e.rightBuf = e.col.ScanMaterialize(loB, hiB, minVal, b, e.rightBuf[:0])
		res.right = e.rightBuf
		viewEnd = loB
	}

	res.lo, res.hi = viewStart, viewEnd
	return e.settle(res)
}

const (
	maxVal = int64(1)<<62 + (int64(1)<<62 - 1)
	minVal = -maxVal - 1
)

// step advances (or starts) the in-flight partition of piece [lo, hi) by
// this query's swap budget, publishing the crack when it completes.
func (p *PMDD1R) step(lo, hi int) {
	e := p.e
	st := e.states[lo]
	if st == nil {
		st = newPartitionState(e, lo, hi)
		e.states[lo] = st
	}
	budget := (hi - lo) * e.opt.SwapPct / 100
	if budget < 1 {
		budget = 1
	}
	if e.col.StepPartition(st, budget) {
		e.idx.Insert(st.Pivot, st.SplitPos())
		delete(e.states, lo)
	}
}
