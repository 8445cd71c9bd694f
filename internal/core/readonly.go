package core

// Read-only query answering, the foundation of the adaptive read/write
// execution layer (internal/exec). Cracking inverts the usual
// reader/writer economics — every query may reorganize the column — but
// cracking also converges: once the pieces around a query's bounds are
// exact cracks (or too small to be worth splitting), answering it
// reorganizes nothing and is a plain read. The methods in this file detect
// that case and answer it without mutating any engine state (no cracks, no
// counters, no shared buffers), so the executor can serve converged
// queries under a shared lock in parallel.

// converged reports whether a query bound in the piece [lo, hi) needs no
// crack: it lies exactly on one, or the piece holds at most
// Options.NoCrackSize tuples, so scanning it beats splitting it.
func (e *Engine) converged(lo, hi int, exact bool) bool {
	return exact || hi-lo <= e.opt.NoCrackSize
}

// TryAnswerReadOnly answers [a, b) without mutating the engine — no
// cracks, no counters, no shared buffers, so it is safe under a shared
// lock — when the query is converged: both bounds are converged (see
// converged). It appends the qualifying values to dst. ok is false — with
// dst returned unchanged — when answering would require reorganization.
// Probe and answer share one cracker-index descent (Tree.Bounds), which
// keeps the executor's read path as cheap as a write-path lookup.
func (e *Engine) TryAnswerReadOnly(a, b int64, dst []int64) (_ []int64, ok bool) {
	n := e.col.Len()
	if a >= b || n == 0 {
		return dst, true
	}
	loA, hiA, exactA, loB, hiB, exactB := e.idx.Bounds(a, b, n)
	if !e.converged(loA, hiA, exactA) || !e.converged(loB, hiB, exactB) {
		return dst, false
	}
	return e.answerPieces(dst, a, b, loA, hiA, exactA, loB, hiB, exactB), true
}

// TryAnswerReadOnlyAggregate is TryAnswerReadOnly returning only (count,
// sum).
func (e *Engine) TryAnswerReadOnlyAggregate(a, b int64) (count int, sum int64, ok bool) {
	n := e.col.Len()
	if a >= b || n == 0 {
		return 0, 0, true
	}
	loA, hiA, exactA, loB, hiB, exactB := e.idx.Bounds(a, b, n)
	if !e.converged(loA, hiA, exactA) || !e.converged(loB, hiB, exactB) {
		return 0, 0, false
	}
	count, sum = e.aggregatePieces(a, b, loA, hiA, exactA, loB, hiB, exactB)
	return count, sum, true
}

// answerPieces assembles the answer from the bound pieces: filtered scans
// of the end pieces, a bulk copy of everything between them.
func (e *Engine) answerPieces(dst []int64, a, b int64, loA, hiA int, exactA bool, loB, hiB int, exactB bool) []int64 {
	vals := e.col.Values

	// Both bounds inside the same uncracked piece: one filtered scan.
	if !exactA && !exactB && loA == loB && hiA == hiB {
		return appendInRange(dst, vals[loA:hiA], a, b)
	}

	if dst == nil {
		// One exact allocation for the contiguous middle plus at most the
		// two end pieces.
		est := hiB - loA
		if exactB {
			est = loB - loA
		}
		dst = make([]int64, 0, est)
	}
	// Left end piece: qualifying values are those >= a (all below b — b's
	// piece is above — unless b shares a's piece, which the guard covers).
	viewStart := loA
	if !exactA {
		dst = appendInRange(dst, vals[loA:hiA], a, b)
		viewStart = hiA
	}
	// Middle: every piece strictly between the bound pieces qualifies
	// whole — one contiguous copy, fanned out to the worker pool when wide,
	// or one per live run when merged updates left holes between them.
	if loB > viewStart {
		if e.idx.Holes() == 0 {
			dst = appendBulk(dst, vals[viewStart:loB])
		} else {
			dst = e.appendLive(dst, viewStart, loB)
		}
	}
	// Right end piece: qualifying values are those < b.
	if !exactB {
		dst = appendInRange(dst, vals[loB:hiB], a, b)
	}
	return dst
}

func (e *Engine) aggregatePieces(a, b int64, loA, hiA int, exactA bool, loB, hiB int, exactB bool) (count int, sum int64) {
	vals := e.col.Values

	if !exactA && !exactB && loA == loB && hiA == hiB {
		return countInRange(vals[loA:hiA], a, b)
	}

	viewStart := loA
	if !exactA {
		c, s := countInRange(vals[loA:hiA], a, b)
		count, sum = count+c, sum+s
		viewStart = hiA
	}
	if loB > viewStart {
		if e.idx.Holes() == 0 {
			count, sum = addAll(count, sum, vals[viewStart:loB])
		} else {
			count, sum = e.addLive(count, sum, viewStart, loB)
		}
	}
	if !exactB {
		c, s := countInRange(vals[loB:hiB], a, b)
		count, sum = count+c, sum+s
	}
	return count, sum
}

// appendLive appends the live values of positions [lo, hi), which may
// span holes, to dst.
func (e *Engine) appendLive(dst []int64, lo, hi int) []int64 {
	vals := e.col.Values
	e.idx.Live(lo, hi, func(lo, hi int) { dst = appendBulk(dst, vals[lo:hi]) })
	return dst
}

// addLive is appendLive adding to a running count and sum instead.
func (e *Engine) addLive(count int, sum int64, lo, hi int) (int, int64) {
	vals := e.col.Values
	e.idx.Live(lo, hi, func(lo, hi int) { count, sum = addAll(count, sum, vals[lo:hi]) })
	return count, sum
}

// addAll adds every value of a whole piece to a running count and sum.
func addAll(count int, sum int64, piece []int64) (int, int64) {
	for _, v := range piece {
		sum += v
	}
	return count + len(piece), sum
}

// inRange is a <= v && v < b in one compare: uint64(v-a) is v's rank in
// the int64 order starting at a, and [a, b) is the rank interval
// [0, uint64(b-a)). Every caller has already normalized a < b.
func inRange(v, a, b int64) bool {
	return uint64(v-a) < uint64(b-a)
}

func appendInRange(dst, piece []int64, a, b int64) []int64 {
	for _, v := range piece {
		if inRange(v, a, b) {
			dst = append(dst, v)
		}
	}
	return dst
}

func countInRange(piece []int64, a, b int64) (count int, sum int64) {
	for _, v := range piece {
		if inRange(v, a, b) {
			count++
			sum += v
		}
	}
	return count, sum
}
