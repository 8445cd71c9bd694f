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

// probe is the convergence probe every probe-first answer shares: one
// cracker-index descent for both bounds (Tree.Bounds). ok is false when a
// bound needs a crack (see converged). Otherwise [a, b)'s answer is the
// values in range of the end pieces left and right (column slices, nil
// when the bound is an exact crack) plus every live value of positions
// [lo, hi) between them, which qualify whole.
func (e *Engine) probe(a, b int64) (left, right []int64, lo, hi int, ok bool) {
	n := e.col.Len()
	if a >= b || n == 0 {
		return nil, nil, 0, 0, true
	}
	loA, hiA, exactA, loB, hiB, exactB := e.idx.Bounds(a, b, n)
	if !e.converged(loA, hiA, exactA) || !e.converged(loB, hiB, exactB) {
		return nil, nil, 0, 0, false
	}
	vals := e.col.Values
	// Both bounds inside the same uncracked piece: one filtered scan. An
	// empty piece can share its start with a neighbour, so both ends must
	// match.
	if !exactA && !exactB && loA == loB && hiA == hiB {
		return vals[loA:hiA], nil, 0, 0, true
	}
	lo, hi = loA, loB
	if !exactA {
		left, lo = vals[loA:hiA], hiA
	}
	if !exactB {
		right = vals[loB:hiB]
	}
	return left, right, lo, hi, true
}

// TryAnswerReadOnly answers [a, b) without mutating the engine — no
// cracks, no counters, no shared buffers, so it is safe under a shared
// lock — when the query is converged (see probe), appending the
// qualifying values to dst. ok is false — with dst returned unchanged —
// when answering would require reorganization. Probe and answer share one
// cracker-index descent, which keeps the executor's read path as cheap as
// a write-path lookup.
func (e *Engine) TryAnswerReadOnly(a, b int64, dst []int64) (_ []int64, ok bool) {
	left, right, lo, hi, ok := e.probe(a, b)
	if !ok {
		return dst, false
	}
	if dst == nil {
		// One exact allocation for the middle plus at most the end pieces.
		dst = make([]int64, 0, len(left)+hi-lo+len(right))
	}
	dst = e.appendLive(appendInRange(dst, left, a, b), lo, hi)
	return appendInRange(dst, right, a, b), true
}

// TryAnswerReadOnlyAggregate is TryAnswerReadOnly returning only (count,
// sum).
func (e *Engine) TryAnswerReadOnlyAggregate(a, b int64) (count int, sum int64, ok bool) {
	left, right, lo, hi, ok := e.probe(a, b)
	if !ok {
		return 0, 0, false
	}
	count, sum = countInRange(left, a, b)
	count, sum = e.addLive(count, sum, lo, hi)
	c, s := countInRange(right, a, b)
	return count + c, sum + s, true
}

// TryView answers [a, b) like TryAnswerReadOnly, without cracking, but as
// a Result valid until the next query: the middle is a view into the
// column, and the end pieces (at most NoCrackSize tuples each) are
// filtered into the engine's reusable end buffers. It writes those
// buffers, so unlike TryAnswerReadOnly it needs the index to itself. ok is
// false when answering would require reorganization.
func (e *Engine) TryView(a, b int64) (_ Result, ok bool) {
	left, right, lo, hi, ok := e.probe(a, b)
	if !ok {
		return Result{}, false
	}
	e.leftBuf = appendInRange(e.leftBuf[:0], left, a, b)
	e.rightBuf = appendInRange(e.rightBuf[:0], right, a, b)
	return e.settle(Result{col: e.col, lo: lo, hi: hi, left: e.leftBuf, right: e.rightBuf}), true
}

// appendLive appends the live values of positions [lo, hi), which may
// span holes, to dst.
func (e *Engine) appendLive(dst []int64, lo, hi int) []int64 {
	vals := e.col.Values
	if e.idx.Holes() == 0 || hi <= lo {
		return appendBulk(dst, vals[lo:hi])
	}
	e.idx.Live(lo, hi, func(lo, hi int) { dst = appendBulk(dst, vals[lo:hi]) })
	return dst
}

// addLive is appendLive adding to a running count and sum instead.
func (e *Engine) addLive(count int, sum int64, lo, hi int) (int, int64) {
	vals := e.col.Values
	if e.idx.Holes() == 0 || hi <= lo {
		return addAll(count, sum, vals[lo:hi])
	}
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
