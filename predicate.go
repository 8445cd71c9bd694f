package crackdb

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/intervals"
)

// Predicate describes a one-attribute range condition in the comparison
// shapes SQL produces, normalized onto the engine's half-open [lo, hi)
// form over integers. The paper's example queries mix strict and
// non-strict bounds (Fig. 1: "A > 10 AND A < 14", "A >= 7 AND A <= 16");
// Predicate is the translation layer.
//
// Predicates compose: And intersects, Or unions (producing a multi-range
// predicate, answered as a batch under the hood), and On scopes the
// condition to a named column for table databases. Predicate is the only
// range vocabulary of the query API — DB.Query, DB.QueryBatch,
// DB.QueryAggregate and DB.SelectProject all consume it. A Predicate is an immutable value;
// every method returns a new one.
type Predicate struct {
	lo, hi int64
	col    string
	// conflict records an illegal composition (And/Or of predicates
	// scoped to different columns). Instead of silently answering against
	// the wrong column, DB queries then fail with ErrUnknownColumn at
	// resolve time.
	conflict string
	// set holds the disjoint ranges of a multi-range predicate (built by
	// Or). nil for the common single-range form; when non-nil it has at
	// least two intervals and lo/hi are unused.
	set *intervals.Set
}

// Between returns a predicate for lo <= v AND v <= hi (both inclusive).
func Between(lo, hi int64) Predicate {
	return Predicate{lo: lo, hi: incSat(hi)}
}

// Range returns a predicate for the half-open lo <= v AND v < hi, the
// engine's native form.
func Range(lo, hi int64) Predicate { return Predicate{lo: lo, hi: hi} }

// Less returns a predicate for v < x.
func Less(x int64) Predicate { return Predicate{lo: math.MinInt64, hi: x} }

// LessEq returns a predicate for v <= x.
func LessEq(x int64) Predicate { return Predicate{lo: math.MinInt64, hi: incSat(x)} }

// Greater returns a predicate for v > x.
func Greater(x int64) Predicate { return Predicate{lo: incSat(x), hi: math.MaxInt64} }

// GreaterEq returns a predicate for v >= x.
func GreaterEq(x int64) Predicate { return Predicate{lo: x, hi: math.MaxInt64} }

// Eq returns a predicate for v == x.
func Eq(x int64) Predicate { return Predicate{lo: x, hi: incSat(x)} }

// On scopes the predicate to the named column of a table database opened
// with OpenTable. Single-column databases need no column; a table with
// exactly one column uses it by default.
func (p Predicate) On(col string) Predicate {
	p.col = col
	return p
}

// Column returns the column the predicate is scoped to ("" when unscoped).
func (p Predicate) Column() string { return p.col }

// singleRange returns the predicate's sole half-open range without
// allocating — the fast path of the common non-Or predicate; ok is false
// for multi-range predicates, which need rangeList. The range may be
// empty (lo >= hi). Conflicted predicates report an empty range: they
// match nothing anywhere (queries reject them at column-resolve time,
// before consulting ranges).
func (p Predicate) singleRange() (lo, hi int64, ok bool) {
	if p.conflict != "" {
		return 0, 0, true
	}
	if p.set != nil {
		return 0, 0, false
	}
	return p.lo, p.hi, true
}

// rangeList returns the predicate's disjoint half-open ranges in
// increasing order (nil when empty, including cross-column conflicts,
// which can never match).
func (p Predicate) rangeList() [][2]int64 {
	if p.conflict != "" {
		return nil
	}
	if p.set != nil {
		out := make([][2]int64, 0, p.set.Len())
		p.set.Each(func(lo, hi int64) bool {
			out = append(out, [2]int64{lo, hi})
			return true
		})
		return out
	}
	if p.lo >= p.hi {
		return nil
	}
	return [][2]int64{{p.lo, p.hi}}
}

// fromRanges builds the normal form for a range list: empty and
// single-range predicates collapse to the simple representation.
func fromRanges(col string, rs [][2]int64) Predicate {
	switch len(rs) {
	case 0:
		return Predicate{col: col}
	case 1:
		return Predicate{col: col, lo: rs[0][0], hi: rs[0][1]}
	}
	s := &intervals.Set{}
	for _, r := range rs {
		s.Add(r[0], r[1])
	}
	if s.Len() == 1 {
		var lo, hi int64
		s.Each(func(a, b int64) bool { lo, hi = a, b; return true })
		return Predicate{col: col, lo: lo, hi: hi}
	}
	return Predicate{col: col, set: s}
}

// mergeCol picks the column for a composed predicate: whichever side is
// scoped wins. Two sides scoped to *different* columns is unsupported —
// a Predicate describes one attribute; cross-column conjunction is query
// planning, not predicate algebra — and poisons the result: conflict
// carries both names and the query fails at resolve time rather than
// silently answering against one of the columns.
func mergeCol(p, q Predicate) (col, conflict string) {
	if p.conflict != "" {
		return "", p.conflict
	}
	if q.conflict != "" {
		return "", q.conflict
	}
	if p.col != "" && q.col != "" && p.col != q.col {
		return "", fmt.Sprintf("%s and %s", p.col, q.col)
	}
	if p.col != "" {
		return p.col, ""
	}
	return q.col, ""
}

// And intersects two predicates: v must satisfy both. Both operands must
// be scoped to the same column (or unscoped); composing across columns
// yields a predicate every query rejects.
func (p Predicate) And(q Predicate) Predicate {
	col, conflict := mergeCol(p, q)
	if p.set == nil && q.set == nil {
		lo, hi := p.lo, p.hi
		if q.lo > lo {
			lo = q.lo
		}
		if q.hi < hi {
			hi = q.hi
		}
		return Predicate{col: col, conflict: conflict, lo: lo, hi: hi}
	}
	// General case: intersect the two sorted disjoint range lists.
	a, b := p.rangeList(), q.rangeList()
	var out [][2]int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
		if lo < hi {
			out = append(out, [2]int64{lo, hi})
		}
		if a[i][1] < b[j][1] {
			i++
		} else {
			j++
		}
	}
	res := fromRanges(col, out)
	res.conflict = conflict
	return res
}

// Or unions two predicates: v may satisfy either. Overlapping and
// adjacent ranges coalesce; a disjoint union yields a multi-range
// predicate, which DB.Query answers as a batch under the hood and
// returns in ascending range order. Both operands must be scoped to the
// same column (or unscoped); composing across columns yields a predicate
// every query rejects.
func (p Predicate) Or(q Predicate) Predicate {
	col, conflict := mergeCol(p, q)
	res := fromRanges(col, append(p.rangeList(), q.rangeList()...))
	res.conflict = conflict
	return res
}

// Bounds returns the normalized half-open [lo, hi) range; for a
// multi-range predicate it is the enclosing envelope, and for an empty
// (or cross-column conflicted) predicate the empty range [0, 0).
func (p Predicate) Bounds() (lo, hi int64) {
	if p.conflict != "" {
		return 0, 0
	}
	if p.set != nil {
		rs := p.rangeList()
		return rs[0][0], rs[len(rs)-1][1]
	}
	return p.lo, p.hi
}

// Empty reports whether no value can satisfy the predicate — including a
// predicate composed across two different columns, which matches nothing
// anywhere.
func (p Predicate) Empty() bool {
	if p.conflict != "" {
		return true
	}
	if p.set != nil {
		return false // multi-range form always holds >= 2 nonempty ranges
	}
	return p.lo >= p.hi
}

// Matches reports whether value v satisfies the predicate. A predicate
// composed across different columns matches nothing.
func (p Predicate) Matches(v int64) bool {
	if p.conflict != "" {
		return false
	}
	for _, r := range p.rangeList() {
		if r[0] <= v && v < r[1] {
			return true
		}
	}
	return false
}

// String renders the predicate for diagnostics.
func (p Predicate) String() string {
	name := "v"
	if p.col != "" {
		name = p.col
	}
	if p.Empty() {
		return "false"
	}
	rs := p.rangeList()
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = rangeString(name, r[0], r[1])
	}
	return strings.Join(parts, " OR ")
}

func rangeString(name string, lo, hi int64) string {
	switch {
	case lo == math.MinInt64 && hi == math.MaxInt64:
		return "true"
	case lo == math.MinInt64:
		return fmt.Sprintf("%s < %d", name, hi)
	case hi == math.MaxInt64:
		return fmt.Sprintf("%s >= %d", name, lo)
	default:
		return fmt.Sprintf("%d <= %s < %d", lo, name, hi)
	}
}

// incSat increments with saturation at the top of the int64 domain, so
// LessEq(MaxInt64) means "everything" rather than wrapping around.
func incSat(x int64) int64 {
	if x == math.MaxInt64 {
		return x
	}
	return x + 1
}
