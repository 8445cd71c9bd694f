// Package cindex implements the cracker index: the tree structure a
// cracking DBMS maintains to record which piece of the cracker column holds
// which value range. Original cracking uses AVL trees [16]; this package
// uses a B+-tree, whose nodes keep their keys in one contiguous array, so a
// converged lookup touches a few cache lines per level instead of one
// dependent pointer per binary decision.
//
// A crack (key, pos) states that every tuple at a position < pos has a
// value < key, and every tuple at a position >= pos has a value >= key.
// Cracks are immutable once placed — physical reorganization only ever
// happens inside pieces — with one exception: updates. A merged insert that
// carries a tuple across cracks shifts each of them by one position, which
// this tree supports in O(B log n) through one lazy position delta per
// child of every inner node.
//
// Updates also leave holes: empty slots a merged delete vacates, or slack
// reserved for later inserts (internal/updates). Holes always sit at the end
// of a piece, and each crack counts the holes of the piece it closes (the
// last piece's count is kept on the tree). A piece's values are its live
// slots: PieceFor reports the live end, Live walks the live runs of a
// position range, and Pieces reports live (dense) boundaries, so code above
// the engine never sees a hole.
//
// Each crack additionally carries the crack counter of the piece that
// starts at it (used by the ScrackMon selective strategy of §4): when a
// crack splits a piece, the new piece inherits its parent piece's counter,
// exactly as the paper specifies.
package cindex

import (
	"math"
	"math/bits"
)

// fanout is the number of children an inner node holds at most. Its
// fanout-1 separators and its child count fill two cache lines, and so do
// a leaf's keys and count: a leaf holds up to fanout-1 cracks. Sixteen
// beat thirty-two in BenchmarkBoundsConverged.
const fanout = 16

// maxLevels bounds the inner levels of a tree: each non-root inner node
// has at least fanout/2 children, so 24 levels index more cracks than an
// int can count.
const maxLevels = 24

// Tree is a B+-tree over cracks, keyed by pivot value. Every leaf sits at
// the same depth, every node but the root is at least half full, and no
// crack is ever removed, so the tree needs no merge or rebalance step. The
// zero value is an empty tree ready for use.
type Tree struct {
	root     *inner // the root when levels > 0
	top      *leaf  // the root when levels == 0; nil in an empty tree
	levels   int    // inner levels above the leaves
	size     int
	counter0 int64 // crack counter of the piece that starts at position 0
	holes    int   // holes in the whole column
	tail     int   // holes at the end of the last piece
}

// block heads every node: its entry count and its keys, ascending, with
// the unused slots holding math.MaxInt64.
type block struct {
	n    int
	keys [fanout - 1]int64
}

// leaf holds up to fanout-1 cracks. Positions are relative to the deltas
// on the path from the root.
type leaf struct {
	block
	slots   [fanout - 1]slot
	counter [fanout - 1]int64 // crack counter of the piece starting at each crack
}

type slot struct {
	pos   int // crack position, relative to the path's deltas
	holes int // holes at the end of the piece this crack closes
}

// inner holds n <= fanout children; keys[i-1] is the smallest key under
// child i.
type inner struct {
	block
	edges [fanout]edge
	h     int // levels below: 1 when the children are leaves
}

type edge struct {
	delta int // lazy position delta applying to the child's whole subtree
	// first is the position of the child's first crack relative to the
	// child's own frame (the path's deltas including this one), kept for
	// every child but the first so Live can descend by position. A range
	// shift moves a whole child through delta and never moves the first
	// crack of a child it descends into, so first is only set by a split,
	// a relayout or a load.
	first int
	in    *inner // the child when h > 1
	lf    *leaf  // the child when h == 1
}

func newLeaf() *leaf {
	l := &leaf{}
	for i := range l.keys {
		l.keys[i] = math.MaxInt64
	}
	return l
}

func newInner(h int) *inner {
	in := &inner{h: h}
	for i := range in.keys {
		in.keys[i] = math.MaxInt64
	}
	return in
}

// rank returns how many of the first n keys of b are <= v. The unused
// slots hold math.MaxInt64, so they count only for v = math.MaxInt64,
// which the clamp to n covers. It reads the last key of
// each of the first three groups of four, then the first three keys of
// the group those leave: six compares in two rounds, each compare the
// borrow of an unsigned subtraction of sign-flipped keys, so the search
// has no branch on the data for the compiler to keep or a lookup to
// mispredict.
func (b *block) rank(n int, v int64) int {
	const sign = 1 << 63
	x := uint64(v) ^ sign
	k := &b.keys
	_, b1 := bits.Sub64(x, uint64(k[3])^sign, 0)
	_, b2 := bits.Sub64(x, uint64(k[7])^sign, 0)
	_, b3 := bits.Sub64(x, uint64(k[11])^sign, 0)
	g := (12 - 4*int(b1+b2+b3)) & 12 // keys below group g are <= v
	_, c0 := bits.Sub64(x, uint64(k[g])^sign, 0)
	_, c1 := bits.Sub64(x, uint64(k[g+1])^sign, 0)
	_, c2 := bits.Sub64(x, uint64(k[g+2])^sign, 0)
	return min(g+3-int(c0+c1+c2), n)
}

// rank's groups are written for 15 keys: this fails to compile for any
// other fanout.
var _ = [1]int{}[fanout-16]

// child returns the index of the child whose key range holds v.
func (in *inner) child(v int64) int { return in.rank(in.n-1, v) }

// at returns the number of l's cracks at or below v: the slot of the
// crack closing v's piece, if l holds that crack.
func (l *leaf) at(v int64) int { return l.rank(l.n, v) }

// end returns the live end of the piece slot c closes, in a leaf whose
// frame starts at acc.
func (l *leaf) end(c, acc int) int { return l.slots[c].pos + acc - l.slots[c].holes }

// Len returns the number of cracks in the index.
func (t *Tree) Len() int { return t.size }

// Holes returns the number of holes in the whole column: its physical
// length minus its live tuples.
func (t *Tree) Holes() int { return t.holes }

// End returns the live end of a column of n slots: n minus the holes at
// the end of its last piece.
func (t *Tree) End(n int) int { return n - t.tail }

// find descends to the leaf whose key range holds v and returns it (nil in
// an empty tree) with the delta accumulated on the way, and the nearest
// subtree right of the path: child j of right, whose frame starts at
// rAcc. right is nil when the leaf is the last one.
func (t *Tree) find(v int64) (l *leaf, acc int, right *inner, j, rAcc int) {
	if t.levels == 0 {
		return t.top, 0, nil, 0, 0
	}
	in := t.root
	for h := t.levels; ; h-- {
		i := in.child(v)
		if i+1 < in.n {
			right, j, rAcc = in, i+1, acc
		}
		e := &in.edges[i]
		acc += e.delta
		if h == 1 {
			return e.lf, acc, right, j, rAcc
		}
		in = e.in
	}
}

// leftmost returns the first leaf under child j of in, whose frame starts
// at acc, and the delta accumulated down to it.
func leftmost(in *inner, j, acc int) (*leaf, int) {
	for {
		e := &in.edges[j]
		acc += e.delta
		if in.h == 1 {
			return e.lf, acc
		}
		in, j = e.in, 0
	}
}

// Insert adds the crack (key, pos). If a crack with the same key already
// exists the tree is unchanged and Insert returns false. The piece split by
// the new crack passes its crack counter on to the new piece. pos must not
// lie past the split piece's live end: the new crack closes a piece without
// holes, and the split piece's holes stay with its upper part.
func (t *Tree) Insert(key int64, pos int) bool {
	if t.levels == 0 && t.top == nil {
		t.top = newLeaf()
	}
	var path [maxLevels]*inner
	var turn [maxLevels]int
	l, acc := t.top, 0
	if t.levels > 0 {
		in := t.root
		for d := 0; ; d++ {
			i := in.child(key)
			path[d], turn[d] = in, i
			acc += in.edges[i].delta
			if in.h == 1 {
				l = in.edges[i].lf
				break
			}
			in = in.edges[i].in
		}
	}
	c := l.at(key)
	if c > 0 && l.keys[c-1] == key {
		return false
	}
	counter := t.counter0
	if c > 0 {
		counter = l.counter[c-1]
	}
	t.size++
	if l.n < len(l.keys) {
		l.insertAt(c, key, pos-acc, counter)
		return true
	}
	// Split the full leaf so that both halves hold half of its cracks and
	// the new one.
	r := l.split(c)
	if l.n < r.n {
		l.insertAt(c, key, pos-acc, counter)
	} else {
		r.insertAt(c-l.n, key, pos-acc, counter)
	}
	// Hand the new leaf up: each level takes it beside the child it was
	// split from, with that child's delta, or splits in turn.
	up := edge{first: r.slots[0].pos, lf: r}
	sep := r.keys[0]
	for d := t.levels - 1; d >= 0; d-- {
		in, i := path[d], turn[d]
		up.delta = in.edges[i].delta
		if in.n < fanout {
			in.insertAt(i+1, sep, up)
			return true
		}
		rin, rsep := in.split()
		if i+1 <= in.n {
			in.insertAt(i+1, sep, up)
		} else {
			rin.insertAt(i+1-in.n, sep, up)
		}
		// rin's first crack is that of its first child, moved from in.
		up, sep = edge{first: rin.edges[0].delta + rin.edges[0].first, in: rin}, rsep
	}
	// The root split: grow a level.
	root := newInner(t.levels + 1)
	root.n = 2
	root.keys[0] = sep
	if t.levels == 0 {
		root.edges[0].lf = t.top
		t.top = nil
	} else {
		root.edges[0].in = t.root
	}
	root.edges[1] = up
	t.root = root
	t.levels++
	return true
}

func (l *leaf) insertAt(c int, key int64, pos int, counter int64) {
	copy(l.keys[c+1:l.n+1], l.keys[c:l.n])
	copy(l.slots[c+1:l.n+1], l.slots[c:l.n])
	copy(l.counter[c+1:l.n+1], l.counter[c:l.n])
	l.keys[c], l.slots[c], l.counter[c] = key, slot{pos: pos}, counter
	l.n++
}

// split moves the upper cracks of a full leaf into a new one, leaving
// the lower half one short when the crack about to go in at c belongs to
// it.
func (l *leaf) split(c int) *leaf {
	cut := (len(l.keys) + 1) / 2
	if c < cut {
		cut--
	}
	r := newLeaf()
	r.n = l.n - cut
	copy(r.keys[:], l.keys[cut:])
	copy(r.slots[:], l.slots[cut:])
	copy(r.counter[:], l.counter[cut:])
	for i := cut; i < l.n; i++ {
		l.keys[i], l.slots[i], l.counter[i] = math.MaxInt64, slot{}, 0
	}
	l.n = cut
	return r
}

// insertAt makes e child i, with sep the smallest key under it.
func (in *inner) insertAt(i int, sep int64, e edge) {
	copy(in.keys[i:in.n], in.keys[i-1:in.n-1])
	copy(in.edges[i+1:in.n+1], in.edges[i:in.n])
	in.keys[i-1], in.edges[i] = sep, e
	in.n++
}

// split moves the upper half of a full inner node's children into a new
// node and returns it with the smallest key under it.
func (in *inner) split() (*inner, int64) {
	const half = fanout / 2
	r := newInner(in.h)
	r.n = fanout - half
	sep := in.keys[half-1]
	copy(r.keys[:], in.keys[half:fanout-1])
	copy(r.edges[:], in.edges[half:])
	for i := half - 1; i < fanout-1; i++ {
		in.keys[i] = math.MaxInt64
	}
	clear(in.edges[half:])
	in.n = half
	return r, sep
}

// PieceFor returns the live slots [lo, hi) of the piece that holds value v
// in a column of n slots, together with exact: whether a crack lies exactly
// at key v (in which case a query bound at v needs no further cracking).
// hi is the next crack's position minus its holes, or End(n) for the last
// piece.
func (t *Tree) PieceFor(v int64, n int) (lo, hi int, exact bool) {
	lo, hi = 0, n-t.tail
	l, acc, right, j, rAcc := t.find(v)
	if l == nil {
		return lo, hi, false
	}
	c := l.at(v)
	if c > 0 {
		lo, exact = l.slots[c-1].pos+acc, l.keys[c-1] == v
	}
	if c < l.n {
		hi = l.end(c, acc)
	} else if right != nil {
		r, racc := leftmost(right, j, rAcc)
		hi = r.end(0, racc)
	}
	return lo, hi, exact
}

// Bounds returns PieceFor(a, n) followed by PieceFor(b, n), for a < b, in
// one descent whenever b lies in a's piece or on the crack that closes it —
// the common case for a converged query. The descent for a remembers the
// nearest subtree right of its path; the crack closing a's piece and its
// successor are then the next slots of a's leaf, or the first slots of
// that subtree's leftmost leaf, rather than a second descent from the
// root. Any other b takes PieceFor.
func (t *Tree) Bounds(a, b int64, n int) (loA, hiA int, exactA bool, loB, hiB int, exactB bool) {
	loA, hiA = 0, n-t.tail
	l, acc, right, j, rAcc := t.find(a)
	if l == nil {
		return loA, hiA, false, loA, hiA, false
	}
	c := l.at(a)
	if c > 0 {
		loA, exactA = l.slots[c-1].pos+acc, l.keys[c-1] == a
	}
	// The crack closing a's piece is slot c of l, or the first slot of the
	// next leaf, which is not the root and so holds a successor as well.
	if c == l.n {
		if right == nil {
			return loA, hiA, exactA, loA, hiA, false // a's piece is the last
		}
		l, acc = leftmost(right, j, rAcc)
		c, right = 0, nil
	}
	hiA = l.end(c, acc)
	switch key := l.keys[c]; {
	case b < key:
		return loA, hiA, exactA, loA, hiA, false
	case b == key:
		loB, hiB = l.slots[c].pos+acc, n-t.tail
		if c+1 < l.n {
			hiB = l.end(c+1, acc)
		} else if right != nil {
			r, racc := leftmost(right, j, rAcc)
			hiB = r.end(0, racc)
		}
		return loA, hiA, exactA, loB, hiB, true
	}
	loB, hiB, exactB = t.PieceFor(b, n)
	return loA, hiA, exactA, loB, hiB, exactB
}

// Above returns the crack that closes the piece holding v — the crack with
// the smallest key greater than v — with its absolute position and the
// holes at the end of that piece. ok is false when v's piece is the last
// one; pos and holes then describe the column end n and the last piece's
// holes.
func (t *Tree) Above(v int64, n int) (key int64, pos, holes int, ok bool) {
	l, c, acc := t.closing(v)
	if l == nil {
		return 0, n, t.tail, false
	}
	return l.keys[c], l.slots[c].pos + acc, l.slots[c].holes, true
}

// closing returns the leaf and slot of the crack closing v's piece, with
// the leaf's accumulated delta; l is nil when v's piece is the last.
func (t *Tree) closing(v int64) (l *leaf, c, acc int) {
	l, acc, right, j, rAcc := t.find(v)
	if l == nil {
		return nil, 0, 0
	}
	if c = l.at(v); c < l.n {
		return l, c, acc
	}
	if right == nil {
		return nil, 0, 0
	}
	l, acc = leftmost(right, j, rAcc)
	return l, 0, acc
}

// AddHoles adds delta to the hole count of the piece holding v.
func (t *Tree) AddHoles(v int64, delta int) {
	if l, c, _ := t.closing(v); l != nil {
		l.slots[c].holes += delta
	} else {
		t.tail += delta
	}
	t.holes += delta
}

// Has reports whether a crack at exactly key v exists.
func (t *Tree) Has(v int64) bool {
	l, _, _, _, _ := t.find(v)
	if l == nil {
		return false
	}
	c := l.at(v)
	return c > 0 && l.keys[c-1] == v
}

// CounterFor returns a pointer to the crack counter of the piece containing
// value v. Counters survive position shifts; the pointer remains valid
// until the next Insert, which may move the counter to another node.
func (t *Tree) CounterFor(v int64) *int64 {
	l, _, _, _, _ := t.find(v)
	if l == nil {
		return &t.counter0
	}
	if c := l.at(v); c > 0 {
		return &l.counter[c-1]
	}
	return &t.counter0
}

// RangeShift adds delta to the position of every crack whose key is
// strictly greater than afterKey, in O(B log n). A merged insert that
// carries tuples across cracks shifts each crossed crack one position to
// the right with two calls: +1 above its value, -1 above the last crack
// crossed.
func (t *Tree) RangeShift(afterKey int64, delta int) {
	l := t.top
	if t.levels > 0 {
		in := t.root
		for {
			i := in.child(afterKey)
			for k := i + 1; k < in.n; k++ {
				in.edges[k].delta += delta
			}
			if in.h == 1 {
				l = in.edges[i].lf
				break
			}
			in = in.edges[i].in
		}
	}
	if l == nil {
		return
	}
	for c := l.at(afterKey); c < l.n; c++ {
		l.slots[c].pos += delta
	}
}

// Ascend calls fn for every crack in increasing key order with its absolute
// position and the holes at the end of the piece it closes, stopping early
// if fn returns false.
func (t *Tree) Ascend(fn func(key int64, pos, holes int) bool) {
	if t.levels == 0 {
		if t.top != nil {
			t.top.ascend(0, fn)
		}
		return
	}
	t.root.ascend(0, fn)
}

func (l *leaf) ascend(acc int, fn func(key int64, pos, holes int) bool) bool {
	for c := 0; c < l.n; c++ {
		if !fn(l.keys[c], l.slots[c].pos+acc, l.slots[c].holes) {
			return false
		}
	}
	return true
}

func (in *inner) ascend(acc int, fn func(key int64, pos, holes int) bool) bool {
	for i := 0; i < in.n; i++ {
		e := &in.edges[i]
		var more bool
		if in.h == 1 {
			more = e.lf.ascend(acc+e.delta, fn)
		} else {
			more = e.in.ascend(acc+e.delta, fn)
		}
		if !more {
			return false
		}
	}
	return true
}

// Live calls fn, in position order, for every run of live slots in the
// positions [lo, hi), skipping the holes of every crack positioned in
// (lo, hi]. lo and hi must not fall inside a run of holes: the readers pass
// crack positions and live piece ends.
func (t *Tree) Live(lo, hi int, fn func(lo, hi int)) {
	w := liveWalk{lo: lo, hi: hi, start: lo, fn: fn}
	if t.levels > 0 {
		w.inner(t.root, 0)
	} else if t.top != nil {
		w.leaf(t.top, 0)
	}
	if w.start < hi {
		fn(w.start, hi)
	}
}

// liveWalk visits the cracks positioned in (lo, hi] in key order, which
// is position order, emitting the live run that ends at each one's holes.
type liveWalk struct {
	lo, hi, start int
	fn            func(lo, hi int)
}

// inner walks in's subtree from the last child whose first crack lies at
// or below lo — no earlier child holds a crack above lo — and reports
// whether a crack above hi ended the walk.
func (w *liveWalk) inner(in *inner, acc int) bool {
	i := 0
	for k := 1; k < in.n; k++ {
		if e := &in.edges[k]; acc+e.delta+e.first <= w.lo {
			i = k
		}
	}
	for ; i < in.n; i++ {
		e := &in.edges[i]
		var done bool
		if in.h == 1 {
			done = w.leaf(e.lf, acc+e.delta)
		} else {
			done = w.inner(e.in, acc+e.delta)
		}
		if done {
			return true
		}
	}
	return false
}

func (w *liveWalk) leaf(l *leaf, acc int) bool {
	for c := 0; c < l.n; c++ {
		abs := l.slots[c].pos + acc
		if abs <= w.lo {
			continue
		}
		if abs > w.hi {
			return true
		}
		if h := l.slots[c].holes; h > 0 {
			if end := abs - h; end > w.start {
				w.fn(w.start, end)
			}
			w.start = abs
		}
	}
	return false
}

// Relayout moves every crack, in increasing key order, to the position fn
// returns for it and gives the piece it closes the hole count fn returns;
// tail becomes the last piece's hole count. fn receives each crack's
// current position and holes. Spreading a column's slack uses it, after
// moving the tuples to match.
func (t *Tree) Relayout(tail int, fn func(pos, holes int) (int, int)) {
	t.tail = tail
	t.holes = tail
	if t.levels > 0 {
		t.holes += t.root.relayout(0, fn)
	} else if t.top != nil {
		t.holes += t.top.relayout(0, fn)
	}
}

// relayout rewrites the subtree's positions as absolute ones, clearing
// every delta on the way, and returns its holes.
func (l *leaf) relayout(acc int, fn func(pos, holes int) (int, int)) int {
	sum := 0
	for c := 0; c < l.n; c++ {
		s := &l.slots[c]
		s.pos, s.holes = fn(s.pos+acc, s.holes)
		sum += s.holes
	}
	return sum
}

func (in *inner) relayout(acc int, fn func(pos, holes int) (int, int)) int {
	sum := 0
	for i := 0; i < in.n; i++ {
		e := &in.edges[i]
		if in.h == 1 {
			sum += e.lf.relayout(acc+e.delta, fn)
			e.first = e.lf.slots[0].pos
		} else {
			sum += e.in.relayout(acc+e.delta, fn)
			e.first = e.in.edges[0].first
		}
		e.delta = 0
	}
	return sum
}

// Load replaces the tree's contents with k cracks, given in strictly
// ascending key order with non-decreasing positions by crack(i), every
// piece without holes and every counter zero. It packs the nodes level by
// level in one O(k) pass, as full as the half-full bound on the last node
// of each level allows, where k Inserts in ascending order would leave
// every leaf half full.
func (t *Tree) Load(k int, crack func(i int) (key int64, pos int)) {
	*t = Tree{size: k}
	if k == 0 {
		return
	}
	// A level is its nodes' edges in the level above, with the smallest
	// key under each.
	type node struct {
		e   edge
		min int64
	}
	level := make([]node, spread(k, fanout-1))
	for li, i := 0, 0; li < len(level); li++ {
		l := newLeaf()
		l.n = share(k, len(level), li)
		for c := 0; c < l.n; c++ {
			key, pos := crack(i)
			l.keys[c], l.slots[c].pos = key, pos
			i++
		}
		level[li] = node{edge{first: l.slots[0].pos, lf: l}, l.keys[0]}
	}
	if len(level) == 1 {
		t.top = level[0].e.lf
		return
	}
	for h := 1; len(level) > 1; h++ {
		up := make([]node, spread(len(level), fanout))
		for ui, next := 0, 0; ui < len(up); ui++ {
			in := newInner(h)
			in.n = share(len(level), len(up), ui)
			up[ui] = node{edge{first: level[next].e.first, in: in}, level[next].min}
			for c := 0; c < in.n; c++ {
				in.edges[c] = level[next].e
				if c > 0 {
					in.keys[c-1] = level[next].min
				}
				next++
			}
		}
		level = up
	}
	t.root = level[0].e.in
	t.levels = t.root.h
}

// spread returns how many nodes of capacity c hold m entries.
func spread(m, c int) int { return (m + c - 1) / c }

// share returns the entries node i of nodes takes when m entries are dealt
// out as evenly as possible: with two nodes or more each holds at least
// fanout/2.
func share(m, nodes, i int) int {
	if i < m%nodes {
		return m/nodes + 1
	}
	return m / nodes
}

// Pieces returns the live piece boundaries of a column of n slots as a
// sorted slice of positions in the column without its holes, beginning
// with 0 and ending with n - Holes(). A freshly created index yields
// [0, n]: one piece covering the whole column.
func (t *Tree) Pieces(n int) []int {
	out := make([]int, 0, t.size+2)
	out = append(out, 0)
	gone := 0
	t.Ascend(func(_ int64, pos, holes int) bool {
		gone += holes
		out = append(out, pos-gone)
		return true
	})
	return append(out, n-t.holes)
}
