// Package cindex implements the cracker index: the tree structure a
// cracking DBMS maintains to record which piece of the cracker column holds
// which value range (original cracking uses AVL trees [16]; so does this
// package).
//
// A crack (key, pos) states that every tuple at a position < pos has a
// value < key, and every tuple at a position >= pos has a value >= key.
// Cracks are immutable once placed — physical reorganization only ever
// happens inside pieces — with one exception: updates. A merged insert that
// carries a tuple across cracks shifts each of them by one position, which
// this tree supports in O(log n) through lazy subtree position deltas.
//
// Updates also leave holes: empty slots a merged delete vacates, or slack
// reserved for later inserts (internal/updates). Holes always sit at the end
// of a piece, and each crack counts the holes of the piece it closes (the
// last piece's count is kept on the tree). A piece's values are its live
// slots: PieceFor reports the live end, Live walks the live runs of a
// position range, and Pieces reports live (dense) boundaries, so code above
// the engine never sees a hole.
//
// Each node additionally carries the crack counter of the piece that starts
// at it (used by the ScrackMon selective strategy of §4): when a crack
// splits a piece, the new piece inherits its parent piece's counter, exactly
// as the paper specifies.
package cindex

// Tree is an AVL tree over cracks, keyed by pivot value. The zero value is
// an empty tree ready for use.
type Tree struct {
	root     *node
	size     int
	counter0 int64 // crack counter of the piece that starts at position 0
	holes    int   // holes in the whole column
	tail     int   // holes at the end of the last piece
}

type node struct {
	key     int64 // pivot value
	pos     int   // crack position, relative to accumulated ancestor shifts
	holes   int   // holes at the end of the piece this crack closes
	shift   int   // lazy position delta applying to both children's subtrees
	counter int64 // crack counter of the piece starting at this crack
	height  int
	left    *node
	right   *node
}

// Len returns the number of cracks in the index.
func (t *Tree) Len() int { return t.size }

// Holes returns the number of holes in the whole column: its physical
// length minus its live tuples.
func (t *Tree) Holes() int { return t.holes }

// End returns the live end of a column of n slots: n minus the holes at
// the end of its last piece.
func (t *Tree) End(n int) int { return n - t.tail }

// Height returns the height of the tree (0 for an empty tree).
func (t *Tree) Height() int { return height(t.root) }

func height(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

// pushDown moves this node's pending subtree shift onto its children. It
// must be called on every node along a path that is about to be
// restructured (rotations re-parent subtrees, which would otherwise change
// the set of ancestors whose shifts apply).
func (n *node) pushDown() {
	if n.shift == 0 {
		return
	}
	if n.left != nil {
		n.left.pos += n.shift
		n.left.shift += n.shift
	}
	if n.right != nil {
		n.right.pos += n.shift
		n.right.shift += n.shift
	}
	n.shift = 0
}

func (n *node) fix() {
	hl, hr := height(n.left), height(n.right)
	if hl > hr {
		n.height = hl + 1
	} else {
		n.height = hr + 1
	}
}

func (n *node) balance() int { return height(n.left) - height(n.right) }

// rotations assume the participating nodes have zero pending shift, which
// insert guarantees by pushing down along the descent path.
func rotateRight(y *node) *node {
	x := y.left
	y.left = x.right
	x.right = y
	y.fix()
	x.fix()
	return x
}

func rotateLeft(x *node) *node {
	y := x.right
	x.right = y.left
	y.left = x
	x.fix()
	y.fix()
	return y
}

func rebalance(n *node) *node {
	n.fix()
	switch b := n.balance(); {
	case b > 1:
		n.pushDown()
		n.left.pushDown()
		if n.left.balance() < 0 {
			n.left.right.pushDown()
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case b < -1:
		n.pushDown()
		n.right.pushDown()
		if n.right.balance() > 0 {
			n.right.left.pushDown()
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

// Insert adds the crack (key, pos). If a crack with the same key already
// exists the tree is unchanged and Insert returns false. The piece split by
// the new crack passes its crack counter on to the new piece. pos must not
// lie past the split piece's live end: the new crack closes a piece without
// holes, and the split piece's holes stay with its upper part.
func (t *Tree) Insert(key int64, pos int) bool {
	inherited := *t.CounterFor(key)
	inserted := false
	t.root = t.insert(t.root, key, pos, inherited, &inserted)
	if inserted {
		t.size++
	}
	return inserted
}

func (t *Tree) insert(n *node, key int64, pos int, counter int64, inserted *bool) *node {
	if n == nil {
		*inserted = true
		return &node{key: key, pos: pos, counter: counter, height: 1}
	}
	n.pushDown()
	switch {
	case key < n.key:
		n.left = t.insert(n.left, key, pos, counter, inserted)
	case key > n.key:
		n.right = t.insert(n.right, key, pos, counter, inserted)
	default:
		return n // crack already known
	}
	if !*inserted {
		return n
	}
	return rebalance(n)
}

// PieceFor returns the live slots [lo, hi) of the piece that holds value v
// in a column of n slots, together with exact: whether a crack lies exactly
// at key v (in which case a query bound at v needs no further cracking).
// hi is the next crack's position minus its holes, or End(n) for the last
// piece.
func (t *Tree) PieceFor(v int64, n int) (lo, hi int, exact bool) {
	lo, hi = 0, n-t.tail
	acc := 0
	cur := t.root
	for cur != nil {
		abs := cur.pos + acc
		switch {
		case v < cur.key:
			hi = abs - cur.holes
			acc += cur.shift
			cur = cur.left
		case v > cur.key:
			lo = abs
			acc += cur.shift
			cur = cur.right
		default:
			lo = abs
			exact = true
			// The piece's end is the successor crack's position.
			acc += cur.shift
			cur = cur.right
			for cur != nil {
				hi = cur.pos + acc - cur.holes
				acc += cur.shift
				cur = cur.left
			}
			return lo, hi, true
		}
	}
	return lo, hi, false
}

// Bounds returns PieceFor(a, n) followed by PieceFor(b, n), for a < b, in
// one descent whenever b lies in a's piece or on the crack that closes it —
// the common case for a converged query. The descent for a remembers that
// closing crack and the one before it on the path; b's live end is then the
// closing crack's successor, found by a walk down its right subtree rather
// than a second descent from the root. Any other b takes PieceFor.
func (t *Tree) Bounds(a, b int64, n int) (loA, hiA int, exactA bool, loB, hiB int, exactB bool) {
	loA, hiA = 0, n-t.tail
	var (
		c    *node // the crack closing a's piece: the last left turn
		cPos int   // c's absolute position
		cAcc int   // the shift applying to c's children
		pHi  int   // hi of the left turn before c: c's successor when c.right is nil
	)
	acc := 0
	for cur := t.root; cur != nil; {
		abs := cur.pos + acc
		acc += cur.shift
		switch {
		case a < cur.key:
			pHi, hiA = hiA, abs-cur.holes
			c, cPos, cAcc = cur, abs, acc
			cur = cur.left
		case a > cur.key:
			loA = abs
			cur = cur.right
		default:
			// Every key of the right subtree exceeds a, so the rest of the
			// descent only turns left, down to a's successor.
			loA, exactA = abs, true
			cur = cur.right
		}
	}
	switch {
	case c == nil || b < c.key:
		return loA, hiA, exactA, loA, hiA, false
	case b == c.key:
		hiB = pHi
		for cur, acc := c.right, cAcc; cur != nil; cur = cur.left {
			hiB = cur.pos + acc - cur.holes
			acc += cur.shift
		}
		return loA, hiA, exactA, cPos, hiB, true
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
	pos, holes = n, t.tail
	acc := 0
	for cur := t.root; cur != nil; {
		if v < cur.key {
			key, pos, holes, ok = cur.key, cur.pos+acc, cur.holes, true
			acc += cur.shift
			cur = cur.left
		} else {
			acc += cur.shift
			cur = cur.right
		}
	}
	return key, pos, holes, ok
}

// AddHoles adds delta to the hole count of the piece holding v.
func (t *Tree) AddHoles(v int64, delta int) {
	count := &t.tail
	for cur := t.root; cur != nil; {
		if v < cur.key {
			count = &cur.holes
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	*count += delta
	t.holes += delta
}

// Has reports whether a crack at exactly key v exists.
func (t *Tree) Has(v int64) bool {
	cur := t.root
	for cur != nil {
		switch {
		case v < cur.key:
			cur = cur.left
		case v > cur.key:
			cur = cur.right
		default:
			return true
		}
	}
	return false
}

// CounterFor returns a pointer to the crack counter of the piece containing
// value v. Counters survive position shifts; the pointer remains valid until
// the piece is split by a new crack.
func (t *Tree) CounterFor(v int64) *int64 {
	best := &t.counter0
	cur := t.root
	for cur != nil {
		if v < cur.key {
			cur = cur.left
		} else {
			best = &cur.counter
			cur = cur.right
		}
	}
	return best
}

// RangeShift adds delta to the position of every crack whose key is
// strictly greater than afterKey, in O(log n). A merged insert that carries
// tuples across cracks shifts each crossed crack one position to the right
// with two calls: +1 above its value, -1 above the last crack crossed.
func (t *Tree) RangeShift(afterKey int64, delta int) {
	cur := t.root
	for cur != nil {
		if cur.key > afterKey {
			cur.pos += delta
			if cur.right != nil {
				cur.right.pos += delta
				cur.right.shift += delta
			}
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
}

// Ascend calls fn for every crack in increasing key order with its absolute
// position and the holes at the end of the piece it closes, stopping early
// if fn returns false.
func (t *Tree) Ascend(fn func(key int64, pos, holes int) bool) {
	ascend(t.root, 0, fn)
}

func ascend(n *node, acc int, fn func(key int64, pos, holes int) bool) bool {
	if n == nil {
		return true
	}
	if !ascend(n.left, acc+n.shift, fn) {
		return false
	}
	if !fn(n.key, n.pos+acc, n.holes) {
		return false
	}
	return ascend(n.right, acc+n.shift, fn)
}

// Live calls fn, in position order, for every run of live slots in the
// positions [lo, hi), skipping the holes of every crack positioned in
// (lo, hi]. lo and hi must not fall inside a run of holes: the readers pass
// crack positions and live piece ends.
func (t *Tree) Live(lo, hi int, fn func(lo, hi int)) {
	start := lo
	live(t.root, 0, lo, hi, &start, fn)
	if start < hi {
		fn(start, hi)
	}
}

func live(n *node, acc, lo, hi int, start *int, fn func(lo, hi int)) {
	if n == nil {
		return
	}
	abs := n.pos + acc
	acc += n.shift
	if abs > lo {
		live(n.left, acc, lo, hi, start, fn)
		if abs <= hi && n.holes > 0 {
			if end := abs - n.holes; end > *start {
				fn(*start, end)
			}
			*start = abs
		}
	}
	if abs <= hi {
		live(n.right, acc, lo, hi, start, fn)
	}
}

// Relayout moves every crack, in increasing key order, to the position fn
// returns for it and gives the piece it closes the hole count fn returns;
// tail becomes the last piece's hole count. fn receives each crack's
// current position and holes. Spreading a column's slack uses it, after
// moving the tuples to match.
func (t *Tree) Relayout(tail int, fn func(pos, holes int) (int, int)) {
	t.tail = tail
	t.holes = tail + relayout(t.root, 0, fn)
}

func relayout(n *node, acc int, fn func(pos, holes int) (int, int)) int {
	if n == nil {
		return 0
	}
	sum := relayout(n.left, acc+n.shift, fn)
	n.pos, n.holes = fn(n.pos+acc, n.holes)
	sum += n.holes + relayout(n.right, acc+n.shift, fn)
	n.shift = 0
	return sum
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
