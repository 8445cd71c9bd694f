package cindex

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// refIndex is a brute-force reference model: a sorted slice of cracks.
type refIndex struct {
	keys []int64
	pos  []int
}

func (r *refIndex) insert(key int64, pos int) bool {
	i := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= key })
	if i < len(r.keys) && r.keys[i] == key {
		return false
	}
	r.keys = append(r.keys, 0)
	r.pos = append(r.pos, 0)
	copy(r.keys[i+1:], r.keys[i:])
	copy(r.pos[i+1:], r.pos[i:])
	r.keys[i], r.pos[i] = key, pos
	return true
}

func (r *refIndex) pieceFor(v int64, n int) (lo, hi int, exact bool) {
	lo, hi = 0, n
	for i, k := range r.keys {
		if k <= v {
			lo = r.pos[i]
			if k == v {
				exact = true
			}
		} else {
			hi = r.pos[i]
			break
		}
	}
	return lo, hi, exact
}

func (r *refIndex) rangeShift(afterKey int64, delta int) {
	for i, k := range r.keys {
		if k > afterKey {
			r.pos[i] += delta
		}
	}
}

// checkTree fails t on the first B+-tree invariant tr breaks.
func checkTree(t testing.TB, tr *Tree) {
	t.Helper()
	if err := treeErr(tr); err != nil {
		t.Fatal(err)
	}
}

// treeErr checks the B+-tree invariants: keys strictly ascending in order;
// every leaf at one depth; every non-root node at least half full (a root
// inner node has two children); each separator the smallest key under its
// child, every key of a child within its separators, and the unused key
// slots math.MaxInt64; each child's first position that of its first
// crack; the size and hole bookkeeping; and a depth of at most
// ⌈log_{B/2} k⌉ + 1.
func treeErr(tr *Tree) error {
	const half = fanout / 2
	var (
		k, holes  int
		leafDepth = -1
		prev      int64
	)
	var walkLeaf func(l *leaf, d, acc int, root bool) (int64, int, error)
	walkLeaf = func(l *leaf, d, acc int, root bool) (int64, int, error) {
		if l.n < 1 || l.n > len(l.keys) || !root && l.n < half {
			return 0, 0, fmt.Errorf("leaf at depth %d holds %d cracks", d, l.n)
		}
		if leafDepth >= 0 && d != leafDepth {
			return 0, 0, fmt.Errorf("leaves at depths %d and %d", leafDepth, d)
		}
		leafDepth = d
		for c, key := range l.keys {
			switch {
			case c >= l.n && key != math.MaxInt64:
				return 0, 0, fmt.Errorf("unused leaf slot %d holds key %d", c, key)
			case c < l.n && k > 0 && key <= prev:
				return 0, 0, fmt.Errorf("key %d after %d", key, prev)
			case c < l.n:
				prev = key
				k++
				holes += l.slots[c].holes
			}
		}
		return l.keys[0], l.slots[0].pos + acc, nil
	}
	var walk func(in *inner, d, acc int, root bool) (int64, int, error)
	walk = func(in *inner, d, acc int, root bool) (int64, int, error) {
		if in.n > fanout || in.n < 2 || !root && in.n < half {
			return 0, 0, fmt.Errorf("inner node at depth %d holds %d children", d, in.n)
		}
		var lo int64
		var loPos int
		for i := 0; i < in.n; i++ {
			e := in.edges[i]
			var (
				least int64
				first int
				err   error
			)
			switch {
			case in.h == 1 && e.lf != nil && e.in == nil:
				least, first, err = walkLeaf(e.lf, d+1, acc+e.delta, false)
			case in.h > 1 && e.in != nil && e.lf == nil && e.in.h == in.h-1:
				least, first, err = walk(e.in, d+1, acc+e.delta, false)
			default:
				return 0, 0, fmt.Errorf("child %d of a height-%d node is malformed", i, in.h)
			}
			if err != nil {
				return 0, 0, err
			}
			if i == 0 {
				lo, loPos = least, first
				continue
			}
			if in.keys[i-1] != least {
				return 0, 0, fmt.Errorf("separator %d is %d, child's smallest key %d", i-1, in.keys[i-1], least)
			}
			if got := acc + e.delta + e.first; got != first {
				return 0, 0, fmt.Errorf("child %d records first position %d, its first crack sits at %d", i, got, first)
			}
		}
		for i := in.n - 1; i < len(in.keys); i++ {
			if in.keys[i] != math.MaxInt64 {
				return 0, 0, fmt.Errorf("unused separator slot %d holds %d", i, in.keys[i])
			}
		}
		return lo, loPos, nil
	}
	// Keys ascend across the whole walk, and each child's smallest key is
	// its separator, so every key lies within its separators.
	var err error
	switch {
	case tr.levels > 0 && (tr.root == nil || tr.top != nil || tr.root.h != tr.levels):
		return fmt.Errorf("root fields inconsistent with %d levels", tr.levels)
	case tr.levels > 0:
		_, _, err = walk(tr.root, 1, 0, true)
	case tr.top != nil:
		_, _, err = walkLeaf(tr.top, 1, 0, true)
	}
	if err != nil {
		return err
	}
	if k != tr.Len() {
		return fmt.Errorf("walk finds %d cracks, Len reports %d", k, tr.Len())
	}
	if holes+tr.tail != tr.Holes() {
		return fmt.Errorf("cracks hold %d holes and the tail %d, Holes reports %d", holes, tr.tail, tr.Holes())
	}
	bound, reach := 1, 1
	for reach < k {
		reach *= half
		bound++
	}
	if d := depth(tr); k > 0 && d > bound {
		return fmt.Errorf("depth %d over %d cracks exceeds %d", d, k, bound)
	}
	return nil
}

// depth returns the number of levels in tr: 0 when it is empty, 1 for a
// lone leaf.
func depth(tr *Tree) int {
	if tr.levels == 0 && tr.top == nil {
		return 0
	}
	return tr.levels + 1
}

func TestEmptyTree(t *testing.T) {
	var tr Tree
	lo, hi, exact := tr.PieceFor(42, 100)
	if lo != 0 || hi != 100 || exact {
		t.Fatalf("empty tree piece = [%d,%d) exact=%v, want [0,100) false", lo, hi, exact)
	}
	if tr.Len() != 0 || depth(&tr) != 0 {
		t.Fatal("empty tree has nonzero size or height")
	}
	if got := tr.Pieces(100); len(got) != 2 || got[0] != 0 || got[1] != 100 {
		t.Fatalf("empty tree pieces = %v, want [0 100]", got)
	}
}

func TestInsertAndPieceFor(t *testing.T) {
	var tr Tree
	// Fig. 1's end state: cracks at 7->pos2? use synthetic positions.
	tr.Insert(10, 40)
	tr.Insert(14, 60)
	tr.Insert(7, 25)
	tr.Insert(16, 80)

	cases := []struct {
		v      int64
		lo, hi int
		exact  bool
	}{
		{0, 0, 25, false},
		{6, 0, 25, false},
		{7, 25, 40, true},
		{8, 25, 40, false},
		{10, 40, 60, true},
		{13, 40, 60, false},
		{14, 60, 80, true},
		{15, 60, 80, false},
		{16, 80, 100, true},
		{99, 80, 100, false},
	}
	for _, c := range cases {
		lo, hi, exact := tr.PieceFor(c.v, 100)
		if lo != c.lo || hi != c.hi || exact != c.exact {
			t.Errorf("PieceFor(%d) = [%d,%d) %v, want [%d,%d) %v", c.v, lo, hi, exact, c.lo, c.hi, c.exact)
		}
	}
	checkTree(t, &tr)
}

func TestInsertDuplicateKey(t *testing.T) {
	var tr Tree
	if !tr.Insert(5, 10) {
		t.Fatal("first insert rejected")
	}
	if tr.Insert(5, 20) {
		t.Fatal("duplicate insert accepted")
	}
	if tr.Len() != 1 {
		t.Fatalf("size = %d, want 1", tr.Len())
	}
	lo, _, _ := tr.PieceFor(5, 100)
	if lo != 10 {
		t.Fatalf("duplicate insert changed position: %d", lo)
	}
}

func TestHas(t *testing.T) {
	var tr Tree
	for _, k := range []int64{8, 3, 12, 1, 6} {
		tr.Insert(k, int(k)*10)
	}
	for _, k := range []int64{8, 3, 12, 1, 6} {
		if !tr.Has(k) {
			t.Fatalf("Has(%d) = false", k)
		}
	}
	for _, k := range []int64{0, 2, 7, 100} {
		if tr.Has(k) {
			t.Fatalf("Has(%d) = true", k)
		}
	}
}

func TestAscendOrderAndPieces(t *testing.T) {
	var tr Tree
	r := xrand.New(3)
	keys := r.Perm(200)
	for _, k := range keys {
		tr.Insert(k, int(k)) // position = key for a sorted column of [0,200)
	}
	var prev int64 = -1
	count := 0
	tr.Ascend(func(key int64, pos, _ int) bool {
		if key <= prev {
			t.Fatalf("Ascend out of order: %d after %d", key, prev)
		}
		if pos != int(key) {
			t.Fatalf("Ascend position mismatch at key %d: %d", key, pos)
		}
		prev = key
		count++
		return true
	})
	if count != 200 {
		t.Fatalf("Ascend visited %d cracks, want 200", count)
	}
	pieces := tr.Pieces(200)
	if len(pieces) != 202 {
		t.Fatalf("Pieces length = %d, want 202", len(pieces))
	}
	if !sort.IntsAreSorted(pieces) {
		t.Fatal("piece boundaries not sorted")
	}
}

func TestAscendEarlyStop(t *testing.T) {
	var tr Tree
	for i := int64(0); i < 50; i++ {
		tr.Insert(i, int(i))
	}
	count := 0
	tr.Ascend(func(key int64, pos, _ int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d, want 10", count)
	}
}

func TestBalancedHeightUnderSequentialInserts(t *testing.T) {
	// Sequential key insertion is the classic balance stress: a plain BST
	// would degenerate to a list. 2^12 keys in either order must stay
	// within the B+-tree depth bound ⌈log_{B/2} k⌉ + 1, which checkTree
	// enforces.
	for _, step := range []int{1, -1} {
		var tr Tree
		for i := 0; i < 4096; i++ {
			k := i
			if step < 0 {
				k = 4095 - i
			}
			tr.Insert(int64(k), k)
		}
		if d := depth(&tr); d < 2 {
			t.Fatalf("depth %d for 4096 cracks", d)
		}
		checkTree(t, &tr)
	}
}

func TestAgainstReferenceModel(t *testing.T) {
	const n = 1 << 16
	r := xrand.New(7)
	var tr Tree
	ref := &refIndex{}
	for i := 0; i < 500; i++ {
		k := r.Int63n(n)
		p := int(k) // any monotone mapping works for piece semantics
		got := tr.Insert(k, p)
		want := ref.insert(k, p)
		if got != want {
			t.Fatalf("insert(%d) = %v, ref %v", k, got, want)
		}
	}
	checkTree(t, &tr)
	for i := 0; i < 2000; i++ {
		v := r.Int63n(n)
		lo, hi, exact := tr.PieceFor(v, n)
		rlo, rhi, rexact := ref.pieceFor(v, n)
		if lo != rlo || hi != rhi || exact != rexact {
			t.Fatalf("PieceFor(%d) = [%d,%d) %v, ref [%d,%d) %v", v, lo, hi, exact, rlo, rhi, rexact)
		}
	}
}

func TestRangeShiftAgainstReference(t *testing.T) {
	const n = 1 << 16
	r := xrand.New(11)
	var tr Tree
	ref := &refIndex{}
	for i := 0; i < 300; i++ {
		k := r.Int63n(n)
		tr.Insert(k, int(k))
		ref.insert(k, int(k))
	}
	for i := 0; i < 200; i++ {
		after := r.Int63n(n)
		delta := 1
		if r.Bool() {
			delta = -1
		}
		tr.RangeShift(after, delta)
		ref.rangeShift(after, delta)
		// Interleave inserts to exercise splits under pending deltas.
		if i%3 == 0 {
			k := r.Int63n(n)
			// Positions must stay consistent with the reference; insert at
			// the reference's notion of position for this key.
			lo, _, exact := ref.pieceFor(k, n<<1)
			if !exact {
				p := lo + int(k)%97
				tr.Insert(k, p)
				ref.insert(k, p)
			}
		}
	}
	checkTree(t, &tr)
	for i := 0; i < 3000; i++ {
		v := r.Int63n(n)
		lo, hi, exact := tr.PieceFor(v, n<<1)
		rlo, rhi, rexact := ref.pieceFor(v, n<<1)
		if lo != rlo || hi != rhi || exact != rexact {
			t.Fatalf("after shifts, PieceFor(%d) = [%d,%d) %v, ref [%d,%d) %v", v, lo, hi, exact, rlo, rhi, rexact)
		}
	}
	// Ascend must also report shifted absolute positions.
	i := 0
	tr.Ascend(func(key int64, pos, _ int) bool {
		if key != ref.keys[i] || pos != ref.pos[i] {
			t.Fatalf("Ascend[%d] = (%d,%d), ref (%d,%d)", i, key, pos, ref.keys[i], ref.pos[i])
		}
		i++
		return true
	})
}

func TestRangeShiftQuick(t *testing.T) {
	f := func(keys []int64, after int64, delta8 int8, seed uint64) bool {
		var tr Tree
		ref := &refIndex{}
		for _, k := range keys {
			tr.Insert(k, int(k%1000))
			ref.insert(k, int(k%1000))
		}
		delta := int(delta8)
		tr.RangeShift(after, delta)
		ref.rangeShift(after, delta)
		ok := true
		i := 0
		tr.Ascend(func(key int64, pos, _ int) bool {
			if i >= len(ref.keys) || key != ref.keys[i] || pos != ref.pos[i] {
				ok = false
				return false
			}
			i++
			return true
		})
		return ok && i == len(ref.keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterInheritance(t *testing.T) {
	var tr Tree
	// Whole column is one piece; bump its counter to 5.
	*tr.CounterFor(50) = 5
	// Crack at 40 splits it; both resulting pieces must hold counter 5.
	tr.Insert(40, 400)
	if c := *tr.CounterFor(10); c != 5 {
		t.Fatalf("left piece counter = %d, want 5", c)
	}
	if c := *tr.CounterFor(99); c != 5 {
		t.Fatalf("right piece counter = %d, want 5", c)
	}
	// Bump only the right piece, then split it again.
	*tr.CounterFor(99) = 9
	tr.Insert(70, 700)
	if c := *tr.CounterFor(45); c != 9 {
		t.Fatalf("piece [40,70) counter = %d, want 9 (inherited)", c)
	}
	if c := *tr.CounterFor(80); c != 9 {
		t.Fatalf("piece [70,inf) counter = %d, want 9 (inherited)", c)
	}
	if c := *tr.CounterFor(10); c != 5 {
		t.Fatalf("piece below 40 counter = %d, want 5 (untouched)", c)
	}
}

func TestCounterPointerStability(t *testing.T) {
	var tr Tree
	tr.Insert(100, 10)
	p := tr.CounterFor(150)
	*p = 3
	// Inserting far below must not invalidate the pointer's meaning.
	for i := int64(0); i < 50; i++ {
		tr.Insert(i, int(i))
	}
	if *tr.CounterFor(150) != 3 {
		t.Fatal("counter lost after unrelated inserts")
	}
}

func TestCrackPositionsMonotone(t *testing.T) {
	// In a real cracking run, keys and positions are inserted in tandem
	// (larger keys at larger positions). Verify Pieces stays sorted through
	// a random cracking simulation.
	r := xrand.New(13)
	const n = 10000
	var tr Tree
	ref := make(map[int64]bool)
	for i := 0; i < 500; i++ {
		k := r.Int63n(n)
		if ref[k] {
			continue
		}
		ref[k] = true
		tr.Insert(k, int(k)) // sorted column: position == key
	}
	pieces := tr.Pieces(n)
	if !sort.IntsAreSorted(pieces) {
		t.Fatal("piece positions not monotone in key order")
	}
	checkTree(t, &tr)
}

// TestHolesAgainstReference checks the hole-aware reads — PieceFor's live
// end, Above, Live, Pieces and Relayout — against a slot-by-slot model
// of a column whose pieces end in random numbers of holes.
func TestHolesAgainstReference(t *testing.T) {
	r := xrand.New(17)
	for round := 0; round < 50; round++ {
		// Piece i holds live[i] tuples followed by holes[i] holes; crack i
		// (key 10*(i+1)) closes piece i.
		pieces := 1 + r.Intn(20)
		live, holes := make([]int, pieces), make([]int, pieces)
		var tr Tree
		n, total := 0, 0
		for i := range live {
			live[i], holes[i] = r.Intn(5), r.Intn(3)
			n += live[i] + holes[i]
			total += holes[i]
			if i < pieces-1 {
				tr.Insert(int64(10*(i+1)), n)
			}
		}
		for i, h := range holes {
			tr.AddHoles(int64(10*i+5), h)
		}
		if tr.Holes() != total || tr.End(n) != n-holes[pieces-1] {
			t.Fatalf("Holes %d End %d, want %d and %d", tr.Holes(), tr.End(n), total, n-holes[pieces-1])
		}
		hole := make([]bool, n) // the model: which slots are holes
		start := 0
		dense := []int{0}
		for i := range live {
			for j := start + live[i]; j < start+live[i]+holes[i]; j++ {
				hole[j] = true
			}
			lo, hi, exact := tr.PieceFor(int64(10*i+5), n)
			if lo != start || hi != start+live[i] || exact {
				t.Fatalf("piece %d: PieceFor = [%d,%d) %v, want [%d,%d)", i, lo, hi, exact, start, start+live[i])
			}
			key, pos, h, ok := tr.Above(int64(10*i+5), n)
			if end := start + live[i] + holes[i]; pos != end || h != holes[i] || ok != (i < pieces-1) || (ok && key != int64(10*(i+1))) {
				t.Fatalf("piece %d: Above = (%d, %d, %d, %v), want pos %d holes %d", i, key, pos, h, ok, end, holes[i])
			}
			start += live[i] + holes[i]
			dense = append(dense, dense[len(dense)-1]+live[i])
		}
		if got := tr.Pieces(n); !slices.Equal(got, dense) {
			t.Fatalf("Pieces = %v, want %v", got, dense)
		}
		// Live over every range between crack positions and live ends
		// visits exactly the live slots.
		var bounds []int
		tr.Ascend(func(_ int64, pos, h int) bool {
			bounds = append(bounds, pos-h, pos)
			return true
		})
		bounds = append(bounds, 0, tr.End(n))
		for _, lo := range bounds {
			for _, hi := range bounds {
				if lo > hi {
					continue
				}
				var got []int
				tr.Live(lo, hi, func(a, b int) {
					for j := a; j < b; j++ {
						got = append(got, j)
					}
				})
				var want []int
				for j := lo; j < hi; j++ {
					if !hole[j] {
						want = append(want, j)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("Live(%d, %d) visits %v, want %v", lo, hi, got, want)
				}
			}
		}
		// Relayout to a hole-free layout matches the dense boundaries.
		i := 0
		tr.Relayout(0, func(pos, h int) (int, int) {
			i++
			return dense[i], 0
		})
		if got := tr.Pieces(n - total); tr.Holes() != 0 || !slices.Equal(got, dense) {
			t.Fatalf("after Relayout: holes %d, Pieces %v, want %v", tr.Holes(), got, dense)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	r := xrand.New(1)
	keys := make([]int64, b.N)
	for i := range keys {
		keys[i] = r.Int63n(1 << 40)
	}
	b.ResetTimer()
	var tr Tree
	for i := 0; i < b.N; i++ {
		tr.Insert(keys[i], int(keys[i]&0xffff))
	}
}

func BenchmarkPieceFor(b *testing.B) {
	r := xrand.New(1)
	var tr Tree
	for i := 0; i < 100000; i++ {
		k := r.Int63n(1 << 40)
		tr.Insert(k, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.PieceFor(r.Int63n(1<<40), 1<<30)
	}
}

func BenchmarkRangeShift(b *testing.B) {
	r := xrand.New(1)
	var tr Tree
	for i := 0; i < 100000; i++ {
		tr.Insert(r.Int63n(1<<40), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RangeShift(r.Int63n(1<<40), 1)
	}
}

// BenchmarkBoundsConverged times Bounds as a converged point query meets
// it: k = 23 207 random cracks (the count a traced hot_converged run ends
// with) over n = 10 M positions of a sorted column, each lookup on a
// replayed range whose bounds are two neighbouring cracks, followed by a
// 10-value read at a random place in an 80 MB column, so the index
// competes with the answers for cache as it does in a query.
func BenchmarkBoundsConverged(b *testing.B) {
	const k, n, probes = 23_207, 10_000_000, 1 << 16
	r := xrand.New(1)
	var tr Tree
	keys := make([]int64, 0, k)
	for len(keys) < k {
		if key := r.Int63n(n); tr.Insert(key, int(key)) {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(i)
	}
	type probe struct {
		a, b int64
		at   int
	}
	ps := make([]probe, probes)
	for i := range ps {
		j := r.Intn(k - 1)
		ps[i] = probe{keys[j], keys[j+1], r.Intn(n - 10)}
	}
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &ps[i&(probes-1)]
		loA, _, _, _, hiB, _ := tr.Bounds(p.a, p.b, n)
		for _, v := range col[p.at : p.at+10] {
			sink += v
		}
		sink += int64(loA + hiB)
	}
	if sink == 0 {
		b.Fatal("no work")
	}
}

// TestBoundConverged checks what Bounds gives the engine's convergence
// test (a bound is converged when it lies exactly on a crack or its piece
// holds at most threshold tuples): the piece sizes and exactness of both
// bounds, with the threshold inclusive, and no mutation from probing.
func TestBoundConverged(t *testing.T) {
	var tr Tree
	const n = 1000
	converged := func(lo, hi int, exact bool, threshold int) bool {
		return exact || hi-lo <= threshold
	}
	both := func(a, b int64, threshold int) (bool, bool) {
		loA, hiA, exA, loB, hiB, exB := tr.Bounds(a, b, n)
		return converged(loA, hiA, exA, threshold), converged(loB, hiB, exB, threshold)
	}
	// Empty tree: the whole column is one piece; converged only when the
	// threshold covers it.
	if ca, cb := both(500, 600, 10); ca || cb {
		t.Fatal("large single piece reported converged")
	}
	if ca, cb := both(500, 600, n); !ca || !cb {
		t.Fatal("threshold >= piece size must converge")
	}
	tr.Insert(100, 100)
	tr.Insert(200, 200)
	// Exact cracks: converged regardless of threshold.
	if ca, cb := both(100, 200, 0); !ca || !cb {
		t.Fatal("exact crack not converged")
	}
	// Value inside piece [100, 200): piece has 100 tuples; b on the crack
	// closing it stays converged.
	if ca, cb := both(150, 200, 99); ca || !cb {
		t.Fatal("piece of 100 converged at threshold 99")
	}
	if ca, _ := both(150, 200, 100); !ca {
		t.Fatal("piece of 100 not converged at threshold 100")
	}
	// b inside the same piece as a.
	if ca, cb := both(120, 180, 99); ca || cb {
		t.Fatal("both bounds in a piece of 100 converged at threshold 99")
	}
	if ca, cb := both(120, 180, 100); !ca || !cb {
		t.Fatal("both bounds in a piece of 100 not converged at threshold 100")
	}
	// Probing must not mutate the tree.
	if tr.Len() != 2 {
		t.Fatalf("probe changed the tree: %d cracks", tr.Len())
	}
}

// TestBoundsMatchesPieceFor checks the fused descent against two PieceFor
// calls on random trees, after every mutation the tree supports: inserts,
// range shifts (which leave lazy shifts on inner nodes), holes (the last
// piece's included) and a relayout. Each a is tried exact and not exact,
// with b inside a's piece, on the crack closing it and several cracks
// further.
func TestBoundsMatchesPieceFor(t *testing.T) {
	var empty Tree
	if !boundsAgree(t, &empty, 100, []int64{-3, 0, 7}) {
		t.Fatal("empty tree")
	}
	empty.AddHoles(5, 4)
	if !boundsAgree(t, &empty, 100, []int64{-3, 0, 7}) {
		t.Fatal("empty tree with tail holes")
	}
	f := func(seed uint64, cracks uint8) bool {
		r := xrand.New(seed)
		var tr Tree
		// Keys are multiples of 10, so every crack has values strictly on
		// both sides of it; each crack splits its piece's live slots at a
		// random position.
		const domain = 2000
		n := domain
		insert := func(count int) {
			for i := 0; i < count; i++ {
				k := 10 * (1 + r.Int63n(domain/10-1))
				lo, hi, _ := tr.PieceFor(k, n)
				tr.Insert(k, lo+r.Intn(hi-lo+1))
			}
		}
		insert(int(cracks % 64))
		if !boundsAgree(t, &tr, n, probes(&tr)) {
			return false
		}
		for i := 0; i < 8; i++ {
			tr.RangeShift(r.Int63n(domain), 1)
			n++
		}
		if !boundsAgree(t, &tr, n, probes(&tr)) {
			return false
		}
		// h holes at the end of v's piece: h more slots, and every crack
		// above v moves up by h.
		addHoles := func(v int64, h int) {
			tr.AddHoles(v, h)
			tr.RangeShift(v, h)
			n += h
		}
		for i := 0; i < 8; i++ {
			addHoles(r.Int63n(domain), 1+r.Intn(3))
		}
		addHoles(domain, 2) // the last piece's tail
		if !boundsAgree(t, &tr, n, probes(&tr)) {
			return false
		}
		insert(8)
		if !boundsAgree(t, &tr, n, probes(&tr)) {
			return false
		}
		// Relayout gives every piece up to two more holes.
		extra, grow := r.Intn(3), 0
		tr.Relayout(n-tr.End(n)+extra, func(pos, holes int) (int, int) {
			d := r.Intn(3)
			grow += d
			return pos + grow, holes + d
		})
		return boundsAgree(t, &tr, n+grow+extra, probes(&tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// probes returns sorted query bounds around every crack of tr — just
// below, exact, just above — and beyond both ends of the key range.
func probes(tr *Tree) []int64 {
	out := []int64{-5}
	tr.Ascend(func(key int64, _, _ int) bool {
		out = append(out, key-1, key, key+1)
		return true
	})
	return append(out, 1<<20)
}

// boundsAgree compares Bounds(a, b, n) with PieceFor(a, n) and
// PieceFor(b, n) for every a in ps and every b among the next eight
// probes after it and the last one, reporting the first mismatch.
func boundsAgree(t *testing.T, tr *Tree, n int, ps []int64) bool {
	t.Helper()
	for i, a := range ps {
		bs := append([]int64{a + 1}, ps[i+1:min(i+9, len(ps))]...)
		for _, b := range append(bs, ps[len(ps)-1]) {
			if b <= a {
				continue
			}
			loA, hiA, exA, loB, hiB, exB := tr.Bounds(a, b, n)
			wloA, whiA, wexA := tr.PieceFor(a, n)
			wloB, whiB, wexB := tr.PieceFor(b, n)
			if loA != wloA || hiA != whiA || exA != wexA || loB != wloB || hiB != whiB || exB != wexB {
				t.Errorf("Bounds(%d, %d) = [%d,%d) %v, [%d,%d) %v; PieceFor gives [%d,%d) %v, [%d,%d) %v",
					a, b, loA, hiA, exA, loB, hiB, exB, wloA, whiA, wexA, wloB, whiB, wexB)
				return false
			}
		}
	}
	return true
}
