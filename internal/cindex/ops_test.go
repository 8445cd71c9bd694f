package cindex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// model is the naive reference for a Tree over a column of n slots: a
// sorted slice of cracks, each with its position, the holes at the end of
// the piece it closes and the counter of the piece it starts.
type model struct {
	keys     []int64
	pos      []int
	holes    []int
	counter  []int64
	counter0 int64
	tail, n  int
}

// at returns the number of cracks at or below v: the index of the crack
// closing v's piece.
func (m *model) at(v int64) int {
	return sort.Search(len(m.keys), func(i int) bool { return m.keys[i] > v })
}

func (m *model) pieceFor(v int64) (lo, hi int, exact bool) {
	c := m.at(v)
	lo, hi = 0, m.n-m.tail
	if c > 0 {
		lo, exact = m.pos[c-1], m.keys[c-1] == v
	}
	if c < len(m.keys) {
		hi = m.pos[c] - m.holes[c]
	}
	return lo, hi, exact
}

func (m *model) above(v int64) (key int64, pos, holes int, ok bool) {
	if c := m.at(v); c < len(m.keys) {
		return m.keys[c], m.pos[c], m.holes[c], true
	}
	return 0, m.n, m.tail, false
}

func (m *model) counterFor(v int64) *int64 {
	if c := m.at(v); c > 0 {
		return &m.counter[c-1]
	}
	return &m.counter0
}

func (m *model) insert(key int64, pos int) bool {
	c := m.at(key)
	if c > 0 && m.keys[c-1] == key {
		return false
	}
	inherited := *m.counterFor(key)
	m.keys = slices.Insert(m.keys, c, key)
	m.pos = slices.Insert(m.pos, c, pos)
	m.holes = slices.Insert(m.holes, c, 0)
	m.counter = slices.Insert(m.counter, c, inherited)
	return true
}

// holeAt adds d to the hole count of v's piece.
func (m *model) holeAt(v int64, d int) {
	if c := m.at(v); c < len(m.keys) {
		m.holes[c] += d
	} else {
		m.tail += d
	}
}

func (m *model) shift(after int64, d int) {
	for c := m.at(after); c < len(m.keys); c++ {
		m.pos[c] += d
	}
}

// live returns the live slots of v's piece.
func (m *model) live(v int64) int {
	lo, hi, _ := m.pieceFor(v)
	return hi - lo
}

func (m *model) totalHoles() int {
	sum := m.tail
	for _, h := range m.holes {
		sum += h
	}
	return sum
}

// treeOps replays one random op sequence against a Tree and the model:
// first `keys` inserts in ascending (order 0), descending (1) or random
// (2) key order, or a bulk load of as many random cracks (3), then one op
// per byte of ops — a burst of Inserts, RangeShift +1 and -1, AddHoles
// (with the shift that makes room for them, or a hole turned live),
// Relayout and a counter bump through CounterFor — checking the whole
// read surface after each. Every op keeps the model a valid column
// layout: positions non-decreasing, no piece with fewer than zero live
// slots.
func treeOps(seed uint64, order uint8, keys int, ops []byte) error {
	r := xrand.New(seed)
	var tr Tree
	m := &model{n: 4 * keys}
	domain := int64(16 * keys)
	if order%4 == 3 {
		loadBoth(&tr, m, r, keys, domain)
	}
	for i := 0; i < keys && order%4 != 3; i++ {
		var key int64
		switch order % 4 {
		case 0:
			key = 16 * int64(i)
		case 1:
			key = 16 * int64(keys-1-i)
		default:
			key = r.Int63n(domain)
		}
		if err := insertBoth(&tr, m, r, key); err != nil {
			return err
		}
		// Counters the splits to come must carry along.
		if i%8 == 0 {
			v := r.Int63n(domain)
			*tr.CounterFor(v) += 1
			*m.counterFor(v) += 1
		}
		if i%64 == 63 {
			if err := compare(&tr, m, r); err != nil {
				return fmt.Errorf("after %d inserts: %w", i+1, err)
			}
		}
	}
	if err := compare(&tr, m, r); err != nil {
		return fmt.Errorf("after building %d cracks: %w", keys, err)
	}
	if tr.levels > 0 && tr.dir.buckets == nil {
		return fmt.Errorf("no directory after building %d cracks", keys)
	}
	// fresh: no range shift since the build or the last Relayout, so the
	// directory must be there.
	fresh := true
	for i, op := range ops {
		v := r.Int63n(domain+32) - 16
		var name string
		switch op % 6 {
		case 0:
			// A burst, so that nodes split under the deltas earlier ops
			// left.
			name = fmt.Sprintf("Insert burst from %d", v)
			for j := r.Intn(fanout); j >= 0; j-- {
				if r.Intn(16) == 0 {
					v = math.MaxInt64 // where grow puts its holes
				}
				if err := insertBoth(&tr, m, r, v); err != nil {
					return err
				}
				v = r.Int63n(domain+32) - 16
			}
		case 1, 2:
			d := 1
			if op%6 == 2 && m.live(v) > 0 {
				d = -1
			}
			name = fmt.Sprintf("RangeShift(%d, %d)", v, d)
			fresh = false
			tr.RangeShift(v, d)
			m.shift(v, d)
			m.n += d
		case 3:
			if _, _, h, _ := m.above(v); h > 0 && r.Bool() {
				name = fmt.Sprintf("AddHoles(%d, -1)", v)
				tr.AddHoles(v, -1)
				m.holeAt(v, -1)
				break
			}
			h := 1 + r.Intn(3)
			name = fmt.Sprintf("AddHoles(%d, %d)", v, h)
			fresh = false
			tr.AddHoles(v, h)
			tr.RangeShift(v, h)
			m.holeAt(v, h)
			m.shift(v, h)
			m.n += h
		case 4:
			name = "Relayout"
			fresh = true
			if err := relayoutBoth(&tr, m, r); err != nil {
				return err
			}
		case 5:
			d := 1 + r.Int63n(3)
			name = fmt.Sprintf("CounterFor(%d) += %d", v, d)
			*tr.CounterFor(v) += d
			*m.counterFor(v) += d
		}
		if err := compare(&tr, m, r); err != nil {
			return fmt.Errorf("op %d, %s: %w", i, name, err)
		}
		if fresh && tr.levels > 0 && tr.dir.buckets == nil {
			return fmt.Errorf("op %d, %s: no directory, and no delta is pending", i, name)
		}
	}
	return nil
}

// loadBoth bulk-loads about keys random cracks, in ascending key order
// with positions spread over the column.
func loadBoth(tr *Tree, m *model, r *xrand.Rand, keys int, domain int64) {
	for i := 0; i < keys; i++ {
		m.keys = append(m.keys, r.Int63n(domain))
	}
	slices.Sort(m.keys)
	m.keys = slices.Compact(m.keys)
	for range m.keys {
		m.pos = append(m.pos, r.Intn(m.n+1))
	}
	slices.Sort(m.pos)
	m.holes = make([]int, len(m.keys))
	m.counter = make([]int64, len(m.keys))
	tr.Load(len(m.keys), func(i int) (int64, int) { return m.keys[i], m.pos[i] })
}

// insertBoth cracks key at a random position within its piece's live
// slots, as a crack kernel would.
func insertBoth(tr *Tree, m *model, r *xrand.Rand, key int64) error {
	lo, hi, _ := m.pieceFor(key)
	pos := lo + r.Intn(hi-lo+1)
	if got, want := tr.Insert(key, pos), m.insert(key, pos); got != want {
		return fmt.Errorf("Insert(%d, %d) = %v, model %v", key, pos, got, want)
	}
	if !tr.Has(key) {
		return fmt.Errorf("Has(%d) false after Insert", key)
	}
	return nil
}

// relayoutBoth gives every piece a random new hole count of up to two
// more than it has, moving the cracks to match.
func relayoutBoth(tr *Tree, m *model, r *xrand.Rand) error {
	grow, c := 0, 0
	var err error
	newHoles := func(h int) int { return r.Intn(h + 3) }
	tr.Relayout(0, func(pos, holes int) (int, int) {
		if c >= len(m.keys) || pos != m.pos[c] || holes != m.holes[c] {
			err = fmt.Errorf("Relayout passes crack %d as (%d, %d)", c, pos, holes)
			return pos, holes
		}
		h := newHoles(holes)
		grow += h - holes
		m.pos[c], m.holes[c] = pos+grow, h
		c++
		return pos + grow, h
	})
	if err != nil {
		return err
	}
	if c != len(m.keys) {
		return fmt.Errorf("Relayout visits %d of %d cracks", c, len(m.keys))
	}
	// The tail: Relayout sets it, so it runs again with the cracks kept.
	tail := newHoles(m.tail)
	tr.Relayout(tail, func(pos, holes int) (int, int) { return pos, holes })
	m.n += grow + tail - m.tail
	m.tail = tail
	return nil
}

// compare checks every read of tr against m, and tr's structure.
func compare(tr *Tree, m *model, r *xrand.Rand) error {
	if err := treeErr(tr); err != nil {
		return err
	}
	if tr.Len() != len(m.keys) || tr.Holes() != m.totalHoles() || tr.End(m.n) != m.n-m.tail {
		return fmt.Errorf("Len %d Holes %d End %d, model %d %d %d",
			tr.Len(), tr.Holes(), tr.End(m.n), len(m.keys), m.totalHoles(), m.n-m.tail)
	}
	i := 0
	var err error
	tr.Ascend(func(key int64, pos, holes int) bool {
		if i >= len(m.keys) || key != m.keys[i] || pos != m.pos[i] || holes != m.holes[i] {
			err = fmt.Errorf("Ascend[%d] = (%d, %d, %d)", i, key, pos, holes)
			return false
		}
		i++
		return true
	})
	if err != nil || i != len(m.keys) {
		return fmt.Errorf("Ascend visits %d of %d cracks: %v", i, len(m.keys), err)
	}
	dense, gone := []int{0}, 0
	for c := range m.keys {
		gone += m.holes[c]
		dense = append(dense, m.pos[c]-gone)
	}
	if got := tr.Pieces(m.n); !slices.Equal(got, append(dense, m.n-m.totalHoles())) {
		return fmt.Errorf("Pieces = %v", got)
	}
	ps := []int64{math.MinInt64, -100, 1 << 40, math.MaxInt64}
	for _, k := range m.keys {
		ps = append(ps, k-1, k, k+1)
	}
	slices.Sort(ps)
	ps = slices.Compact(ps)
	for i, v := range ps {
		lo, hi, exact := tr.PieceFor(v, m.n)
		wlo, whi, wexact := m.pieceFor(v)
		if lo != wlo || hi != whi || exact != wexact {
			return fmt.Errorf("PieceFor(%d) = [%d,%d) %v, model [%d,%d) %v", v, lo, hi, exact, wlo, whi, wexact)
		}
		k, pos, h, ok := tr.Above(v, m.n)
		wk, wpos, wh, wok := m.above(v)
		if k != wk || pos != wpos || h != wh || ok != wok {
			return fmt.Errorf("Above(%d) = (%d, %d, %d, %v), model (%d, %d, %d, %v)", v, k, pos, h, ok, wk, wpos, wh, wok)
		}
		if c := m.at(v); tr.Has(v) != (c > 0 && m.keys[c-1] == v) {
			return fmt.Errorf("Has(%d) = %v", v, tr.Has(v))
		}
		if got, want := *tr.CounterFor(v), *m.counterFor(v); got != want {
			return fmt.Errorf("CounterFor(%d) = %d, model %d", v, got, want)
		}
		for _, b := range ps[i+1 : min(i+4, len(ps))] {
			loA, hiA, exA, loB, hiB, exB, closes := tr.Bounds(v, b, m.n)
			wloB, whiB, wexB := m.pieceFor(b)
			if wk, _, _, wok := m.above(v); closes != (wok && wk == b) {
				return fmt.Errorf("Bounds(%d, %d) closes = %v, model %v", v, b, closes, wok && wk == b)
			}
			if loA != wlo || hiA != whi || exA != wexact || loB != wloB || hiB != whiB || exB != wexB {
				return fmt.Errorf("Bounds(%d, %d) = [%d,%d) %v, [%d,%d) %v; model [%d,%d) %v, [%d,%d) %v",
					v, b, loA, hiA, exA, loB, hiB, exB, wlo, whi, wexact, wloB, whiB, wexB)
			}
		}
	}
	return compareLive(tr, m, r)
}

// compareLive checks Live against the model's slots on random pairs of
// valid range ends: crack positions, live piece ends, 0 and the live end.
func compareLive(tr *Tree, m *model, r *xrand.Rand) error {
	hole := make([]bool, m.n)
	ends := []int{0, m.n - m.tail}
	for c := range m.keys {
		for j := m.pos[c] - m.holes[c]; j < m.pos[c]; j++ {
			hole[j] = true
		}
		ends = append(ends, m.pos[c], m.pos[c]-m.holes[c])
	}
	for i := 0; i < 24; i++ {
		lo, hi := ends[r.Intn(len(ends))], ends[r.Intn(len(ends))]
		if lo > hi {
			lo, hi = hi, lo
		}
		var got, want []int
		tr.Live(lo, hi, func(a, b int) {
			for j := a; j < b; j++ {
				got = append(got, j)
			}
		})
		for j := lo; j < hi; j++ {
			if !hole[j] {
				want = append(want, j)
			}
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("Live(%d, %d) visits %v, want %v", lo, hi, got, want)
		}
	}
	return nil
}

// opsKeys maps a fuzzed key count to at least fanout² cracks, enough for
// the inner nodes to split.
func opsKeys(keys uint16) int { return fanout*fanout + int(keys)%(fanout*fanout) }

// FuzzTreeOps replays fuzzed op sequences against the reference model
// (treeOps); the seed corpus covers each way to build the tree, with every
// op and with only the ops that keep the directory (Insert, Relayout and
// CounterFor).
func FuzzTreeOps(f *testing.F) {
	for order := uint8(0); order < 4; order++ {
		f.Add(uint64(order), order, uint16(order)*37, []byte{0, 1, 2, 3, 4, 5, 3, 3, 1, 2, 5, 0, 0, 4})
	}
	for order := uint8(0); order < 4; order++ {
		f.Add(uint64(order)+4, order, uint16(order)*101, []byte{0, 0, 5, 0, 0, 0, 4, 0, 0, 5, 0, 0, 0, 0, 4, 0, 0, 0})
	}
	f.Fuzz(func(t *testing.T, seed uint64, order uint8, keys uint16, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		if err := treeOps(seed, order, opsKeys(keys), ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTreeOpsQuick is FuzzTreeOps's seeded twin: random op sequences from
// testing/quick, replayed the same way on every run.
func TestTreeOpsQuick(t *testing.T) {
	f := func(seed uint64, order uint8, keys uint16, ops [24]byte) bool {
		if err := treeOps(seed, order, opsKeys(keys), ops[:]); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLoadMatchesInserts checks that a bulk-loaded tree answers Ascend,
// and PieceFor at every key and key±1, exactly as one built by Inserts in
// ascending order does, that it keeps the tree's invariants, and that
// inserts into its full nodes keep them too.
func TestLoadMatchesInserts(t *testing.T) {
	r := xrand.New(23)
	for _, k := range []int{0, 1, 2, fanout - 1, fanout, fanout + 1, fanout * fanout / 2, fanout*fanout + 7, 5000} {
		keys := make([]int64, 0, k)
		for len(keys) < k {
			keys = append(keys, r.Int63n(1<<20))
			slices.Sort(keys)
			keys = slices.Compact(keys)
		}
		pos := make([]int, k)
		for i := range pos {
			pos[i] = int(keys[i]) / 2 // non-decreasing
		}
		var built, loaded Tree
		for i, key := range keys {
			built.Insert(key, pos[i])
		}
		*loaded.CounterFor(5) = 9 // Load starts from nothing
		loaded.Load(k, func(i int) (int64, int) { return keys[i], pos[i] })
		checkTree(t, &loaded)
		if *loaded.CounterFor(5) != 0 {
			t.Fatalf("k=%d: Load kept an old counter", k)
		}
		var a, b []int
		built.Ascend(func(key int64, pos, holes int) bool { a = append(a, int(key), pos, holes); return true })
		loaded.Ascend(func(key int64, pos, holes int) bool { b = append(b, int(key), pos, holes); return true })
		if !slices.Equal(a, b) || loaded.Len() != built.Len() {
			t.Fatalf("k=%d: loaded Ascend differs from the insert-built one", k)
		}
		const n = 1 << 20
		for _, key := range append(keys, -1, n) {
			for _, v := range []int64{key - 1, key, key + 1} {
				lo, hi, exact := loaded.PieceFor(v, n)
				wlo, whi, wexact := built.PieceFor(v, n)
				if lo != wlo || hi != whi || exact != wexact {
					t.Fatalf("k=%d: PieceFor(%d) = [%d,%d) %v, insert-built [%d,%d) %v", k, v, lo, hi, exact, wlo, whi, wexact)
				}
			}
		}
		if k > fanout && depth(&loaded) > depth(&built) {
			t.Fatalf("k=%d: loaded depth %d exceeds insert-built %d", k, depth(&loaded), depth(&built))
		}
		for i := 0; i < 200; i++ {
			key := r.Int63n(1 << 20)
			lo, hi, _ := loaded.PieceFor(key, n)
			loaded.Insert(key, lo+r.Intn(hi-lo+1))
		}
		checkTree(t, &loaded)
	}
}
