package column

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// multiset returns a value->count map for positions [lo,hi).
func multiset(v []int64, lo, hi int) map[int64]int {
	m := make(map[int64]int)
	for _, x := range v[lo:hi] {
		m[x]++
	}
	return m
}

func sameMultiset(a, b map[int64]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, c := range a {
		if b[k] != c {
			return false
		}
	}
	return true
}

func TestCrackInTwoBasic(t *testing.T) {
	c := New([]int64{13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6})
	p := c.CrackInTwo(0, c.Len(), 10)
	for i := 0; i < p; i++ {
		if c.Values[i] >= 10 {
			t.Fatalf("value %d at %d on left of crack", c.Values[i], i)
		}
	}
	for i := p; i < c.Len(); i++ {
		if c.Values[i] < 10 {
			t.Fatalf("value %d at %d on right of crack", c.Values[i], i)
		}
	}
	if p != 8 {
		t.Fatalf("split position = %d, want 8 (eight values below 10)", p)
	}
}

func TestCrackInTwoEdgePivots(t *testing.T) {
	vals := []int64{5, 3, 8, 1, 9}
	c := New(append([]int64(nil), vals...))
	if p := c.CrackInTwo(0, 5, 0); p != 0 {
		t.Fatalf("pivot below min: p=%d, want 0", p)
	}
	if p := c.CrackInTwo(0, 5, 100); p != 5 {
		t.Fatalf("pivot above max: p=%d, want 5", p)
	}
	if p := c.CrackInTwo(2, 2, 4); p != 2 {
		t.Fatalf("empty range: p=%d, want 2", p)
	}
}

func TestCrackInTwoDuplicates(t *testing.T) {
	c := New([]int64{5, 5, 5, 5, 5})
	if p := c.CrackInTwo(0, 5, 5); p != 0 {
		t.Fatalf("all-equal pivot=value: p=%d, want 0 (>= pivot goes right)", p)
	}
	c2 := New([]int64{5, 5, 5, 5, 5})
	if p := c2.CrackInTwo(0, 5, 6); p != 5 {
		t.Fatalf("all-equal pivot above: p=%d, want 5", p)
	}
}

func TestCrackInTwoProperty(t *testing.T) {
	f := func(vals []int64, pivot int64, seed uint64) bool {
		c := New(append([]int64(nil), vals...))
		before := multiset(c.Values, 0, len(vals))
		p := c.CrackInTwo(0, len(vals), pivot)
		if !sameMultiset(before, multiset(c.Values, 0, len(vals))) {
			return false
		}
		for i := 0; i < p; i++ {
			if c.Values[i] >= pivot {
				return false
			}
		}
		for i := p; i < len(vals); i++ {
			if c.Values[i] < pivot {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCrackInTwoSubrangeProperty(t *testing.T) {
	// Cracking an interior range must not disturb tuples outside it.
	f := func(vals []int64, pivot int64, loRaw, hiRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		lo := int(loRaw) % len(vals)
		hi := lo + int(hiRaw)%(len(vals)-lo+1)
		c := New(append([]int64(nil), vals...))
		p := c.CrackInTwo(lo, hi, pivot)
		for i := 0; i < lo; i++ {
			if c.Values[i] != vals[i] {
				return false
			}
		}
		for i := hi; i < len(vals); i++ {
			if c.Values[i] != vals[i] {
				return false
			}
		}
		if p < lo || p > hi {
			return false
		}
		for i := lo; i < p; i++ {
			if c.Values[i] >= pivot {
				return false
			}
		}
		for i := p; i < hi; i++ {
			if c.Values[i] < pivot {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCrackInThreeBasic(t *testing.T) {
	c := New([]int64{13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6})
	p1, p2 := c.CrackInThree(0, c.Len(), 7, 11)
	for i := 0; i < p1; i++ {
		if c.Values[i] >= 7 {
			t.Fatalf("pos %d: %d not < 7", i, c.Values[i])
		}
	}
	for i := p1; i < p2; i++ {
		if c.Values[i] < 7 || c.Values[i] >= 11 {
			t.Fatalf("pos %d: %d not in [7,11)", i, c.Values[i])
		}
	}
	for i := p2; i < c.Len(); i++ {
		if c.Values[i] < 11 {
			t.Fatalf("pos %d: %d not >= 11", i, c.Values[i])
		}
	}
}

func TestCrackInThreeProperty(t *testing.T) {
	f := func(vals []int64, a, b int64) bool {
		if a > b {
			a, b = b, a
		}
		c := New(append([]int64(nil), vals...))
		before := multiset(c.Values, 0, len(vals))
		p1, p2 := c.CrackInThree(0, len(vals), a, b)
		if !sameMultiset(before, multiset(c.Values, 0, len(vals))) {
			return false
		}
		if p1 > p2 || p1 < 0 || p2 > len(vals) {
			return false
		}
		for i := 0; i < p1; i++ {
			if c.Values[i] >= a {
				return false
			}
		}
		for i := p1; i < p2; i++ {
			if c.Values[i] < a || c.Values[i] >= b {
				return false
			}
		}
		for i := p2; i < len(vals); i++ {
			if c.Values[i] < b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCrackInThreeEqualPivots(t *testing.T) {
	c := New([]int64{3, 1, 4, 1, 5, 9, 2, 6})
	p1, p2 := c.CrackInThree(0, c.Len(), 4, 4)
	if p1 != p2 {
		t.Fatalf("a == b should yield empty middle: p1=%d p2=%d", p1, p2)
	}
	for i := 0; i < p1; i++ {
		if c.Values[i] >= 4 {
			t.Fatal("left part violates < a")
		}
	}
	for i := p2; i < c.Len(); i++ {
		if c.Values[i] < 4 {
			t.Fatal("right part violates >= b")
		}
	}
}

func TestCrackInThreePanicsOnInvertedPivots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CrackInThree(a>b) did not panic")
		}
	}()
	New([]int64{1, 2, 3}).CrackInThree(0, 3, 5, 2)
}

func TestCrackPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CrackInTwo with hi>len did not panic")
		}
	}()
	New([]int64{1, 2, 3}).CrackInTwo(0, 4, 2)
}

// positions returns 0..n-1 as a payload: after any tandem permutation,
// Payload[i] is the original position of Values[i].
func positions(n int) []int64 {
	pos := make([]int64, n)
	for i := range pos {
		pos[i] = int64(i)
	}
	return pos
}

func TestPayloadFollowsValues(t *testing.T) {
	vals := []int64{13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6}
	c := NewWithPayload(append([]int64(nil), vals...), positions(len(vals)))
	c.CrackInTwo(0, c.Len(), 10)
	c.CrackInThree(0, c.Len(), 3, 12)
	for i, pos := range c.Payload {
		if vals[pos] != c.Values[i] {
			t.Fatalf("payload %d at pos %d does not match value %d", pos, i, c.Values[i])
		}
	}
}

func TestSplitAndMaterialize(t *testing.T) {
	r := xrand.New(1)
	vals := r.Perm(200)
	c := New(append([]int64(nil), vals...))
	out, p := c.SplitAndMaterialize(0, c.Len(), 100, 40, 60, nil)
	if len(out) != 20 {
		t.Fatalf("materialized %d values in [40,60), want 20", len(out))
	}
	seen := make(map[int64]bool)
	for _, x := range out {
		if x < 40 || x >= 60 || seen[x] {
			t.Fatalf("bad materialized value %d", x)
		}
		seen[x] = true
	}
	for i := 0; i < p; i++ {
		if c.Values[i] >= 100 {
			t.Fatal("partition invariant broken left of split")
		}
	}
	for i := p; i < c.Len(); i++ {
		if c.Values[i] < 100 {
			t.Fatal("partition invariant broken right of split")
		}
	}
}

func TestSplitAndMaterializeProperty(t *testing.T) {
	f := func(vals []int64, pivot, a, b int64) bool {
		if a > b {
			a, b = b, a
		}
		c := New(append([]int64(nil), vals...))
		before := multiset(c.Values, 0, len(vals))
		want := 0
		for _, x := range vals {
			if a <= x && x < b {
				want++
			}
		}
		out, p := c.SplitAndMaterialize(0, len(vals), pivot, a, b, nil)
		if len(out) != want {
			return false
		}
		for _, x := range out {
			if x < a || x >= b {
				return false
			}
		}
		if !sameMultiset(before, multiset(c.Values, 0, len(vals))) {
			return false
		}
		for i := 0; i < p; i++ {
			if c.Values[i] >= pivot {
				return false
			}
		}
		for i := p; i < len(vals); i++ {
			if c.Values[i] < pivot {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAndMaterializeGE(t *testing.T) {
	f := func(vals []int64, pivot, a int64) bool {
		c := New(append([]int64(nil), vals...))
		want := 0
		for _, x := range vals {
			if x >= a {
				want++
			}
		}
		out, p := c.SplitAndMaterializeGE(0, len(vals), pivot, a, nil)
		if len(out) != want {
			return false
		}
		for i := 0; i < p; i++ {
			if c.Values[i] >= pivot {
				return false
			}
		}
		for i := p; i < len(vals); i++ {
			if c.Values[i] < pivot {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAndMaterializeLT(t *testing.T) {
	f := func(vals []int64, pivot, b int64) bool {
		c := New(append([]int64(nil), vals...))
		want := 0
		for _, x := range vals {
			if x < b {
				want++
			}
		}
		out, p := c.SplitAndMaterializeLT(0, len(vals), pivot, b, nil)
		if len(out) != want {
			return false
		}
		for i := 0; i < p; i++ {
			if c.Values[i] >= pivot {
				return false
			}
		}
		for i := p; i < len(vals); i++ {
			if c.Values[i] < pivot {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScanMaterializeAndCount(t *testing.T) {
	r := xrand.New(9)
	vals := r.Perm(500)
	c := New(vals)
	out := c.ScanMaterialize(0, c.Len(), 100, 150, nil)
	if len(out) != 50 {
		t.Fatalf("scan found %d, want 50", len(out))
	}
	if n := c.CountRange(0, c.Len(), 100, 150); n != 50 {
		t.Fatalf("count = %d, want 50", n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	for i, x := range out {
		if x != int64(100+i) {
			t.Fatalf("scan result corrupted at %d: %d", i, x)
		}
	}
}

func TestTouchedAccounting(t *testing.T) {
	c := New(xrand.New(2).Perm(1000))
	c.Stats.Reset()
	c.CrackInTwo(0, 1000, 500)
	if c.Stats.Touched != 1000 {
		t.Fatalf("CrackInTwo touched = %d, want 1000", c.Stats.Touched)
	}
	c.Stats.Reset()
	c.CrackInThree(100, 600, 200, 400)
	if c.Stats.Touched != 500 {
		t.Fatalf("CrackInThree touched = %d, want 500", c.Stats.Touched)
	}
	c.Stats.Reset()
	c.ScanMaterialize(0, 1000, 0, 10, nil)
	if c.Stats.Touched != 1000 {
		t.Fatalf("ScanMaterialize touched = %d, want 1000", c.Stats.Touched)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := NewWithPayload([]int64{3, 1, 2}, positions(3))
	cp := c.Clone()
	cp.Values[0] = 99
	cp.Payload[0] = 7
	if c.Values[0] != 3 || c.Payload[0] != 0 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestStepPartitionCompletesLikeCrackInTwo(t *testing.T) {
	r := xrand.New(4)
	vals := r.Perm(1000)
	a := New(append([]int64(nil), vals...))
	b := New(append([]int64(nil), vals...))
	want := a.CrackInTwo(0, 1000, 500)

	ps := NewPartitionState(0, 1000, 500)
	steps := 0
	for !b.StepPartition(ps, 7) {
		steps++
		if steps > 10000 {
			t.Fatal("progressive partition did not terminate")
		}
	}
	if ps.SplitPos() != want {
		t.Fatalf("progressive split = %d, want %d", ps.SplitPos(), want)
	}
	for i := 0; i < want; i++ {
		if b.Values[i] >= 500 {
			t.Fatal("progressive partition invariant broken (left)")
		}
	}
	for i := want; i < 1000; i++ {
		if b.Values[i] < 500 {
			t.Fatal("progressive partition invariant broken (right)")
		}
	}
}

func TestStepPartitionPreservesMultiset(t *testing.T) {
	f := func(vals []int64, pivot int64, budget uint8) bool {
		c := New(append([]int64(nil), vals...))
		before := multiset(c.Values, 0, len(vals))
		ps := NewPartitionState(0, len(vals), pivot)
		c.StepPartition(ps, int(budget%5)+1)
		return sameMultiset(before, multiset(c.Values, 0, len(vals)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStepPartitionSwapBudgetRespected(t *testing.T) {
	// Reverse-sorted data maximizes swaps: every step must swap.
	n := 100
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(n - i)
	}
	c := New(vals)
	ps := NewPartitionState(0, n, int64(n/2)+1)
	c.Stats.Reset()
	c.StepPartition(ps, 3)
	if c.Stats.Swaps != 3 {
		t.Fatalf("swaps = %d, want exactly budget 3", c.Stats.Swaps)
	}
	if ps.Done() {
		t.Fatal("partition cannot be done after 3 swaps on reversed data")
	}
}

func TestStepPartitionUnbounded(t *testing.T) {
	c := New(xrand.New(5).Perm(300))
	ps := NewPartitionState(0, 300, 150)
	if !c.StepPartition(ps, 0) {
		t.Fatal("unbounded step must complete the partition")
	}
	if ps.SplitPos() != 150 {
		t.Fatalf("split = %d, want 150 on a permutation of [0,300)", ps.SplitPos())
	}
}

func TestStepPartitionDoneIdempotent(t *testing.T) {
	c := New([]int64{1, 2, 3})
	ps := NewPartitionState(0, 3, 2)
	c.StepPartition(ps, 0)
	if !ps.Done() {
		t.Fatal("expected done")
	}
	pos := ps.SplitPos()
	if !c.StepPartition(ps, 5) || ps.SplitPos() != pos {
		t.Fatal("StepPartition on a done state must be a no-op")
	}
}
