package column

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// checkPartitionEquivalence asserts the parallel kernel's
// serial-equivalence contract on vals/pivot: same split position as
// crackInTwoVals, same multiset on each side (order within a side is
// unspecified).
func checkPartitionEquivalence(t *testing.T, vals []int64, pivot int64, chunk int) {
	t.Helper()
	serial := append([]int64(nil), vals...)
	wantP, _ := crackInTwoVals(serial, pivot)

	par := append([]int64(nil), vals...)
	gotP, _ := parallelPartitionChunked(par, pivot, chunk)

	if gotP != wantP {
		t.Fatalf("chunk=%d: split %d, serial split %d", chunk, gotP, wantP)
	}
	for i := 0; i < gotP; i++ {
		if par[i] >= pivot {
			t.Fatalf("chunk=%d: value %d at %d >= pivot %d on left side", chunk, par[i], i, pivot)
		}
	}
	for i := gotP; i < len(par); i++ {
		if par[i] < pivot {
			t.Fatalf("chunk=%d: value %d at %d < pivot %d on right side", chunk, par[i], i, pivot)
		}
	}
	if !sameMultiset(multiset(serial, 0, wantP), multiset(par, 0, gotP)) {
		t.Fatalf("chunk=%d: left-side multiset differs from serial", chunk)
	}
	if !sameMultiset(multiset(serial, wantP, len(serial)), multiset(par, gotP, len(par))) {
		t.Fatalf("chunk=%d: right-side multiset differs from serial", chunk)
	}
}

// TestParallelPartitionAdversarial drives the chunked kernel over the
// input shapes most likely to break the merge phase: already partitioned
// (nothing misplaced), reverse-partitioned (everything misplaced),
// all-equal-to-pivot, tiny pieces, runs straddling chunk boundaries, and
// sizes around chunk-count edges.
func TestParallelPartitionAdversarial(t *testing.T) {
	rng := xrand.New(7)
	shuffled := func(n int) []int64 { return rng.Perm(n) }
	asc := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i)
		}
		return v
	}
	desc := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(n - 1 - i)
		}
		return v
	}
	same := func(n int, x int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = x
		}
		return v
	}
	// Alternating below/above pivot in runs of width w: with w spanning
	// chunk boundaries the merge pairs partial runs on both sides.
	blocks := func(n, w int) []int64 {
		v := make([]int64, n)
		for i := range v {
			if (i/w)%2 == 0 {
				v[i] = int64(i % w) // < pivot for pivot > w
			} else {
				v[i] = int64(1000 + i%w)
			}
		}
		return v
	}

	cases := []struct {
		name  string
		vals  []int64
		pivot int64
	}{
		{"empty", nil, 5},
		{"one-below", []int64{1}, 5},
		{"one-above", []int64{9}, 5},
		{"tiny", []int64{3, 9, 1, 7}, 5},
		{"sorted", asc(1000), 500},
		{"reverse", desc(1000), 500},
		{"all-equal-pivot", same(777, 42), 42},
		{"all-below", same(300, 1), 42},
		{"shuffled", shuffled(10_000), 5000},
		{"pivot-below-min", shuffled(500), -1},
		{"pivot-above-max", shuffled(500), 1 << 40},
		{"block-runs-w3", blocks(1000, 3), 500},
		{"block-runs-w7", blocks(999, 7), 500},
		{"block-runs-chunkwidth", blocks(1024, 64), 500},
	}
	chunks := []int{1, 2, 3, 7, 64, 65, 1000, 1 << 20}
	for _, tc := range cases {
		for _, chunk := range chunks {
			checkPartitionEquivalence(t, tc.vals, tc.pivot, chunk)
		}
	}
}

// TestParallelPartitionQuick cross-checks random inputs against the serial
// kernel with random chunk sizes.
func TestParallelPartitionQuick(t *testing.T) {
	f := func(raw []int16, pivot int16, chunkSeed uint8) bool {
		vals := make([]int64, len(raw))
		for i, x := range raw {
			vals[i] = int64(x)
		}
		chunk := 1 + int(chunkSeed)%97
		serial := append([]int64(nil), vals...)
		wantP, _ := crackInTwoVals(serial, int64(pivot))
		par := append([]int64(nil), vals...)
		gotP, _ := parallelPartitionChunked(par, int64(pivot), chunk)
		if gotP != wantP {
			return false
		}
		for i, x := range par {
			if (i < gotP) != (x < int64(pivot)) {
				return false
			}
		}
		return sameMultiset(multiset(serial, 0, len(serial)), multiset(par, 0, len(par)))
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestParallelCrackInTwoLarge exercises the real production path (pool
// workers, production chunk geometry) end to end on a 10M permutation and
// asserts equivalence plus counter accounting.
func TestParallelCrackInTwoLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-tuple kernel test")
	}
	const n = 10_000_000
	data := xrand.New(42).Perm(n)
	pivot := int64(n / 2)

	c := New(append([]int64(nil), data...))
	p := c.ParallelCrackInTwo(0, n, pivot)
	if p != n/2 {
		t.Fatalf("split %d, want %d", p, n/2)
	}
	if got := c.Position(0, n, pivot); got != p {
		t.Fatalf("partition invariant violated: first >= pivot at %d, split %d", got, p)
	}
	if c.Stats.Touched != n {
		t.Fatalf("Touched = %d, want %d", c.Stats.Touched, n)
	}
	var sum int64
	for _, x := range c.Values {
		sum += x
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("value sum %d, want %d (data corrupted)", sum, want)
	}
}

// TestParallelCrackDeterministic asserts the documented determinism: the
// parallel kernel's resulting layout depends only on the input (chunk
// geometry is a pure function of n), not on scheduling, so repeated runs
// agree bit-for-bit. GOMAXPROCS is pinned because the claim-loop helper
// count is the only scheduling input left — and even that must not change
// the outcome; we check both at 1 and at the pinned value.
func TestParallelCrackDeterministic(t *testing.T) {
	const n = 200_000
	data := xrand.New(5).Perm(n)
	run := func(procs int) []int64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		v := append([]int64(nil), data...)
		parallelPartitionChunked(v, int64(n/3), 4096)
		return v
	}
	base := run(1)
	for _, procs := range []int{1, 2, 8} {
		got := run(procs)
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("layout differs at %d between GOMAXPROCS=1 and %d", i, procs)
			}
		}
	}
}

// TestParallelCrackInThree asserts the two-pass parallel decomposition
// yields the same region bounds as the serial CrackInThree and counts
// Touched once.
func TestParallelCrackInThree(t *testing.T) {
	const n = 300_000
	data := xrand.New(9).Perm(n)
	a, b := int64(n/4), int64(3*n/4)

	serial := New(append([]int64(nil), data...))
	w1, w2 := serial.CrackInThree(0, n, a, b)

	par := New(append([]int64(nil), data...))
	g1, g2 := par.ParallelCrackInThree(0, n, a, b)
	if g1 != w1 || g2 != w2 {
		t.Fatalf("splits (%d,%d), serial (%d,%d)", g1, g2, w1, w2)
	}
	for i, x := range par.Values {
		region := 0
		if x >= a {
			region = 1
		}
		if x >= b {
			region = 2
		}
		wantRegion := 0
		if i >= g1 {
			wantRegion = 1
		}
		if i >= g2 {
			wantRegion = 2
		}
		if region != wantRegion {
			t.Fatalf("value %d at %d in region %d, want %d", x, i, region, wantRegion)
		}
	}
	if par.Stats.Touched != n {
		t.Fatalf("Touched = %d, want %d (the logical cost counts the piece once)", par.Stats.Touched, n)
	}
}

// TestParallelSplitAndMaterialize asserts the parallel MDD1R primitives
// materialize exactly the serial kernels' multisets for all three
// variants, across bound placements left/right/straddling the pivot.
func TestParallelSplitAndMaterialize(t *testing.T) {
	const n = 200_000
	data := xrand.New(13).Perm(n)
	pivot := int64(n / 2)
	bounds := []struct{ a, b int64 }{
		{n / 4, n/4 + 1000},       // entirely left of pivot
		{3 * n / 4, 3*n/4 + 1000}, // entirely right of pivot
		{n/2 - 500, n/2 + 500},    // straddling the pivot
		{0, n},                    // everything
		{n / 3, n / 3},            // empty interval
		{-100, -50},               // entirely outside the domain
	}
	for _, bd := range bounds {
		serial := New(append([]int64(nil), data...))
		wantOut, wantP := serial.SplitAndMaterialize(0, n, pivot, bd.a, bd.b, nil)

		par := New(append([]int64(nil), data...))
		gotOut, gotP := par.ParallelSplitAndMaterialize(0, n, pivot, bd.a, bd.b, nil)
		if gotP != wantP {
			t.Fatalf("[%d,%d): split %d, serial %d", bd.a, bd.b, gotP, wantP)
		}
		if !sameMultiset(multiset(wantOut, 0, len(wantOut)), multiset(gotOut, 0, len(gotOut))) {
			t.Fatalf("[%d,%d): materialized multiset differs (got %d values, want %d)",
				bd.a, bd.b, len(gotOut), len(wantOut))
		}
	}
	for _, a := range []int64{n / 4, n / 2, 3 * n / 4} {
		serial := New(append([]int64(nil), data...))
		wantOut, wantP := serial.SplitAndMaterializeGE(0, n, pivot, a, nil)
		par := New(append([]int64(nil), data...))
		gotOut, gotP := par.ParallelSplitAndMaterializeGE(0, n, pivot, a, nil)
		if gotP != wantP || !sameMultiset(multiset(wantOut, 0, len(wantOut)), multiset(gotOut, 0, len(gotOut))) {
			t.Fatalf("GE a=%d: split %d/%d, %d/%d values", a, gotP, wantP, len(gotOut), len(wantOut))
		}
	}
	for _, b := range []int64{n / 4, n / 2, 3 * n / 4} {
		serial := New(append([]int64(nil), data...))
		wantOut, wantP := serial.SplitAndMaterializeLT(0, n, pivot, b, nil)
		par := New(append([]int64(nil), data...))
		gotOut, gotP := par.ParallelSplitAndMaterializeLT(0, n, pivot, b, nil)
		if gotP != wantP || !sameMultiset(multiset(wantOut, 0, len(wantOut)), multiset(gotOut, 0, len(gotOut))) {
			t.Fatalf("LT b=%d: split %d/%d, %d/%d values", b, gotP, wantP, len(gotOut), len(wantOut))
		}
	}
}

// TestParallelFallbacks asserts columns the parallel kernels cannot
// handle — a tandem payload — quietly take the serial tandem path with
// identical results.
func TestParallelFallbacks(t *testing.T) {
	const n = 10_000
	data := xrand.New(3).Perm(n)
	c := NewWithPayload(append([]int64(nil), data...), positions(n))
	p := c.ParallelCrackInTwo(0, n, int64(n/2))
	if p != n/2 {
		t.Fatalf("split %d, want %d", p, n/2)
	}
	for i := 0; i < n; i++ {
		// The payload must still travel with its values: Payload[i] is the
		// value's original position, so data[Payload[i]] must equal it.
		if data[c.Payload[i]] != c.Values[i] {
			t.Fatalf("payload %d detached from value %d at %d", c.Payload[i], c.Values[i], i)
		}
	}
}

// TestCloneDropsStats pins Clone's documented contract: the copy carries
// the data but starts with zeroed counters, keeping the bench harness's
// per-algorithm cost isolation intentional.
func TestCloneDropsStats(t *testing.T) {
	c := NewWithPayload([]int64{5, 2, 9, 1}, positions(4))
	c.CrackInTwo(0, c.Len(), 4)
	if c.Stats.Touched == 0 {
		t.Fatal("source column has no cost to drop; test is vacuous")
	}
	cp := c.Clone()
	if cp.Stats.Touched != 0 || cp.Stats.Swaps != 0 {
		t.Fatalf("Clone carried counters over: %+v", cp.Stats)
	}
	if len(cp.Values) != c.Len() || len(cp.Payload) != c.Len() {
		t.Fatalf("Clone dropped data: %d values, %d payload", len(cp.Values), len(cp.Payload))
	}
	cp.Values[0] = -1
	if c.Values[0] == -1 {
		t.Fatal("Clone aliases the source values")
	}
}
