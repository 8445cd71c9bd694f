package core

import (
	"testing"

	"repro/internal/xrand"
)

// oracle computes the expected (count, sum) for [a, b) over the original
// data by brute force.
type oracle struct {
	vals []int64
}

func newOracle(vals []int64) *oracle {
	return &oracle{vals: append([]int64(nil), vals...)}
}

func (o *oracle) query(a, b int64) (int, int64) {
	count := 0
	var sum int64
	for _, v := range o.vals {
		if a <= v && v < b {
			count++
			sum += v
		}
	}
	return count, sum
}

// queryPattern produces a deterministic mix of query shapes exercising
// every code path: random ranges, sequential sweeps, zooming, exact
// repeats, inverted and out-of-domain bounds.
func queryPattern(i int, n int64, rng *xrand.Rand) (int64, int64) {
	switch i % 7 {
	case 0: // random small range
		a := rng.Int63n(n)
		return a, a + 10
	case 1: // sequential sweep
		a := (int64(i) * 17) % n
		return a, a + 25
	case 2: // wide range
		a := rng.Int63n(n / 2)
		return a, a + n/3
	case 3: // repeat of a fixed range (exact-crack hit path)
		return n / 4, n / 4 * 3
	case 4: // empty or inverted
		if i%2 == 0 {
			return n / 2, n / 2
		}
		return n / 2, n/2 - 100
	case 5: // out-of-domain bounds
		return -1000, 5
	default: // zoom in
		w := n / (int64(i%50) + 2)
		return n/2 - w/2, n/2 + w/2
	}
}

func testAlgorithmAgainstOracle(t *testing.T, spec string, vals []int64, queries int) {
	t.Helper()
	o := newOracle(vals)
	n := int64(len(vals))
	if n == 0 {
		n = 1
	}
	ix, err := Build(append([]int64(nil), vals...), spec, Options{Seed: 7})
	if err != nil {
		t.Fatalf("Build(%q): %v", spec, err)
	}
	rng := xrand.New(99)
	for i := 0; i < queries; i++ {
		a, b := queryPattern(i, n, rng)
		res := ix.Query(a, b)
		wantCount, wantSum := o.query(a, b)
		if res.Count() != wantCount || res.Sum() != wantSum {
			t.Fatalf("%s query %d [%d,%d): got (count=%d,sum=%d), want (%d,%d)",
				spec, i, a, b, res.Count(), res.Sum(), wantCount, wantSum)
		}
	}
}

// engineSpecs lists the engine-backed specs the sweeps cover.
func engineSpecs() []string {
	return []string{
		"scan", "crack",
		"ddc", "ddr", "dd1c", "dd1r",
		"mdd1r", "pmdd1r-1", "pmdd1r-10", "pmdd1r-50", "pmdd1r-100",
		"fiftyfifty", "flipcoin", "every-4", "every-8",
		"scrackmon-1", "scrackmon-10", "sizeselective", "autotune",
		"r1crack", "r2crack", "r4crack", "r8crack",
	}
}

// allSpecs adds the sorted baseline, which has no engine but is still a
// reference implementation the figure harness builds.
func allSpecs() []string { return append(engineSpecs(), "sort") }

func TestAllAlgorithmsMatchOracleOnPermutation(t *testing.T) {
	vals := xrand.New(1).Perm(6000)
	for _, spec := range allSpecs() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			testAlgorithmAgainstOracle(t, spec, vals, 400)
		})
	}
}

func TestAllAlgorithmsMatchOracleWithDuplicates(t *testing.T) {
	rng := xrand.New(2)
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(300) // heavy duplication
	}
	for _, spec := range allSpecs() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			testAlgorithmAgainstOracle(t, spec, vals, 300)
		})
	}
}

func TestAllAlgorithmsSmallThresholds(t *testing.T) {
	// Tiny CrackSize/ProgressiveSize force the recursive and progressive
	// paths to fire constantly on small data.
	vals := xrand.New(3).Perm(2000)
	o := newOracle(vals)
	for _, spec := range allSpecs() {
		ix, err := Build(append([]int64(nil), vals...), spec,
			Options{Seed: 5, CrackSize: 8, ProgressiveSize: 32, SwapPct: 3})
		if err != nil {
			t.Fatalf("Build(%q): %v", spec, err)
		}
		rng := xrand.New(4)
		for i := 0; i < 250; i++ {
			a, b := queryPattern(i, 2000, rng)
			res := ix.Query(a, b)
			wc, ws := o.query(a, b)
			if res.Count() != wc || res.Sum() != ws {
				t.Fatalf("%s (tiny thresholds) query %d [%d,%d): got (%d,%d), want (%d,%d)",
					spec, i, a, b, res.Count(), res.Sum(), wc, ws)
			}
		}
	}
}

func TestDegenerateColumns(t *testing.T) {
	cases := map[string][]int64{
		"empty":     {},
		"single":    {42},
		"pair":      {7, 3},
		"all-equal": {5, 5, 5, 5, 5, 5, 5, 5},
	}
	for name, vals := range cases {
		for _, spec := range allSpecs() {
			ix, err := Build(append([]int64(nil), vals...), spec, Options{Seed: 3})
			if err != nil {
				t.Fatalf("Build(%q): %v", spec, err)
			}
			o := newOracle(vals)
			for _, q := range [][2]int64{{0, 10}, {5, 6}, {42, 43}, {-5, 100}, {10, 0}, {5, 5}} {
				res := ix.Query(q[0], q[1])
				wc, ws := o.query(q[0], q[1])
				if res.Count() != wc || res.Sum() != ws {
					t.Fatalf("%s on %s column, query [%d,%d): got (%d,%d), want (%d,%d)",
						spec, name, q[0], q[1], res.Count(), res.Sum(), wc, ws)
				}
			}
		}
	}
}

func TestRepeatedIdenticalQueries(t *testing.T) {
	// After the first occurrence, both bounds have exact cracks: algorithms
	// must return stable, correct results with no further reorganization
	// (for view-based algorithms).
	vals := xrand.New(5).Perm(4000)
	for _, spec := range []string{"crack", "ddc", "ddr", "dd1c", "dd1r"} {
		ix, err := Build(append([]int64(nil), vals...), spec, Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		first := ix.Query(1000, 2000)
		if first.Count() != 1000 {
			t.Fatalf("%s: first count = %d", spec, first.Count())
		}
		touchedAfterFirst := ix.Stats().Touched
		for i := 0; i < 10; i++ {
			res := ix.Query(1000, 2000)
			if res.Count() != 1000 || res.Sum() != first.Sum() {
				t.Fatalf("%s: repeat %d diverged", spec, i)
			}
		}
		if ix.Stats().Touched != touchedAfterFirst {
			t.Fatalf("%s: repeated identical queries still touched tuples (%d -> %d)",
				spec, touchedAfterFirst, ix.Stats().Touched)
		}
	}
}

func TestViewVersusMaterializedShape(t *testing.T) {
	vals := xrand.New(6).Perm(4000)

	crack := NewCrack(append([]int64(nil), vals...), Options{})
	if res := crack.Query(100, 300); res.ViewLen() != res.Count() {
		t.Fatalf("crack result not a pure view: view=%d count=%d", res.ViewLen(), res.Count())
	}

	scan := NewScan(append([]int64(nil), vals...), Options{})
	if res := scan.Query(100, 300); res.ViewLen() != 0 {
		t.Fatal("scan result must be fully materialized")
	}

	srt := NewSort(append([]int64(nil), vals...), Options{})
	if res := srt.Query(100, 300); res.ViewLen() != res.Count() {
		t.Fatal("sort result must be a pure view")
	}

	// First MDD1R query on an uncracked column materializes everything
	// (single piece); later queries develop view middles.
	m := NewMDD1R(append([]int64(nil), vals...), Options{Seed: 8})
	if res := m.Query(100, 300); res.ViewLen() != 0 {
		t.Fatal("first MDD1R query (single piece) must be fully materialized")
	}
	for i := int64(0); i < 20; i++ {
		m.Query(i*190, i*190+120)
	}
	res := m.Query(500, 3500)
	if res.ViewLen() == 0 {
		t.Fatal("wide MDD1R query after warm-up should return a view middle")
	}
	if res.Count() != 3000 {
		t.Fatalf("count = %d, want 3000", res.Count())
	}
}

func TestSortedViewIsSorted(t *testing.T) {
	vals := xrand.New(7).Perm(1000)
	srt := NewSort(vals, Options{})
	res := srt.Query(200, 400)
	var prev int64 = -1
	res.ForEach(func(v int64) {
		if v < prev {
			t.Fatalf("sort view out of order: %d after %d", v, prev)
		}
		prev = v
	})
}

func TestCrackConvergesOnRandomWorkload(t *testing.T) {
	// Fig. 2(e): with a random workload, the tuples touched per cracking
	// query collapses after a handful of queries.
	const n = 100000
	vals := xrand.New(8).Perm(n)
	ix := NewCrack(vals, Options{})
	rng := xrand.New(9)
	var early, late int64
	for i := 0; i < 200; i++ {
		before := ix.Stats().Touched
		a := rng.Int63n(n - 10)
		ix.Query(a, a+10)
		d := ix.Stats().Touched - before
		if i < 5 {
			early += d
		}
		if i >= 195 {
			late += d
		}
	}
	if late*10 > early {
		t.Fatalf("cracking did not converge: first-5 touched %d, last-5 touched %d", early, late)
	}
}

func TestStochasticBeatsCrackOnSequential(t *testing.T) {
	// The paper's core claim (Fig. 9): on the sequential workload original
	// cracking keeps touching huge pieces while stochastic cracking
	// converges. Compare total touched tuples over the sequence.
	const n = 200000
	const q = 500
	vals := xrand.New(10).Perm(n)
	jump := int64(n / q)

	run := func(spec string) int64 {
		ix, err := Build(append([]int64(nil), vals...), spec, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < q; i++ {
			a := int64(i) * jump
			ix.Query(a, a+10)
		}
		return ix.Stats().Touched
	}

	crack := run("crack")
	for _, spec := range []string{"ddc", "ddr", "dd1c", "dd1r", "mdd1r", "pmdd1r-10"} {
		st := run(spec)
		if st*5 > crack {
			t.Errorf("%s touched %d tuples on sequential workload; crack touched %d — expected >=5x improvement",
				spec, st, crack)
		}
	}
}

func TestDDCCracksAtMedians(t *testing.T) {
	// DDC's first bound crack on a fresh permutation of [0,n) must place
	// its first auxiliary crack at the exact median position n/2.
	const n = 65536
	ix := NewDDC(xrand.New(11).Perm(n), Options{})
	ix.Query(10, 20)
	found := false
	ix.Engine().CrackerIndex().Ascend(func(key int64, pos, _ int) bool {
		if pos == n/2 && key == n/2 {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("DDC did not place a crack at the column median")
	}
}

func TestDD1SingleAuxiliaryCrack(t *testing.T) {
	// DD1C/DD1R introduce at most one auxiliary crack per bound: the first
	// query on a fresh column yields at most 2 aux + 2 bound cracks.
	for _, spec := range []string{"dd1c", "dd1r"} {
		ix, err := Build(xrand.New(12).Perm(50000), spec, Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		ix.Query(1000, 2000)
		if c := ix.Stats().Cracks; c > 4 {
			t.Fatalf("%s placed %d cracks on first query, want <= 4", spec, c)
		}
	}
}

func TestMDD1RNeverCracksOnBounds(t *testing.T) {
	// MDD1R's cracks are the random pivots, never the query bounds
	// themselves (the probability a random element equals a bound is
	// negligible for this data/seed combination; validated here).
	const n = 50000
	m := NewMDD1R(xrand.New(13).Perm(n), Options{Seed: 5})
	bounds := make(map[int64]bool)
	rng := xrand.New(14)
	for i := 0; i < 50; i++ {
		a := rng.Int63n(n - 500)
		b := a + 500
		bounds[a] = true
		bounds[b] = true
		m.Query(a, b)
	}
	hits := 0
	m.Engine().CrackerIndex().Ascend(func(key int64, _, _ int) bool {
		if bounds[key] {
			hits++
		}
		return true
	})
	if hits > 2 {
		t.Fatalf("MDD1R placed %d cracks exactly on query bounds; expected ~0", hits)
	}
}

func TestProgressiveCrackSharedAcrossQueries(t *testing.T) {
	// With a 1% swap budget on a large piece, one query must not complete
	// the crack; repeated queries eventually do.
	const n = 100000
	p := NewPMDD1R(xrand.New(15).Perm(n), Options{Seed: 6, SwapPct: 1})
	p.Query(1000, 1100)
	if got := p.Stats().Cracks; got != 0 {
		t.Fatalf("1%% budget completed a crack on query 1 (%d cracks)", got)
	}
	if len(p.Engine().states) == 0 {
		t.Fatal("no in-flight partition after first progressive query")
	}
	for i := 0; i < 300 && p.Stats().Cracks == 0; i++ {
		p.Query(1000, 1100)
	}
	if p.Stats().Cracks == 0 {
		t.Fatal("progressive crack never completed")
	}
	if len(p.Engine().states) != 0 {
		t.Fatal("partition state not cleaned up after completion")
	}
}

func TestPMDD1R100EquivalentCostToMDD1R(t *testing.T) {
	// P100% must behave like MDD1R: crack count and touched tuples in the
	// same ballpark on an identical query sequence and seed.
	const n = 50000
	vals := xrand.New(16).Perm(n)
	m := NewMDD1R(append([]int64(nil), vals...), Options{Seed: 7})
	p := NewPMDD1R(append([]int64(nil), vals...), Options{Seed: 7, SwapPct: 100})
	rng := xrand.New(17)
	for i := 0; i < 200; i++ {
		a := rng.Int63n(n - 100)
		mres := m.Query(a, a+100)
		pres := p.Query(a, a+100)
		if mres.Count() != pres.Count() || mres.Sum() != pres.Sum() {
			t.Fatalf("query %d: MDD1R and P100%% diverged", i)
		}
	}
	mt, pt := m.Stats().Touched, p.Stats().Touched
	if pt > mt*3 || mt > pt*3 {
		t.Fatalf("P100%% cost (%d) far from MDD1R cost (%d)", pt, mt)
	}
}

func TestScrackMonThresholdBehavior(t *testing.T) {
	// With a huge threshold, ScrackMon must behave exactly like original
	// cracking (always view results, query-bound cracks only).
	const n = 20000
	vals := xrand.New(18).Perm(n)
	mon := NewScrackMon(append([]int64(nil), vals...), 1000000, Options{Seed: 8})
	crk := NewCrack(append([]int64(nil), vals...), Options{Seed: 8})
	rng := xrand.New(19)
	for i := 0; i < 100; i++ {
		a := rng.Int63n(n - 50)
		mres := mon.Query(a, a+50)
		cres := crk.Query(a, a+50)
		if mres.Count() != cres.Count() || mres.Sum() != cres.Sum() {
			t.Fatalf("query %d diverged", i)
		}
		if mres.ViewLen() != mres.Count() {
			t.Fatalf("high-threshold ScrackMon produced a materialized result at query %d", i)
		}
	}
	if mon.Stats().Touched != crk.Stats().Touched {
		t.Fatalf("high-threshold ScrackMon cost %d != crack cost %d",
			mon.Stats().Touched, crk.Stats().Touched)
	}
}

func TestEveryXAlternation(t *testing.T) {
	// FiftyFifty (X=2) must alternate: stochastic on even queries
	// (materialized ends), original on odd (view ends). Detect via result
	// shape on a fresh large piece each time.
	const n = 100000
	ix := NewFiftyFifty(xrand.New(20).Perm(n), Options{Seed: 9})
	r0 := ix.Query(40000, 40100) // query 0: stochastic => materialized
	if r0.ViewLen() != 0 {
		t.Fatal("query 0 of FiftyFifty should be stochastic (materialized)")
	}
	r1 := ix.Query(70000, 70100) // query 1: original => view
	if r1.ViewLen() != r1.Count() {
		t.Fatal("query 1 of FiftyFifty should be original cracking (view)")
	}
}

func TestRCrackInjectsRandomCracks(t *testing.T) {
	// R1crack must place more cracks than plain crack for the same query
	// sequence (each user query adds an injected random one).
	const n = 50000
	vals := xrand.New(21).Perm(n)
	r1, err := Build(append([]int64(nil), vals...), "r1crack", Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	plain := NewCrack(append([]int64(nil), vals...), Options{Seed: 10})
	for i := int64(0); i < 50; i++ {
		r1.Query(i*100, i*100+10)
		plain.Query(i*100, i*100+10)
	}
	if r1.Stats().Cracks <= plain.Stats().Cracks {
		t.Fatalf("r1crack cracks (%d) not above plain crack (%d)",
			r1.Stats().Cracks, plain.Stats().Cracks)
	}
	if q := r1.Stats().Queries; q != 50 {
		t.Fatalf("injected queries leaked into Queries counter: %d", q)
	}
}

func TestBuildErrors(t *testing.T) {
	for _, spec := range []string{"", "nope", "pmdd1r-0", "pmdd1r-101", "every-0", "scrackmon-0", "rXcrack", "r0crack"} {
		if _, err := Build([]int64{1}, spec, Options{}); err == nil {
			t.Errorf("Build(%q) succeeded, want error", spec)
		}
	}
	for _, spec := range Algorithms() {
		if _, err := Build([]int64{1, 2, 3}, spec, Options{}); err != nil {
			t.Errorf("Build(%q) failed: %v", spec, err)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	const n = 10000
	ix := NewCrack(xrand.New(22).Perm(n), Options{})
	if s := ix.Stats(); s.Queries != 0 || s.Touched != 0 || s.Cracks != 0 || s.Pieces != 1 {
		t.Fatalf("fresh index stats: %+v", s)
	}
	ix.Query(100, 200)
	s := ix.Stats()
	if s.Queries != 1 {
		t.Fatalf("queries = %d", s.Queries)
	}
	if s.Touched != n {
		t.Fatalf("first crack query should touch exactly n tuples, got %d", s.Touched)
	}
	if s.Cracks != 2 || s.Pieces != 3 {
		t.Fatalf("first query should create 2 cracks/3 pieces, got %+v", s)
	}
}

func TestOptionDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.CrackSize != DefaultCrackSize || o.ProgressiveSize != DefaultProgressiveSize ||
		o.SwapPct != DefaultSwapPct || o.Seed != 1 {
		t.Fatalf("bad defaults: %+v", o)
	}
	o = Options{SwapPct: 500}.withDefaults()
	if o.SwapPct != 100 {
		t.Fatalf("SwapPct not clamped: %d", o.SwapPct)
	}
}

func TestResultMaterializeIndependence(t *testing.T) {
	const n = 10000
	m := NewMDD1R(xrand.New(23).Perm(n), Options{Seed: 11})
	res := m.Query(100, 600)
	snapshot := res.Materialize(nil)
	m.Query(5000, 5600) // clobbers internal buffers
	var sum int64
	for _, v := range snapshot {
		sum += v
	}
	want := int64(0)
	for v := int64(100); v < 600; v++ {
		want += v
	}
	if sum != want || len(snapshot) != 500 {
		t.Fatal("materialized snapshot was corrupted by a subsequent query")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	const n = 20000
	vals := xrand.New(24).Perm(n)
	run := func() (int64, int) {
		ix := NewMDD1R(append([]int64(nil), vals...), Options{Seed: 12})
		rng := xrand.New(25)
		var sum int64
		for i := 0; i < 100; i++ {
			a := rng.Int63n(n - 100)
			sum += ix.Query(a, a+100).Sum()
		}
		return sum, ix.Stats().Cracks
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 || c1 != c2 {
		t.Fatal("same seed produced different behavior")
	}
}
