package core

import (
	"testing"

	"repro/internal/xrand"
)

// parallelTestOptions enables the parallel kernels with a threshold small
// enough that test-sized pieces actually route through them.
func parallelTestOptions(seed uint64) Options {
	return Options{Seed: seed, ParallelCrackMin: 1024}
}

// TestParallelEngineAnswersMatchSerial runs the same query sequence over a
// serial and a parallel-cracking engine for each engine-backed algorithm
// family and asserts identical answers (count and sum — the parallel
// kernel may order a result differently) plus intact physical invariants.
func TestParallelEngineAnswersMatchSerial(t *testing.T) {
	const n = 60_000
	data := xrand.New(21).Perm(n)
	for _, spec := range []string{"crack", "dd1r", "ddr", "mdd1r", "pmdd1r-10", "fiftyfifty"} {
		serial, err := Build(append([]int64(nil), data...), spec, Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Build(append([]int64(nil), data...), spec, parallelTestOptions(4))
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(77)
		for q := 0; q < 200; q++ {
			a := rng.Int63n(n)
			b := a + 1 + rng.Int63n(1000)
			rs := serial.Query(a, b)
			rp := par.Query(a, b)
			if rs.Count() != rp.Count() || rs.Sum() != rp.Sum() {
				t.Fatalf("%s query %d [%d,%d): serial (%d,%d), parallel (%d,%d)",
					spec, q, a, b, rs.Count(), rs.Sum(), rp.Count(), rp.Sum())
			}
		}
		if e, ok := engineBacked(par); ok {
			checkPhysicalInvariants(t, e, data)
		}
	}
}

// TestCoarseInit asserts coarse-granular initialization pre-cuts the
// column at build time: the cracker index already holds about p-1 cracks
// before the first query, every crack satisfies the partition invariant,
// and queries then behave normally.
func TestCoarseInit(t *testing.T) {
	const n = 50_000
	data := xrand.New(3).Perm(n)
	for _, pieces := range []int{2, 8, 64} {
		ix, err := Build(append([]int64(nil), data...), "dd1r",
			Options{Seed: 5, CoarseInitPieces: pieces})
		if err != nil {
			t.Fatal(err)
		}
		e, _ := engineBacked(ix)
		st := ix.Stats()
		// Sampled pivots can collide (dedup) — allow a small shortfall but
		// insist the pre-cut actually happened.
		if st.Cracks < pieces/2 || st.Cracks > pieces-1 {
			t.Fatalf("pieces=%d: %d cracks at build, want in [%d,%d]", pieces, st.Cracks, pieces/2, pieces-1)
		}
		if st.Touched == 0 {
			t.Fatalf("pieces=%d: coarse init reported no Touched cost; pre-cut work must be visible", pieces)
		}
		checkPhysicalInvariants(t, e, data)

		rng := xrand.New(9)
		for q := 0; q < 100; q++ {
			a := rng.Int63n(n)
			b := a + 1 + rng.Int63n(500)
			res := ix.Query(a, b)
			wantCount := 0
			var wantSum int64
			for _, v := range data {
				if a <= v && v < b {
					wantCount++
					wantSum += v
				}
			}
			if res.Count() != wantCount || res.Sum() != wantSum {
				t.Fatalf("pieces=%d query %d: got (%d,%d), want (%d,%d)",
					pieces, q, res.Count(), res.Sum(), wantCount, wantSum)
			}
		}
		checkPhysicalInvariants(t, e, data)
	}
}

// TestCoarseInitDeterministic asserts the pre-cut is reproducible: same
// seed, same data — same crack keys and positions, regardless of whether
// the cuts ran serial or parallel (the split position is a property of the
// data, and pivots are sampled before any reorganization).
func TestCoarseInitDeterministic(t *testing.T) {
	const n = 30_000
	data := xrand.New(8).Perm(n)
	cracks := func(opt Options) []CrackEntry {
		ix, err := Build(append([]int64(nil), data...), "crack", opt)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := engineBacked(ix)
		var out []CrackEntry
		e.CrackerIndex().Ascend(func(key int64, pos, _ int) bool {
			out = append(out, CrackEntry{Key: key, Pos: pos})
			return true
		})
		return out
	}
	serial := cracks(Options{Seed: 6, CoarseInitPieces: 16})
	par := cracks(Options{Seed: 6, CoarseInitPieces: 16, ParallelCrackMin: 1024})
	if len(serial) != len(par) {
		t.Fatalf("crack counts differ: serial %d, parallel %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("crack %d differs: serial %+v, parallel %+v", i, serial[i], par[i])
		}
	}
}

// TestCoarseInitIgnoredOnRestore asserts Restore does not re-cut: the
// snapshot's cracks are recorded against the snapshot's physical layout,
// so a coarse pre-cut before re-inserting them would corrupt the index.
func TestCoarseInitIgnoredOnRestore(t *testing.T) {
	const n = 20_000
	data := xrand.New(12).Perm(n)
	ix, err := Build(append([]int64(nil), data...), "dd1r", Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(31)
	for q := 0; q < 50; q++ {
		a := rng.Int63n(n)
		ix.Query(a, a+100)
	}
	e, _ := engineBacked(ix)
	st := e.Snapshot()
	wantCracks := len(st.Cracks)

	restored, err := Restore(st, "dd1r", Options{Seed: 2, CoarseInitPieces: 32, ParallelCrackMin: 1024})
	if err != nil {
		t.Fatal(err)
	}
	re, _ := engineBacked(restored)
	if got := restored.Stats().Cracks; got != wantCracks {
		t.Fatalf("restored with %d cracks, snapshot had %d (coarse init must not fire on restore)",
			got, wantCracks)
	}
	checkPhysicalInvariants(t, re, data)
	for q := 0; q < 50; q++ {
		a := rng.Int63n(n)
		b := a + 1 + rng.Int63n(300)
		res := restored.Query(a, b)
		wantCount := 0
		var wantSum int64
		for _, v := range data {
			if a <= v && v < b {
				wantCount++
				wantSum += v
			}
		}
		if res.Count() != wantCount || res.Sum() != wantSum {
			t.Fatalf("restored query %d: got (%d,%d), want (%d,%d)",
				q, res.Count(), res.Sum(), wantCount, wantSum)
		}
	}
}

// TestParallelOptionDefaults pins the option normalization: the zero value
// keeps both features off, negatives normalize to off.
func TestParallelOptionDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.ParallelCrackMin != 0 || o.CoarseInitPieces != 0 {
		t.Fatalf("zero Options enabled parallel features: %+v", o)
	}
	o = Options{ParallelCrackMin: -5, CoarseInitPieces: -3}.withDefaults()
	if o.ParallelCrackMin != 0 || o.CoarseInitPieces != 0 {
		t.Fatalf("negative values not normalized off: %+v", o)
	}
}
