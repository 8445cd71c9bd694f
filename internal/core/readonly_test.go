package core

import (
	"testing"

	"repro/internal/xrand"
)

// TestAnswerReadOnlyMatchesQuery interleaves cracking queries with
// read-only answers on every engine-backed algorithm: a read-only answer
// that comes back ok must agree with the oracle, a range just answered by
// Query must come back ok when the algorithm cracks on query bounds, and
// neither the read-only path nor TryView may change any observable state.
func TestAnswerReadOnlyMatchesQuery(t *testing.T) {
	const n = 20000
	// The algorithms whose Query leaves exact cracks on both bounds. The
	// others scan, materialize (mdd1r, pmdd1r) or crack only sometimes.
	cracksOnBounds := map[string]bool{
		"crack": true, "ddc": true, "ddr": true, "dd1c": true, "dd1r": true,
		"r1crack": true, "r2crack": true, "r4crack": true, "r8crack": true,
	}
	for _, spec := range Algorithms() {
		ix, err := Build(xrand.New(20).Perm(n), spec, Options{Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		acc, ok := ix.(interface{ Engine() *Engine })
		if !ok {
			t.Fatalf("%s: Algorithms lists it, but it has no engine", spec)
		}
		e := acc.Engine()
		rng := xrand.New(22)
		check := func(a, b int64, mustBeOK bool) {
			t.Helper()
			statsBefore := ix.Stats()
			wantSum := (a + b - 1) * (b - a) / 2
			got, ok := e.TryAnswerReadOnly(a, b, nil)
			if mustBeOK && !ok {
				t.Fatalf("%s: [%d,%d) just queried, but TryAnswerReadOnly is not ok", spec, a, b)
			}
			if ok {
				var sum int64
				for _, v := range got {
					sum += v
				}
				if int64(len(got)) != b-a || sum != wantSum {
					t.Fatalf("%s TryAnswerReadOnly [%d,%d): got (%d,%d), want (%d,%d)",
						spec, a, b, len(got), sum, b-a, wantSum)
				}
			}
			c, s, aok := e.TryAnswerReadOnlyAggregate(a, b)
			if aok != ok {
				t.Fatalf("%s [%d,%d): aggregate ok=%v disagrees with values ok=%v", spec, a, b, aok, ok)
			}
			if aok && (int64(c) != b-a || s != wantSum) {
				t.Fatalf("%s TryAnswerReadOnlyAggregate [%d,%d): got (%d,%d)", spec, a, b, c, s)
			}
			res, vok := e.TryView(a, b)
			if vok != ok {
				t.Fatalf("%s [%d,%d): TryView ok=%v disagrees with values ok=%v", spec, a, b, vok, ok)
			}
			if vok && (int64(res.Count()) != b-a || res.Sum() != wantSum) {
				t.Fatalf("%s TryView [%d,%d): got (%d,%d)", spec, a, b, res.Count(), res.Sum())
			}
			if after := ix.Stats(); after != statsBefore {
				t.Fatalf("%s: probe-first paths mutated stats: %+v -> %+v", spec, statsBefore, after)
			}
		}
		for i := 0; i < 100; i++ {
			a := rng.Int63n(n - 100)
			b := a + 1 + rng.Int63n(100)
			ix.Query(a, b)
			check(a, b, cracksOnBounds[spec])
			// A range never queried: ok or not, never a wrong answer.
			c := rng.Int63n(n - 1000)
			check(c, c+1+rng.Int63n(1000), false)
		}
	}
}

// TestCanAnswerWithoutCracking checks the convergence rule behind
// TryAnswerReadOnly directly on original cracking, where exact bound
// cracks are guaranteed.
func TestCanAnswerWithoutCracking(t *testing.T) {
	const n = 10000
	converged := func(e *Engine, a, b int64) bool {
		_, ok := e.TryAnswerReadOnly(a, b, nil)
		return ok
	}
	c := NewCrack(xrand.New(23).Perm(n), Options{Seed: 24, NoCrackSize: -1})
	e := c.Engine()
	if converged(e, 100, 200) {
		t.Fatal("fresh column reported converged")
	}
	c.Query(100, 200)
	if !converged(e, 100, 200) {
		t.Fatal("exactly cracked bounds not converged")
	}
	if converged(e, 100, 300) {
		t.Fatal("uncracked right bound reported converged")
	}
	// Degenerate ranges are trivially answerable.
	if !converged(e, 200, 100) {
		t.Fatal("inverted range not converged")
	}
	// With a piece-size threshold, small pieces converge without exact
	// cracks.
	small := NewCrack(xrand.New(25).Perm(64), Options{Seed: 26, NoCrackSize: 64})
	if !converged(small.Engine(), 10, 20) {
		t.Fatal("piece below threshold not converged")
	}
	// The threshold is inclusive: after [100, 200) the piece holding 150
	// has exactly 100 tuples.
	for _, tc := range []struct {
		noCrack int
		want    bool
	}{{99, false}, {100, true}} {
		c := NewCrack(xrand.New(23).Perm(n), Options{Seed: 24, NoCrackSize: tc.noCrack})
		c.Query(100, 200)
		if got := converged(c.Engine(), 150, 200); got != tc.want {
			t.Fatalf("piece of 100 at threshold %d: converged = %v, want %v", tc.noCrack, got, tc.want)
		}
	}
}

// TestAnswerReadOnlyDuplicatesAndEdges exercises duplicate-heavy data and
// boundary ranges through the read-only path: before and after each range
// is queried, an ok answer must match the oracle, and after the query the
// answer must be ok.
func TestAnswerReadOnlyDuplicatesAndEdges(t *testing.T) {
	vals := make([]int64, 0, 3000)
	rng := xrand.New(27)
	for i := 0; i < 3000; i++ {
		vals = append(vals, rng.Int63n(50))
	}
	want := func(a, b int64) (int, int64) {
		var c int
		var s int64
		for _, v := range vals {
			if a <= v && v < b {
				c++
				s += v
			}
		}
		return c, s
	}
	ix := NewDD1R(append([]int64(nil), vals...), Options{Seed: 28})
	e := ix.Engine()
	cases := [][2]int64{{0, 50}, {0, 1}, {49, 50}, {10, 10}, {20, 10}, {-5, 5}, {48, 99}}
	check := func(qi int, a, b int64, mustBeOK bool) {
		t.Helper()
		got, ok := e.TryAnswerReadOnly(a, b, nil)
		if !ok {
			if mustBeOK {
				t.Fatalf("round %d [%d,%d): just queried, but TryAnswerReadOnly is not ok", qi, a, b)
			}
			return
		}
		var sum int64
		for _, v := range got {
			sum += v
		}
		wc, ws := want(a, b)
		if len(got) != wc || sum != ws {
			t.Fatalf("round %d [%d,%d): got (%d,%d), want (%d,%d)", qi, a, b, len(got), sum, wc, ws)
		}
		if c, s, _ := e.TryAnswerReadOnlyAggregate(a, b); c != wc || s != ws {
			t.Fatalf("round %d [%d,%d): aggregate (%d,%d), want (%d,%d)", qi, a, b, c, s, wc, ws)
		}
		if res, _ := e.TryView(a, b); res.Count() != wc || res.Sum() != ws {
			t.Fatalf("round %d [%d,%d): view (%d,%d), want (%d,%d)", qi, a, b, res.Count(), res.Sum(), wc, ws)
		}
	}
	for qi := 0; qi < 3; qi++ {
		for _, cs := range cases {
			check(qi, cs[0], cs[1], false)
			ix.Query(cs[0], cs[1])
			check(qi, cs[0], cs[1], true)
		}
		// Crack a little more: the read-only answer must stay correct at
		// every convergence stage.
		ix.Query(rng.Int63n(25), 25+rng.Int63n(25))
	}
}
