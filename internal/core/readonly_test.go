package core

import (
	"testing"

	"repro/internal/xrand"
)

// TestAnswerReadOnlyMatchesQuery interleaves cracking queries with
// read-only answers on every engine-backed algorithm; the read-only path
// must agree with the oracle and never change any observable state.
func TestAnswerReadOnlyMatchesQuery(t *testing.T) {
	const n = 20000
	for _, spec := range Algorithms() {
		ix, err := Build(xrand.New(20).Perm(n), spec, Options{Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		acc, ok := ix.(interface{ Engine() *Engine })
		if !ok {
			continue // sort: deliberately not engine-backed (updates.Wrap)
		}
		e := acc.Engine()
		rng := xrand.New(22)
		for i := 0; i < 100; i++ {
			a := rng.Int63n(n - 100)
			b := a + 1 + rng.Int63n(100)
			ix.Query(a, b)

			statsBefore := ix.Stats()
			canBefore := e.CanAnswerWithoutCracking(a, b)
			got := e.AnswerReadOnly(a, b, nil)
			var sum, wantSum int64
			for _, v := range got {
				sum += v
			}
			for v := a; v < b; v++ {
				wantSum += v
			}
			if int64(len(got)) != b-a || sum != wantSum {
				t.Fatalf("%s AnswerReadOnly [%d,%d): got (%d,%d), want (%d,%d)",
					spec, a, b, len(got), sum, b-a, wantSum)
			}
			if c, s := e.AnswerReadOnlyAggregate(a, b); int64(c) != b-a || s != wantSum {
				t.Fatalf("%s AnswerReadOnlyAggregate [%d,%d): got (%d,%d)", spec, a, b, c, s)
			}
			try, ok := e.TryAnswerReadOnly(a, b, nil)
			if ok != canBefore {
				t.Fatalf("%s: TryAnswerReadOnly ok=%v disagrees with probe %v", spec, ok, canBefore)
			}
			if ok && int64(len(try)) != b-a {
				t.Fatalf("%s TryAnswerReadOnly count = %d", spec, len(try))
			}
			if _, _, aok := e.TryAnswerReadOnlyAggregate(a, b); aok != canBefore {
				t.Fatalf("%s: aggregate probe disagreement", spec)
			}
			if after := ix.Stats(); after != statsBefore {
				t.Fatalf("%s: read-only path mutated stats: %+v -> %+v", spec, statsBefore, after)
			}
		}
	}
}

// TestCanAnswerWithoutCracking checks the probe's semantics directly on
// original cracking, where exact bound cracks are guaranteed.
func TestCanAnswerWithoutCracking(t *testing.T) {
	const n = 10000
	c := NewCrack(xrand.New(23).Perm(n), Options{Seed: 24, NoCrackSize: -1})
	e := c.Engine()
	if e.CanAnswerWithoutCracking(100, 200) {
		t.Fatal("fresh column reported converged")
	}
	c.Query(100, 200)
	if !e.CanAnswerWithoutCracking(100, 200) {
		t.Fatal("exactly cracked bounds not converged")
	}
	if e.CanAnswerWithoutCracking(100, 300) {
		t.Fatal("uncracked right bound reported converged")
	}
	// Degenerate ranges are trivially answerable.
	if !e.CanAnswerWithoutCracking(200, 100) {
		t.Fatal("inverted range not converged")
	}
	// With a piece-size threshold, small pieces converge without exact
	// cracks.
	small := NewCrack(xrand.New(25).Perm(64), Options{Seed: 26, NoCrackSize: 64})
	if !small.Engine().CanAnswerWithoutCracking(10, 20) {
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
		if got := c.Engine().CanAnswerWithoutCracking(150, 200); got != tc.want {
			t.Fatalf("piece of 100 at threshold %d: converged = %v, want %v", tc.noCrack, got, tc.want)
		}
	}
}

// TestAnswerReadOnlyDuplicatesAndEdges exercises duplicate-heavy data and
// boundary ranges through the read-only path.
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
	for qi := 0; qi < 3; qi++ {
		for _, cs := range cases {
			got := e.AnswerReadOnly(cs[0], cs[1], nil)
			var sum int64
			for _, v := range got {
				sum += v
			}
			wc, ws := want(cs[0], cs[1])
			if len(got) != wc || sum != ws {
				t.Fatalf("round %d [%d,%d): got (%d,%d), want (%d,%d)",
					qi, cs[0], cs[1], len(got), sum, wc, ws)
			}
		}
		// Crack a little and re-check: the read-only answer must stay
		// correct at every convergence stage.
		ix.Query(rng.Int63n(25), 25+rng.Int63n(25))
	}
}
