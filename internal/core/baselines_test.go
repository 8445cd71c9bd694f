package core

import (
	"testing"

	"repro/internal/xrand"
)

func TestSortIdempotentAcrossQueries(t *testing.T) {
	s := NewSort(xrand.New(71).Perm(1000), Options{})
	first := s.Stats()
	s.Query(10, 20)
	afterOne := s.Stats().Touched
	s.Query(30, 40)
	s.Query(10, 20)
	// Only binary-search cost after the first query.
	if d := s.Stats().Touched - afterOne; d > 1000 {
		t.Fatalf("later queries touched %d tuples; sort ran again?", d)
	}
	_ = first
}

func TestScanStatsGrowLinearly(t *testing.T) {
	const n = 10000
	s := NewScan(xrand.New(72).Perm(n), Options{})
	for i := 0; i < 5; i++ {
		s.Query(int64(i), int64(i)+100)
	}
	if got := s.Stats().Touched; got != 5*n {
		t.Fatalf("scan touched %d, want %d", got, 5*n)
	}
	if got := s.Stats().Cracks; got != 0 {
		t.Fatalf("scan created %d cracks", got)
	}
}

func TestResultForEachOrdering(t *testing.T) {
	// left-materialized, view, right-materialized order must be stable.
	res := Result{
		col:   nil,
		left:  []int64{1, 2},
		right: []int64{5, 6},
	}
	var got []int64
	res.ForEach(func(v int64) { got = append(got, v) })
	want := []int64{1, 2, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if res.ViewLen() != 0 || res.Count() != 4 {
		t.Fatalf("ViewLen=%d Count=%d", res.ViewLen(), res.Count())
	}
}

func TestNewMaterializedResult(t *testing.T) {
	res := NewMaterializedResult([]int64{3, 1, 2})
	if res.Count() != 3 || res.Sum() != 6 || res.ViewLen() != 0 {
		t.Fatalf("count=%d sum=%d view=%d", res.Count(), res.Sum(), res.ViewLen())
	}
	out := res.Materialize(nil)
	if len(out) != 3 {
		t.Fatal("materialize lost values")
	}
}

func TestEmptyResultSemantics(t *testing.T) {
	var res Result
	if res.Count() != 0 || res.Sum() != 0 || res.ViewLen() != 0 {
		t.Fatal("zero Result not empty")
	}
	res.ForEach(func(int64) { t.Fatal("ForEach on empty result called fn") })
	if out := res.Materialize(nil); len(out) != 0 {
		t.Fatal("materialized empty result non-empty")
	}
}

func TestCrackQueriesOutsideDomainRepeatedly(t *testing.T) {
	// Bounds far outside the data domain create degenerate (empty) edge
	// pieces; repeated out-of-domain queries must stay cheap and correct.
	const n = 10000
	ix := NewCrack(xrand.New(73).Perm(n), Options{})
	ix.Query(-1000, -500)
	ix.Query(2*n, 3*n)
	afterEdge := ix.Stats().Touched
	for i := 0; i < 10; i++ {
		if res := ix.Query(-1000, -500); res.Count() != 0 {
			t.Fatal("phantom rows below domain")
		}
		if res := ix.Query(2*n, 3*n); res.Count() != 0 {
			t.Fatal("phantom rows above domain")
		}
	}
	if d := ix.Stats().Touched - afterEdge; d != 0 {
		t.Fatalf("repeated out-of-domain queries touched %d tuples", d)
	}
}

func TestStochasticVariantsHandleFullDomainQuery(t *testing.T) {
	const n = 20000
	for _, spec := range []string{"mdd1r", "pmdd1r-10", "dd1r", "fiftyfifty"} {
		ix, err := Build(xrand.New(74).Perm(n), spec, Options{Seed: 75})
		if err != nil {
			t.Fatal(err)
		}
		// Warm up, then ask for everything.
		ix.Query(100, 200)
		res := ix.Query(-10, 2*n)
		if res.Count() != n {
			t.Fatalf("%s full-domain count = %d, want %d", spec, res.Count(), n)
		}
		var sum int64
		res.ForEach(func(v int64) { sum += v })
		if want := int64(n) * int64(n-1) / 2; sum != want {
			t.Fatalf("%s full-domain sum = %d, want %d", spec, sum, want)
		}
	}
}
