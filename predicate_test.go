package crackdb_test

import (
	"context"
	"math"
	"testing"

	crackdb "repro"
)

func TestPredicateNormalization(t *testing.T) {
	cases := []struct {
		p      crackdb.Predicate
		lo, hi int64
	}{
		{crackdb.Range(10, 20), 10, 20},
		{crackdb.Between(10, 20), 10, 21},
		{crackdb.Less(10), math.MinInt64, 10},
		{crackdb.LessEq(10), math.MinInt64, 11},
		{crackdb.Greater(10), 11, math.MaxInt64},
		{crackdb.GreaterEq(10), 10, math.MaxInt64},
		{crackdb.Eq(10), 10, 11},
		{crackdb.LessEq(math.MaxInt64), math.MinInt64, math.MaxInt64},
	}
	for _, c := range cases {
		lo, hi := c.p.Bounds()
		if lo != c.lo || hi != c.hi {
			t.Errorf("%v bounds = [%d,%d), want [%d,%d)", c.p, lo, hi, c.lo, c.hi)
		}
	}
}

func TestPredicateAnd(t *testing.T) {
	// The paper's Fig. 1 queries: Q1 = A > 10 AND A < 14; Q2 = A >= 7 AND
	// A <= 16.
	q1 := crackdb.Greater(10).And(crackdb.Less(14))
	if lo, hi := q1.Bounds(); lo != 11 || hi != 14 {
		t.Fatalf("Q1 bounds = [%d,%d)", lo, hi)
	}
	q2 := crackdb.GreaterEq(7).And(crackdb.LessEq(16))
	if lo, hi := q2.Bounds(); lo != 7 || hi != 17 {
		t.Fatalf("Q2 bounds = [%d,%d)", lo, hi)
	}
	if !crackdb.Greater(10).And(crackdb.Less(5)).Empty() {
		t.Fatal("contradictory predicate not empty")
	}
}

func TestPredicateString(t *testing.T) {
	if s := crackdb.Range(1, 2).And(crackdb.Range(5, 6)).String(); s != "false" {
		t.Fatalf("empty String = %q", s)
	}
	if s := crackdb.Less(5).String(); s != "v < 5" {
		t.Fatalf("Less String = %q", s)
	}
	if s := crackdb.GreaterEq(5).String(); s != "v >= 5" {
		t.Fatalf("GreaterEq String = %q", s)
	}
	if s := crackdb.Range(1, 5).String(); s != "1 <= v < 5" {
		t.Fatalf("Range String = %q", s)
	}
}

func TestPredicateOr(t *testing.T) {
	// Disjoint union: multi-range predicate, ascending order.
	p := crackdb.Range(10, 20).Or(crackdb.Range(40, 50))
	if p.Empty() {
		t.Fatal("disjoint union empty")
	}
	if lo, hi := p.Bounds(); lo != 10 || hi != 50 {
		t.Fatalf("envelope = [%d,%d)", lo, hi)
	}
	if s := p.String(); s != "10 <= v < 20 OR 40 <= v < 50" {
		t.Fatalf("String = %q", s)
	}
	// Overlapping and adjacent ranges coalesce back to a single range.
	if s := crackdb.Range(10, 20).Or(crackdb.Range(15, 30)).String(); s != "10 <= v < 30" {
		t.Fatalf("overlap String = %q", s)
	}
	if s := crackdb.Range(10, 20).Or(crackdb.Range(20, 30)).String(); s != "10 <= v < 30" {
		t.Fatalf("adjacent String = %q", s)
	}
	// Empty operands are identity.
	if s := crackdb.Range(5, 5).Or(crackdb.Eq(7)).String(); s != "7 <= v < 8" {
		t.Fatalf("empty-or String = %q", s)
	}
	// Matches follows the union.
	for v, want := range map[int64]bool{9: false, 10: true, 25: false, 45: true, 50: false} {
		if p.Matches(v) != want {
			t.Fatalf("Matches(%d) = %v", v, p.Matches(v))
		}
	}
}

func TestPredicateAndMultiRange(t *testing.T) {
	// (10..30 ∪ 50..70) ∩ 20..60 = 20..30 ∪ 50..60
	p := crackdb.Range(10, 30).Or(crackdb.Range(50, 70)).And(crackdb.Range(20, 60))
	if s := p.String(); s != "20 <= v < 30 OR 50 <= v < 60" {
		t.Fatalf("intersection String = %q", s)
	}
	// Intersection can empty the predicate entirely.
	if !crackdb.Range(10, 20).Or(crackdb.Range(40, 50)).And(crackdb.Range(25, 35)).Empty() {
		t.Fatal("disjoint intersection not empty")
	}
	// Multi ∩ multi.
	q := crackdb.Range(15, 45).Or(crackdb.Range(60, 80))
	got := crackdb.Range(10, 30).Or(crackdb.Range(50, 70)).And(q)
	if s := got.String(); s != "15 <= v < 30 OR 60 <= v < 70" {
		t.Fatalf("multi-multi String = %q", s)
	}
}

func TestPredicateOn(t *testing.T) {
	p := crackdb.Between(10, 20).On("ra")
	if p.Column() != "ra" {
		t.Fatalf("column = %q", p.Column())
	}
	if s := p.String(); s != "10 <= ra < 21" {
		t.Fatalf("String = %q", s)
	}
	// Scope survives composition, whichever side carries it.
	if crackdb.Eq(1).On("x").Or(crackdb.Eq(5)).Column() != "x" {
		t.Fatal("Or dropped the column")
	}
	if crackdb.Eq(1).And(crackdb.Eq(1).On("y")).Column() != "y" {
		t.Fatal("And dropped the column")
	}
}

func TestQueryWhere(t *testing.T) {
	db, err := crackdb.Open(crackdb.MakeData(10_000, 7), crackdb.Crack)
	if err != nil {
		t.Fatal(err)
	}
	where := func(p crackdb.Predicate) crackdb.Result {
		res, err := db.Query(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Fig. 1's Q1 on a dense domain: A > 10 AND A < 14 selects {11,12,13}.
	res := where(crackdb.Greater(10).And(crackdb.Less(14)))
	if res.Count() != 3 || res.Sum() != 36 {
		t.Fatalf("Q1: count=%d sum=%d", res.Count(), res.Sum())
	}
	if res := where(crackdb.Eq(42)); res.Count() != 1 || res.Sum() != 42 {
		t.Fatal("Eq predicate failed")
	}
	if res := where(crackdb.Greater(20).And(crackdb.Less(10))); res.Count() != 0 {
		t.Fatal("empty predicate returned rows")
	}
	// Unbounded sides work: everything below 100.
	if res := where(crackdb.Less(100)); res.Count() != 100 {
		t.Fatalf("Less(100) count = %d", res.Count())
	}
	if res := where(crackdb.GreaterEq(9_900)); res.Count() != 100 {
		t.Fatalf("GreaterEq count = %d", res.Count())
	}
}

func TestFacadeTable(t *testing.T) {
	ctx := context.Background()
	n := 5000
	a := crackdb.MakeData(int64(n), 8)
	b := make([]int64, n)
	for i, v := range a {
		b[i] = v * 3
	}
	tbl, err := crackdb.OpenTable(map[string][]int64{"a": a, "b": b}, crackdb.DD1R, crackdb.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != n || len(tbl.Columns()) != 2 {
		t.Fatal("table shape wrong")
	}
	sel, err := tbl.Query(ctx, crackdb.Range(100, 200).On("a"))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() != 100 {
		t.Fatalf("select returned %d", sel.Count())
	}
	proj, err := tbl.SelectProject(ctx, crackdb.Range(100, 200).On("a"), "b")
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range proj {
		sum += v
	}
	var want int64
	for v := int64(100); v < 200; v++ {
		want += v * 3
	}
	if sum != want {
		t.Fatalf("projection sum = %d, want %d", sum, want)
	}
	side, err := tbl.SelectProjectSideways(ctx, crackdb.Range(100, 200).On("a"), "b")
	if err != nil {
		t.Fatal(err)
	}
	sum = 0
	for _, v := range side {
		sum += v
	}
	if sum != want {
		t.Fatalf("sideways sum = %d, want %d", sum, want)
	}
	if tbl.Stats().Touched == 0 {
		t.Fatal("no physical work recorded")
	}
}
