package table

import (
	"context"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/xrand"
)

// makeTable builds a three-column table where the relationships between
// columns are checkable: b[i] = a[i]*2, c[i] = -a[i].
func makeTable(t *testing.T, n int, algo string) (*Table, []int64) {
	t.Helper()
	a := xrand.New(1).Perm(n)
	b := make([]int64, n)
	c := make([]int64, n)
	for i, v := range a {
		b[i] = v * 2
		c[i] = -v
	}
	tbl, err := New(map[string][]int64{"a": a, "b": b, "c": c}, algo, exec.Mode{}, core.Options{Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, a
}

// selectVals answers a value selection on column sel of a Single table.
func selectVals(tbl *Table, sel string, lo, hi int64) ([]int64, error) {
	c, err := tbl.Column(sel)
	if err != nil {
		return nil, err
	}
	return c.QueryAppendCtx(context.Background(), lo, hi, nil)
}

// builtColumns counts the columns whose backend has been built.
func builtColumns(tbl *Table) int {
	n := 0
	for range tbl.built() {
		n++
	}
	return n
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestTableBasics(t *testing.T) {
	tbl, _ := makeTable(t, 1000, "crack")
	if tbl.Rows() != 1000 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	cols := tbl.Columns()
	if len(cols) != 3 || cols[0] != "a" || cols[1] != "b" || cols[2] != "c" {
		t.Fatalf("columns = %v", cols)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, "crack", exec.Mode{}, core.Options{}, nil); err == nil {
		t.Fatal("empty table accepted")
	}
	if _, err := New(map[string][]int64{"a": {1, 2}, "b": {1}}, "crack", exec.Mode{}, core.Options{}, nil); err == nil {
		t.Fatal("ragged columns accepted")
	}
	if _, err := New(map[string][]int64{"a": {1}}, "bogus", exec.Mode{}, core.Options{}, nil); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

func TestSelectMatchesOracle(t *testing.T) {
	tbl, _ := makeTable(t, 5000, "crack")
	got, err := selectVals(tbl, "a", 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 0, 200)
	for v := int64(100); v < 300; v++ {
		want = append(want, v)
	}
	gs := sortedCopy(got)
	if len(gs) != len(want) {
		t.Fatalf("select returned %d values, want %d", len(gs), len(want))
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Fatalf("select[%d] = %d, want %d", i, gs[i], want[i])
		}
	}
	if _, err := selectVals(tbl, "nope", 0, 1); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestSelectProjectRowIDReconstruction(t *testing.T) {
	for _, algo := range []string{"crack", "dd1r", "mdd1r", "pmdd1r-10"} {
		tbl, _ := makeTable(t, 5000, algo)
		rng := xrand.New(9)
		for q := 0; q < 50; q++ {
			lo := rng.Int63n(4800)
			hi := lo + rng.Int63n(200) + 1
			got, err := tbl.SelectProject("a", "b", lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			// b = 2*a, so projecting b over a in [lo,hi) yields exactly
			// {2lo, 2lo+2, ..., 2(hi-1)}.
			gs := sortedCopy(got)
			if int64(len(gs)) != hi-lo {
				t.Fatalf("%s: projected %d values for [%d,%d)", algo, len(gs), lo, hi)
			}
			for i, v := range gs {
				if v != 2*(lo+int64(i)) {
					t.Fatalf("%s: proj[%d] = %d, want %d", algo, i, v, 2*(lo+int64(i)))
				}
			}
		}
	}
}

func TestSelectProjectUnknownColumns(t *testing.T) {
	tbl, _ := makeTable(t, 100, "crack")
	if _, err := tbl.SelectProject("a", "zzz", 0, 10); err == nil {
		t.Fatal("unknown projection column accepted")
	}
	if _, err := tbl.SelectProject("zzz", "b", 0, 10); err == nil {
		t.Fatal("unknown selection column accepted")
	}
}

func TestSelectProjectSideways(t *testing.T) {
	tbl, _ := makeTable(t, 5000, "dd1r")
	rng := xrand.New(11)
	for q := 0; q < 60; q++ {
		lo := rng.Int63n(4800)
		hi := lo + rng.Int63n(150) + 1
		got, err := tbl.SelectProjectSideways("a", "c", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		gs := sortedCopy(got)
		if int64(len(gs)) != hi-lo {
			t.Fatalf("sideways projected %d values for [%d,%d)", len(gs), lo, hi)
		}
		// c = -a, so sorted projection is {-(hi-1), ..., -lo}.
		for i, v := range gs {
			if v != -(hi - 1 - int64(i)) {
				t.Fatalf("sideways proj[%d] = %d, want %d", i, v, -(hi - 1 - int64(i)))
			}
		}
	}
	if tbl.Maps() != 1 {
		t.Fatalf("maps = %d, want 1 (one (a,c) pair)", tbl.Maps())
	}
	// A second pair materializes a second map.
	if _, err := tbl.SelectProjectSideways("a", "b", 10, 20); err != nil {
		t.Fatal(err)
	}
	if tbl.Maps() != 2 {
		t.Fatalf("maps = %d, want 2", tbl.Maps())
	}
	if _, err := tbl.SelectProjectSideways("a", "zzz", 0, 1); err == nil {
		t.Fatal("unknown projection accepted")
	}
}

func TestSidewaysMapConvergence(t *testing.T) {
	// Repeating a query must stop touching tuples: the map has exact
	// cracks for its bounds.
	tbl, _ := makeTable(t, 10000, "crack")
	if _, err := tbl.SelectProjectSideways("a", "b", 2000, 3000); err != nil {
		t.Fatal(err)
	}
	touched := tbl.Stats().Touched
	for i := 0; i < 5; i++ {
		if _, err := tbl.SelectProjectSideways("a", "b", 2000, 3000); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Stats().Touched != touched {
		t.Fatal("repeated sideways query still reorganizes the map")
	}
}

func TestSelectionIndexesIndependentPerAttribute(t *testing.T) {
	// Cracking on a must not touch b's index or base column (attribute-
	// level adaptation, §2). A Single projection table makes a column's
	// cracker copy on the column's first selection.
	tbl, _ := makeTable(t, 2000, "crack")
	if _, err := selectVals(tbl, "a", 100, 200); err != nil {
		t.Fatal(err)
	}
	if builtColumns(tbl) != 1 {
		t.Fatalf("indexes = %d, want 1", builtColumns(tbl))
	}
	if _, err := selectVals(tbl, "b", 100, 200); err != nil {
		t.Fatal(err)
	}
	if builtColumns(tbl) != 2 {
		t.Fatalf("indexes = %d, want 2", builtColumns(tbl))
	}
	// Base columns remain untouched (cracking copies).
	for i, v := range tbl.cols[0].base { // columns a, b, c
		if tbl.cols[1].base[i] != v*2 {
			t.Fatal("base columns were mutated by cracking")
		}
	}

	// Every other table builds its columns at open: querying a leaves b
	// one unbroken piece (one per shard in Sharded mode).
	for _, tc := range []struct {
		mode   exec.Mode
		pieces int
	}{{exec.Mode{Kind: exec.ModeShared}, 1}, {exec.Mode{Kind: exec.ModeSharded, Shards: 2}, 2}} {
		a := xrand.New(1).Perm(2000)
		tbl, err := New(map[string][]int64{"a": a, "b": slices.Clone(a)}, "crack", tc.mode, core.Options{Seed: 5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := selectVals(tbl, "a", 100, 200); err != nil {
			t.Fatal(err)
		}
		cb, err := tbl.Column("b")
		if err != nil {
			t.Fatal(err)
		}
		if sizes := exec.PieceSizes(cb); len(sizes) != tc.pieces || cb.Stats().Touched != 0 {
			t.Fatalf("%v: b has pieces %v and touched %d after querying a", tc.mode, sizes, cb.Stats().Touched)
		}
	}
}

func TestSelectEmptyAndInvertedRanges(t *testing.T) {
	tbl, _ := makeTable(t, 500, "mdd1r")
	for _, q := range [][2]int64{{10, 10}, {20, 10}, {-100, 0}, {500, 600}} {
		got, err := tbl.SelectProject("a", "b", q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("range [%d,%d) returned %d values", q[0], q[1], len(got))
		}
		side, err := tbl.SelectProjectSideways("a", "b", q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(side) != 0 {
			t.Fatalf("sideways range [%d,%d) returned %d values", q[0], q[1], len(side))
		}
	}
}

func TestStatsAggregation(t *testing.T) {
	tbl, _ := makeTable(t, 3000, "crack")
	if s := tbl.Stats(); s.Touched != 0 || s.Queries != 0 {
		t.Fatalf("fresh table stats: %+v", s)
	}
	selectVals(tbl, "a", 10, 20)
	tbl.SelectProjectSideways("a", "b", 30, 40)
	s := tbl.Stats()
	if s.Queries != 1 || s.Touched == 0 || s.Cracks == 0 {
		t.Fatalf("stats after queries: %+v", s)
	}
}
