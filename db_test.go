package crackdb_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	crackdb "repro"
)

func sumRange(lo, hi int64) int64 {
	var s int64
	for v := lo; v < hi; v++ {
		s += v
	}
	return s
}

// allModes opens one DB per concurrency mode over the same dataset.
func allModes(t *testing.T, n int64, algo string) map[string]*crackdb.DB {
	t.Helper()
	dbs := make(map[string]*crackdb.DB)
	for name, mode := range map[string]crackdb.Concurrency{
		"single":  crackdb.Single,
		"shared":  crackdb.Shared,
		"sharded": crackdb.Sharded(4),
	} {
		db, err := crackdb.Open(crackdb.MakeData(n, 33), algo,
			crackdb.WithSeed(34), crackdb.WithConcurrency(mode))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dbs[name] = db
	}
	return dbs
}

func TestDBQueryAllModes(t *testing.T) {
	const n = 40_000
	ctx := context.Background()
	for name, db := range allModes(t, n, crackdb.DD1R) {
		res, err := db.Query(ctx, crackdb.Range(1000, 2000))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Count() != 1000 || res.Sum() != sumRange(1000, 2000) {
			t.Fatalf("%s: count=%d sum=%d", name, res.Count(), res.Sum())
		}
		// The Owned escape hatch returns a retainable slice in every mode.
		vals := res.Owned()
		if len(vals) != 1000 {
			t.Fatalf("%s: owned len=%d", name, len(vals))
		}
		// Predicate shapes all translate.
		agg, err := db.QueryAggregate(ctx, crackdb.Between(100, 199))
		if err != nil || agg.Count != 100 || agg.Sum != sumRange(100, 200) {
			t.Fatalf("%s: aggregate %+v err=%v", name, agg, err)
		}
		// Empty predicate answers empty, no error.
		res, err = db.Query(ctx, crackdb.Greater(10).And(crackdb.Less(5)))
		if err != nil || res.Count() != 0 {
			t.Fatalf("%s: empty predicate count=%d err=%v", name, res.Count(), err)
		}
		if db.Rows() != n || db.Name() == "" {
			t.Fatalf("%s: rows=%d name=%q", name, db.Rows(), db.Name())
		}
		if db.Stats().Queries == 0 {
			t.Fatalf("%s: no queries recorded", name)
		}
	}
}

func TestDBMultiRangeOr(t *testing.T) {
	ctx := context.Background()
	p := crackdb.Range(100, 110).Or(crackdb.Range(5000, 5010)).Or(crackdb.Eq(42))
	want := sumRange(100, 110) + sumRange(5000, 5010) + 42
	for name, db := range allModes(t, 20_000, crackdb.Crack) {
		res, err := db.Query(ctx, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Count() != 21 || res.Sum() != want {
			t.Fatalf("%s: multi-range count=%d sum=%d want sum %d", name, res.Count(), res.Sum(), want)
		}
		// Multi-range results come back grouped in ascending range order
		// (values within a range stay in storage order).
		vals := res.Owned()
		if vals[0] != 42 {
			t.Fatalf("%s: order broken: %v", name, vals)
		}
		for i, v := range vals[1:] {
			if i < 10 && (v < 100 || v >= 110) || i >= 10 && (v < 5000 || v >= 5010) {
				t.Fatalf("%s: order broken at %d: %v", name, i+1, vals)
			}
		}
		agg, err := db.QueryAggregate(ctx, p)
		if err != nil || agg.Count != 21 || agg.Sum != want {
			t.Fatalf("%s: multi-range aggregate %+v err=%v", name, agg, err)
		}
	}
}

func TestDBQueryBatch(t *testing.T) {
	ctx := context.Background()
	ps := []crackdb.Predicate{
		crackdb.Range(10, 20),
		crackdb.Eq(500).Or(crackdb.Eq(700)),
		crackdb.Greater(20).And(crackdb.Less(5)), // empty
		crackdb.Between(900, 909),
	}
	for name, db := range allModes(t, 10_000, crackdb.DD1R) {
		out, err := db.QueryBatch(ctx, ps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) != 4 {
			t.Fatalf("%s: %d results", name, len(out))
		}
		if out[0].Count() != 10 || out[0].Sum() != sumRange(10, 20) {
			t.Fatalf("%s: batch[0] count=%d", name, out[0].Count())
		}
		if out[1].Count() != 2 || out[1].Sum() != 1200 {
			t.Fatalf("%s: batch[1] count=%d sum=%d", name, out[1].Count(), out[1].Sum())
		}
		if out[2].Count() != 0 {
			t.Fatalf("%s: batch[2] not empty", name)
		}
		if out[3].Count() != 10 || out[3].Sum() != sumRange(900, 910) {
			t.Fatalf("%s: batch[3] count=%d", name, out[3].Count())
		}
	}
}

func TestDBUpdatesAllModes(t *testing.T) {
	ctx := context.Background()
	for name, db := range allModes(t, 10_000, crackdb.Crack) {
		if _, err := db.Query(ctx, crackdb.Range(2000, 3000)); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert(2500); err != nil {
			t.Fatalf("%s: insert: %v", name, err)
		}
		if err := db.Delete(2600); err != nil {
			t.Fatalf("%s: delete: %v", name, err)
		}
		if db.PendingUpdates() != 2 {
			t.Fatalf("%s: pending=%d", name, db.PendingUpdates())
		}
		res, err := db.Query(ctx, crackdb.Range(2400, 2700))
		if err != nil {
			t.Fatal(err)
		}
		if res.Count() != 300 { // +1 insert, -1 delete
			t.Fatalf("%s: count after updates = %d, want 300", name, res.Count())
		}
		if db.PendingUpdates() != 0 {
			t.Fatalf("%s: updates not merged", name)
		}
	}
	// The sorted baseline cannot take updates, in any mode.
	db, err := crackdb.Open(crackdb.MakeData(1000, 35), crackdb.Sort,
		crackdb.WithConcurrency(crackdb.Shared))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(1); !errors.Is(err, crackdb.ErrUpdatesUnsupported) {
		t.Fatalf("sort insert error = %v", err)
	}
}

func TestDBSnapshotModes(t *testing.T) {
	ctx := context.Background()
	dbs := allModes(t, 10_000, crackdb.DD1R)
	for _, name := range []string{"single", "shared", "sharded"} {
		db := dbs[name]
		if _, err := db.Query(ctx, crackdb.Range(100, 5000)); err != nil {
			t.Fatal(err)
		}
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", name, err)
		}
		// Every source mode restores into every target mode, including a
		// shard count different from the source layout.
		for tname, target := range map[string]crackdb.Concurrency{
			"single":    crackdb.Single,
			"shared":    crackdb.Shared,
			"sharded-4": crackdb.Sharded(4), // the source sharded layout
			"sharded-3": crackdb.Sharded(3), // re-cut along new bounds
		} {
			restored, err := crackdb.OpenSnapshot(snap, crackdb.Crack,
				crackdb.WithConcurrency(target))
			if err != nil {
				t.Fatalf("%s->%s: restore: %v", name, tname, err)
			}
			res, err := restored.Query(ctx, crackdb.Range(100, 200))
			if err != nil || res.Count() != 100 {
				t.Fatalf("%s->%s: restored count=%d err=%v", name, tname, res.Count(), err)
			}
		}
		// Pending updates are captured with the snapshot and restored; only
		// the strict variant refuses, with the sentinel.
		if err := db.Insert(1); err != nil {
			t.Fatal(err)
		}
		if _, err := db.SnapshotStrict(); !errors.Is(err, crackdb.ErrPendingUpdates) {
			t.Fatalf("%s: strict snapshot with pending updates: err = %v", name, err)
		}
		withPending, err := db.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot with pending updates: %v", name, err)
		}
		if withPending.Pending() != 1 {
			t.Fatalf("%s: snapshot pending=%d, want 1", name, withPending.Pending())
		}
		requeued, err := crackdb.OpenSnapshot(withPending, crackdb.Crack)
		if err != nil {
			t.Fatalf("%s: restore with pending updates: %v", name, err)
		}
		if n := requeued.PendingUpdates(); n != 1 {
			t.Fatalf("%s: restored pending=%d, want 1", name, n)
		}
	}
}

func TestDBSentinelErrors(t *testing.T) {
	if _, err := crackdb.Open(nil, "not-an-algorithm"); !errors.Is(err, crackdb.ErrUnknownAlgorithm) {
		t.Fatalf("unknown algorithm error = %v", err)
	}
	if _, err := crackdb.Open(nil, "bogus", crackdb.WithConcurrency(crackdb.Sharded(2))); !errors.Is(err, crackdb.ErrUnknownAlgorithm) {
		t.Fatalf("sharded unknown algorithm error = %v", err)
	}
	if _, err := crackdb.OpenTable(map[string][]int64{"a": {1}}, "bogus"); !errors.Is(err, crackdb.ErrUnknownAlgorithm) {
		t.Fatalf("table unknown algorithm error = %v", err)
	}

	// A known algorithm in a mode that cannot run it is "unsupported",
	// not "unknown".
	if _, err := crackdb.Open(crackdb.MakeData(100, 36), crackdb.AICC,
		crackdb.WithConcurrency(crackdb.Sharded(2))); !errors.Is(err, errors.ErrUnsupported) || errors.Is(err, crackdb.ErrUnknownAlgorithm) {
		t.Fatalf("hybrid sharded error = %v", err)
	}
	// Tables take the hybrids too, except the one shape that projects — a
	// Single table of two or more columns — which needs an engine.
	hybrid, err := crackdb.OpenTable(map[string][]int64{"a": crackdb.MakeData(100, 36)}, crackdb.AICS,
		crackdb.WithConcurrency(crackdb.Shared))
	if err != nil {
		t.Fatalf("hybrid shared table error = %v", err)
	}
	if agg, err := hybrid.QueryAggregate(context.Background(), crackdb.Range(10, 20)); err != nil || agg.Count != 10 {
		t.Fatalf("hybrid shared table: count=%d err=%v", agg.Count, err)
	}
	if _, err := crackdb.OpenTable(map[string][]int64{"a": crackdb.MakeData(100, 36), "b": crackdb.MakeData(100, 37)},
		crackdb.AICS); !errors.Is(err, crackdb.ErrUnknownAlgorithm) {
		t.Fatalf("hybrid projecting table error = %v", err)
	}

	db, err := crackdb.Open(crackdb.MakeData(100, 36), crackdb.Crack)
	if err != nil {
		t.Fatal(err)
	}
	// A single-column DB rejects column-scoped predicates.
	if _, err := db.Query(context.Background(), crackdb.Eq(1).On("a")); !errors.Is(err, crackdb.ErrUnknownColumn) {
		t.Fatalf("scoped predicate error = %v", err)
	}
	// Closed handles fail every operation with ErrClosed.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(context.Background(), crackdb.Eq(1)); !errors.Is(err, crackdb.ErrClosed) {
		t.Fatalf("query after close error = %v", err)
	}
	if err := db.Insert(1); !errors.Is(err, crackdb.ErrClosed) {
		t.Fatalf("insert after close error = %v", err)
	}
	if err := db.Close(); err != nil { // idempotent, io.Closer-style
		t.Fatalf("double close error = %v", err)
	}
}

func TestDBTableModes(t *testing.T) {
	const n = 20_000
	ctx := context.Background()
	a := crackdb.MakeData(n, 37)
	b := make([]int64, n)
	for i, v := range a {
		b[i] = v * 2
	}
	for _, mode := range []crackdb.Concurrency{crackdb.Single, crackdb.Shared, crackdb.Sharded(4)} {
		// Each DB owns its slices: give each its own copy.
		db, err := crackdb.OpenTable(map[string][]int64{"a": slices.Clone(a), "b": slices.Clone(b)}, crackdb.DD1R,
			crackdb.WithSeed(38), crackdb.WithConcurrency(mode))
		if err != nil {
			t.Fatal(err)
		}
		if db.Rows() != n || len(db.Columns()) != 2 {
			t.Fatal("table shape wrong")
		}
		res, err := db.Query(ctx, crackdb.Range(100, 200).On("a"))
		if err != nil || res.Count() != 100 || res.Sum() != sumRange(100, 200) {
			t.Fatalf("%v: a count=%d err=%v", mode, res.Count(), err)
		}
		agg, err := db.QueryAggregate(ctx, crackdb.Range(0, 200).On("b"))
		if err != nil || agg.Count != 100 {
			t.Fatalf("%v: b aggregate %+v err=%v", mode, agg, err)
		}
		// Unscoped predicates on a multi-column table are rejected...
		if _, err := db.Query(ctx, crackdb.Eq(1)); !errors.Is(err, crackdb.ErrUnknownColumn) {
			t.Fatalf("%v: unscoped error = %v", mode, err)
		}
		// ...as are unknown columns, and table updates/snapshots.
		if _, err := db.Query(ctx, crackdb.Eq(1).On("zzz")); !errors.Is(err, crackdb.ErrUnknownColumn) {
			t.Fatalf("%v: unknown column error = %v", mode, err)
		}
		// Predicates composed across two different columns are rejected,
		// never silently answered against one of them.
		bad := crackdb.Range(0, 10).On("a").And(crackdb.Range(0, 10).On("b"))
		if _, err := db.Query(ctx, bad); !errors.Is(err, crackdb.ErrUnknownColumn) {
			t.Fatalf("%v: cross-column And error = %v", mode, err)
		}
		bad = crackdb.Eq(1).On("a").Or(crackdb.Eq(2).On("b"))
		if _, err := db.QueryAggregate(ctx, bad); !errors.Is(err, crackdb.ErrUnknownColumn) {
			t.Fatalf("%v: cross-column Or error = %v", mode, err)
		}
		// Unscoped writes on a multi-column table are rejected too; scoped
		// writes land on the named column only.
		if err := db.Insert(1); !errors.Is(err, crackdb.ErrUnknownColumn) {
			t.Fatalf("%v: unscoped table insert error = %v", mode, err)
		}
		if err := db.InsertOn("a", 150); err != nil {
			t.Fatalf("%v: scoped insert error = %v", mode, err)
		}
		if res, err := db.Query(ctx, crackdb.Range(100, 200).On("a")); err != nil || res.Count() != 101 {
			t.Fatalf("%v: a count after insert = %d err=%v", mode, res.Count(), err)
		}
		if res, err := db.Query(ctx, crackdb.Range(200, 400).On("b")); err != nil || res.Count() != 100 {
			t.Fatalf("%v: b unaffected by a-insert, count=%d err=%v", mode, res.Count(), err)
		}
		if err := db.DeleteOn("a", 150); err != nil {
			t.Fatalf("%v: scoped delete error = %v", mode, err)
		}
		// Table snapshots capture per-column state and restore into any
		// table mode (round-trip coverage lives in TestRestoreEquivalence).
		if snap, err := db.Snapshot(); err != nil || len(snap.Columns) != 2 {
			t.Fatalf("%v: table snapshot has %d columns, err=%v", mode, len(snap.Columns), err)
		}
		if sizes, err := db.PieceSizes(); err != nil || len(sizes) == 0 {
			t.Fatalf("%v: table piece sizes %v err=%v", mode, sizes, err)
		}
		// Batches spanning columns stitch correctly.
		out, err := db.QueryBatch(ctx, []crackdb.Predicate{
			crackdb.Range(10, 20).On("a"),
			crackdb.Range(10, 20).On("b"),
		})
		if err != nil || out[0].Count() != 10 || out[1].Count() != 5 {
			t.Fatalf("%v: cross-column batch (%d,%d) err=%v", mode, out[0].Count(), out[1].Count(), err)
		}
		if db.Stats().Queries == 0 {
			t.Fatalf("%v: no stats", mode)
		}
	}
	// A one-column table serves unscoped predicates on its only column.
	db, err := crackdb.OpenTable(map[string][]int64{"only": slices.Clone(a)}, crackdb.Crack)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := db.Query(ctx, crackdb.Eq(42)); err != nil || res.Count() != 1 {
		t.Fatalf("default column: count=%d err=%v", res.Count(), err)
	}
	// Sharded tables: every column behind k range-partitioned executors.
	sdb, err := crackdb.OpenTable(map[string][]int64{"a": slices.Clone(a)}, crackdb.Crack,
		crackdb.WithConcurrency(crackdb.Sharded(4)))
	if err != nil {
		t.Fatalf("sharded table error = %v", err)
	}
	if res, err := sdb.Query(ctx, crackdb.Range(0, 100)); err != nil || res.Count() != 100 {
		t.Fatalf("sharded table: count=%d err=%v", res.Count(), err)
	}
	if got := sdb.Name(); got != "table(sharded-4)" {
		t.Fatalf("sharded table name = %q", got)
	}
}

// TestRestoredTablePendingUpdates: a restored table counts the queued
// updates its columns carry before their first use, in every table mode,
// and a covering query merges them.
func TestRestoredTablePendingUpdates(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []crackdb.Concurrency{crackdb.Single, crackdb.Shared, crackdb.Sharded(3)} {
		src, err := crackdb.OpenTable(map[string][]int64{"v": crackdb.MakeData(1_000, 5)}, crackdb.DD1R,
			crackdb.WithConcurrency(mode))
		if err != nil {
			t.Fatal(err)
		}
		for v := int64(2_000); v < 2_007; v++ {
			if err := src.Insert(v); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		db, err := crackdb.OpenSnapshot(snap, crackdb.DD1R, crackdb.WithConcurrency(mode))
		if err != nil {
			t.Fatal(err)
		}
		if n := db.PendingUpdates(); n != 7 {
			t.Fatalf("%v: restored table reports %d pending updates, want 7", mode, n)
		}
		if res, err := db.Query(ctx, crackdb.Range(2_000, 2_007)); err != nil || res.Count() != 7 {
			t.Fatalf("%v: covering query count=%d err=%v", mode, res.Count(), err)
		}
		if n := db.PendingUpdates(); n != 0 {
			t.Fatalf("%v: %d updates pending after a covering query, want 0", mode, n)
		}
	}
}

// TestSharedTableMatchesColumnDB: a one-column table and a single-column
// DB are the same object, so in every mode the same queries cost the same
// physical work. It also pins the facade contracts of an Open DB: its
// backend's name, no column names, a manifest of the one unnamed column
// and no projection.
func TestSharedTableMatchesColumnDB(t *testing.T) {
	const n = 50_000
	ctx := context.Background()
	for _, tc := range []struct {
		mode crackdb.Concurrency
		name string
	}{
		{crackdb.Single, "dd1r"},
		{crackdb.Shared, "exec(updatable(dd1r))"},
		{crackdb.Sharded(3), "sharded-3(dd1r)"},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			opts := []crackdb.Option{crackdb.WithSeed(9), crackdb.WithConcurrency(tc.mode)}
			col, err := crackdb.Open(crackdb.MakeData(n, 8), crackdb.DD1R, opts...)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := crackdb.OpenTable(map[string][]int64{"v": crackdb.MakeData(n, 8)}, crackdb.DD1R, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for lo := int64(0); lo < n; lo += 97 {
				for _, db := range []*crackdb.DB{col, tbl} {
					if agg, err := db.QueryAggregate(ctx, crackdb.Range(lo, lo+10)); err != nil || agg.Count != int(min(10, n-lo)) {
						t.Fatalf("%s [%d,%d): count=%d err=%v", db.Name(), lo, lo+10, agg.Count, err)
					}
				}
			}
			a, b := col.Stats(), tbl.Stats()
			if a.Touched != b.Touched || a.Swaps != b.Swaps || a.Cracks != b.Cracks {
				t.Fatalf("column DB touched/swaps/cracks %d/%d/%d, table %d/%d/%d",
					a.Touched, a.Swaps, a.Cracks, b.Touched, b.Swaps, b.Cracks)
			}

			if got := col.Name(); got != tc.name {
				t.Fatalf("Name() = %q, want %q", got, tc.name)
			}
			if cols := col.Columns(); cols != nil {
				t.Fatalf("Columns() = %q, want nil", cols)
			}
			snap, err := col.Snapshot()
			if err != nil || len(snap.Columns) != 1 || snap.Columns[0].Name != "" {
				t.Fatalf("Snapshot() has %d columns (err %v), want the one unnamed column", len(snap.Columns), err)
			}
			for _, proj := range []string{"", "v"} {
				if _, err := col.SelectProject(ctx, crackdb.Range(0, 10), proj); !errors.Is(err, crackdb.ErrUnknownColumn) {
					t.Fatalf("SelectProject(%q) err = %v, want ErrUnknownColumn", proj, err)
				}
			}
		})
	}
}

// TestConstructorsDoNotCopy measures what a constructor plus one narrow
// query allocates per row of each column on 1 Mi rows: the DB adopts the
// caller's slices, a Sharded build copies the column once into its
// buckets, and a projecting Single table makes one cracker copy with row
// ids (8 + 4 bytes) per selected column.
func TestConstructorsDoNotCopy(t *testing.T) {
	const n = 1 << 20
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		cols  int // columns opened, each queried once
		table bool
		mode  crackdb.Concurrency
		max   float64 // bytes per row and column
	}{
		{"open/single", 1, false, crackdb.Single, 1},
		{"open/shared", 1, false, crackdb.Shared, 1},
		{"table-1/single", 1, true, crackdb.Single, 1},
		{"table-1/shared", 1, true, crackdb.Shared, 1},
		{"table-2/shared", 2, true, crackdb.Shared, 1},
		{"open/sharded-2", 1, false, crackdb.Sharded(2), 9},
		{"table-1/sharded-2", 1, true, crackdb.Sharded(2), 9},
		{"table-2/single", 2, true, crackdb.Single, 12.1}, // 12 plus fixed-size state
	} {
		t.Run(tc.name, func(t *testing.T) {
			names := []string{"a", "b"}[:tc.cols]
			cols := make(map[string][]int64, tc.cols)
			for i, name := range names {
				cols[name] = crackdb.MakeData(n, uint64(70+i))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var db *crackdb.DB
			var err error
			if tc.table {
				db, err = crackdb.OpenTable(cols, crackdb.DD1R, crackdb.WithConcurrency(tc.mode))
			} else {
				names = []string{""}
				db, err = crackdb.Open(cols["a"], crackdb.DD1R, crackdb.WithConcurrency(tc.mode))
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if agg, err := db.QueryAggregate(ctx, crackdb.Range(1_000, 1_010).On(name)); err != nil || agg.Count != 10 {
					t.Fatalf("column %q: count=%d err=%v", name, agg.Count, err)
				}
			}
			runtime.ReadMemStats(&after)
			perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(n*tc.cols)
			if perRow > tc.max {
				t.Fatalf("allocated %.2f B per row and column, want <= %g", perRow, tc.max)
			}
			runtime.KeepAlive(db)
		})
	}
}

// TestDBSelectProject pins projection on DB: both reconstruction
// strategies answer exactly on a Single-mode table, and every handle that
// cannot project fails with its sentinel.
func TestDBSelectProject(t *testing.T) {
	const n = 5000
	a := crackdb.MakeData(n, 43)
	cols := func() map[string][]int64 {
		b := make([]int64, n)
		for i, v := range a {
			b[i] = 3 * v
		}
		return map[string][]int64{"a": append([]int64(nil), a...), "b": b}
	}
	openTable := func(t *testing.T, opts ...crackdb.Option) *crackdb.DB {
		t.Helper()
		db, err := crackdb.OpenTable(cols(), crackdb.DD1R, append(opts, crackdb.WithSeed(44))...)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	strategies := map[string]func(*crackdb.DB, context.Context, crackdb.Predicate, string) ([]int64, error){
		"late":     (*crackdb.DB).SelectProject,
		"sideways": (*crackdb.DB).SelectProjectSideways,
	}
	ctx := context.Background()
	for name, project := range strategies {
		db := openTable(t)
		// Twice: the second pass runs on the cracks the first one made.
		for pass := 0; pass < 2; pass++ {
			got, err := project(db, ctx, crackdb.Range(300, 400).Or(crackdb.Range(100, 110)).On("a"), "b")
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != 110 {
				t.Fatalf("%s: %d rows, want 110", name, len(got))
			}
			// Ascending range order: [100,110) first, then [300,400).
			var lowSum, highSum int64
			for i, v := range got {
				if i < 10 {
					lowSum += v
				} else {
					highSum += v
				}
			}
			if lowSum != 3*sumRange(100, 110) || highSum != 3*sumRange(300, 400) {
				t.Fatalf("%s: sums (%d, %d), want (%d, %d)", name, lowSum, highSum,
					3*sumRange(100, 110), 3*sumRange(300, 400))
			}
		}
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	for _, c := range []struct {
		name string
		prep func(t *testing.T) (*crackdb.DB, context.Context, crackdb.Predicate, string)
		want error
	}{
		{"shared table", func(t *testing.T) (*crackdb.DB, context.Context, crackdb.Predicate, string) {
			return openTable(t, crackdb.WithConcurrency(crackdb.Shared)), ctx, crackdb.Range(0, 10).On("a"), "b"
		}, errors.ErrUnsupported},
		{"sharded table", func(t *testing.T) (*crackdb.DB, context.Context, crackdb.Predicate, string) {
			return openTable(t, crackdb.WithConcurrency(crackdb.Sharded(2))), ctx, crackdb.Range(0, 10).On("a"), "b"
		}, errors.ErrUnsupported},
		{"single column", func(t *testing.T) (*crackdb.DB, context.Context, crackdb.Predicate, string) {
			db, err := crackdb.Open(crackdb.MakeData(n, 43), crackdb.DD1R)
			if err != nil {
				t.Fatal(err)
			}
			return db, ctx, crackdb.Range(0, 10), "b"
		}, crackdb.ErrUnknownColumn},
		{"unknown projection", func(t *testing.T) (*crackdb.DB, context.Context, crackdb.Predicate, string) {
			return openTable(t), ctx, crackdb.Range(0, 10).On("a"), "zzz"
		}, crackdb.ErrUnknownColumn},
		{"restored", func(t *testing.T) (*crackdb.DB, context.Context, crackdb.Predicate, string) {
			snap, err := openTable(t).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			db, err := crackdb.OpenSnapshot(snap, crackdb.DD1R)
			if err != nil {
				t.Fatal(err)
			}
			return db, ctx, crackdb.Range(0, 10).On("a"), "b"
		}, crackdb.ErrSnapshotUnsupported},
		{"written to", func(t *testing.T) (*crackdb.DB, context.Context, crackdb.Predicate, string) {
			db := openTable(t)
			if err := db.InsertOn("a", 5); err != nil {
				t.Fatal(err)
			}
			return db, ctx, crackdb.Range(0, 10).On("a"), "b"
		}, crackdb.ErrUpdatesUnsupported},
		{"closed", func(t *testing.T) (*crackdb.DB, context.Context, crackdb.Predicate, string) {
			db := openTable(t)
			db.Close()
			return db, ctx, crackdb.Range(0, 10).On("a"), "b"
		}, crackdb.ErrClosed},
		{"canceled", func(t *testing.T) (*crackdb.DB, context.Context, crackdb.Predicate, string) {
			return openTable(t), canceled, crackdb.Range(0, 10).On("a"), "b"
		}, context.Canceled},
	} {
		for name, project := range strategies {
			db, cctx, p, proj := c.prep(t)
			if _, err := project(db, cctx, p, proj); !errors.Is(err, c.want) {
				t.Fatalf("%s/%s: err = %v, want %v", c.name, name, err, c.want)
			}
		}
	}
}

func TestDBConcurrentTraffic(t *testing.T) {
	const n = 30_000
	ctx := context.Background()
	for _, mode := range []crackdb.Concurrency{crackdb.Shared, crackdb.Sharded(4)} {
		db, err := crackdb.Open(crackdb.MakeData(n, 39), crackdb.DD1R,
			crackdb.WithSeed(40), crackdb.WithConcurrency(mode))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 32)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					lo := int64((g*1103 + i*197) % (n - 300))
					switch i % 3 {
					case 0:
						res, err := db.Query(ctx, crackdb.Range(lo, lo+100))
						if err != nil || res.Count() != 100 {
							errs <- "query wrong"
							return
						}
					case 1:
						out, err := db.QueryBatch(ctx, []crackdb.Predicate{
							crackdb.Range(lo, lo+10),
							crackdb.Range(lo+50, lo+60).Or(crackdb.Range(lo+90, lo+100)),
						})
						if err != nil || out[0].Count() != 10 || out[1].Count() != 20 {
							errs <- "batch wrong"
							return
						}
					default:
						agg, err := db.QueryAggregate(ctx, crackdb.Range(lo, lo+100))
						if err != nil || agg.Count != 100 {
							errs <- "aggregate wrong"
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("%v: %s", mode, e)
		}
	}
}

// TestDBCanceledContext covers the acceptance criterion: a canceled
// context aborts queries in every mode, including a sharded QueryBatch
// mid-fan-out.
func TestDBCanceledContext(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, db := range allModes(t, 10_000, crackdb.DD1R) {
		if _, err := db.Query(canceled, crackdb.Range(0, 100)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: query error = %v", name, err)
		}
		if _, err := db.QueryBatch(canceled, []crackdb.Predicate{crackdb.Eq(1)}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: batch error = %v", name, err)
		}
		if _, err := db.QueryAggregate(canceled, crackdb.Range(0, 100)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: aggregate error = %v", name, err)
		}
	}
}

func TestDBShardedBatchCancelMidFanout(t *testing.T) {
	const n = 2_000_000
	db, err := crackdb.Open(crackdb.MakeData(n, 41), crackdb.Crack,
		crackdb.WithSeed(42), crackdb.WithConcurrency(crackdb.Sharded(8)))
	if err != nil {
		t.Fatal(err)
	}
	// A big batch of wide fresh ranges: every range fans out to all 8
	// shards and cracks, so the batch runs far longer than the cancel
	// delay below.
	ps := make([]crackdb.Predicate, 400)
	for i := range ps {
		lo := int64(i * (n / 500))
		ps[i] = crackdb.Range(lo, lo+n/100)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := db.QueryBatch(ctx, ps)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("batch error = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled batch did not return")
	}
	// The abort must be prompt: the full batch takes far longer than the
	// post-cancel grace we allow here (one in-flight range per shard).
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// The DB stays fully usable after an aborted batch.
	res, err := db.Query(context.Background(), crackdb.Range(1000, 1100))
	if err != nil || res.Count() != 100 {
		t.Fatalf("post-cancel query count=%d err=%v", res.Count(), err)
	}
}
