package crackdb_test

import (
	"context"
	"slices"
	"testing"

	crackdb "repro"
)

// The zero-allocation contract of the converged hot path: once a query's
// bounds are exact cracks (or fall in pieces too small to split), Query
// in Single mode and the Append forms in Single and Shared modes perform
// no heap allocation at all. These are regression tests — the CI bench
// job guards ns/op, these guard allocs/op.

// zeroAllocValues builds a deterministic shuffle of [0, n) without
// importing internal packages.
func zeroAllocValues(n int) []int64 {
	vals := make([]int64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range vals {
		vals[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		j := int(state % uint64(i+1))
		vals[i], vals[j] = vals[j], vals[i]
	}
	return vals
}

const (
	zaN     = 1 << 16
	zaLo    = int64(zaN / 4)
	zaHi    = zaLo + 512
	zaCount = 512
)

// convergedDB opens a DB over shuffled [0, zaN) and runs the benchmark
// range once, so both bounds become exact cracks and every later query on
// it is converged.
func convergedDB(t *testing.T, mode crackdb.Concurrency) *crackdb.DB {
	t.Helper()
	db, err := crackdb.Open(zeroAllocValues(zaN), crackdb.Crack, crackdb.WithConcurrency(mode))
	return converge(t, db, err)
}

// convergedTable is convergedDB over a one-column table, queried through
// unscoped predicates on its only column.
func convergedTable(t *testing.T, mode crackdb.Concurrency) *crackdb.DB {
	t.Helper()
	db, err := crackdb.OpenTable(map[string][]int64{"v": zeroAllocValues(zaN)}, crackdb.Crack,
		crackdb.WithConcurrency(mode))
	return converge(t, db, err)
}

func converge(t *testing.T, db *crackdb.DB, err error) *crackdb.DB {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), crackdb.Range(zaLo, zaHi))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != zaCount {
		t.Fatalf("warmup count = %d, want %d", res.Count(), zaCount)
	}
	return db
}

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
	}
}

func TestConvergedQueryZeroAllocsSingle(t *testing.T) {
	db := convergedDB(t, crackdb.Single)
	ctx := context.Background()
	p := crackdb.Range(zaLo, zaHi)
	assertZeroAllocs(t, "Single Query", func() {
		res, err := db.Query(ctx, p)
		if err != nil || res.Count() != zaCount {
			t.Fatalf("count=%d err=%v", res.Count(), err)
		}
	})
	buf := make([]int64, 0, zaCount)
	assertZeroAllocs(t, "Single QueryAppend", func() {
		out, err := db.QueryAppend(ctx, p, buf[:0])
		if err != nil || len(out) != zaCount {
			t.Fatalf("len=%d err=%v", len(out), err)
		}
	})
	assertZeroAllocs(t, "Single QueryAggregate", func() {
		agg, err := db.QueryAggregate(ctx, p)
		if err != nil || agg.Count != zaCount {
			t.Fatalf("count=%d err=%v", agg.Count, err)
		}
	})
}

func TestConvergedQueryZeroAllocsShared(t *testing.T) {
	db := convergedDB(t, crackdb.Shared)
	ctx := context.Background()
	p := crackdb.Range(zaLo, zaHi)
	buf := make([]int64, 0, zaCount)
	assertZeroAllocs(t, "Shared QueryAppend", func() {
		out, err := db.QueryAppend(ctx, p, buf[:0])
		if err != nil || len(out) != zaCount {
			t.Fatalf("len=%d err=%v", len(out), err)
		}
	})
	assertZeroAllocs(t, "Shared QueryAggregate", func() {
		agg, err := db.QueryAggregate(ctx, p)
		if err != nil || agg.Count != zaCount {
			t.Fatalf("count=%d err=%v", agg.Count, err)
		}
	})
}

// TestMergingQueryZeroAllocsShared: a Shared-mode QueryAppend that merges
// one pending insert and one pending delete allocates nothing once the
// column holds slack — the merge moves tuples within the column, and the
// queues and the merge batch reuse their memory.
func TestMergingQueryZeroAllocsShared(t *testing.T) {
	db := convergedDB(t, crackdb.Shared)
	ctx := context.Background()
	p := crackdb.Range(zaLo, zaHi)
	buf := make([]int64, 0, 2*zaCount)
	// Each run inserts a second copy of one value and deletes one copy of
	// another, then swaps the two: the column returns to the permutation
	// every other run.
	x, y := zaLo+3, zaLo+5
	merge := func() {
		if err := db.Insert(x); err != nil {
			t.Fatal(err)
		}
		if err := db.Delete(y); err != nil {
			t.Fatal(err)
		}
		out, err := db.QueryAppend(ctx, p, buf[:0])
		if err != nil || len(out) != zaCount || db.PendingUpdates() != 0 {
			t.Fatalf("len=%d pending=%d err=%v", len(out), db.PendingUpdates(), err)
		}
		x, y = y, x
	}
	for i := 0; i < 4; i++ {
		merge() // spreads the slack, grows the queues and the merge batch
	}
	assertZeroAllocs(t, "Shared merging QueryAppend", merge)
}

// queryBatchZeroAllocs asserts a converged batch of single-range
// predicates runs allocation-free through a warmed BatchBuffer.
func queryBatchZeroAllocs(t *testing.T, name string, db *crackdb.DB) {
	ctx := context.Background()
	ps := []crackdb.Predicate{
		crackdb.Range(zaLo, zaLo+128),
		crackdb.Range(zaLo+128, zaLo+256),
		crackdb.Range(zaLo+256, zaHi),
	}
	// Converge every batch bound first, then warm the buffer.
	for _, p := range ps {
		if _, err := db.Query(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	var bb crackdb.BatchBuffer
	if _, err := db.QueryBatchAppend(ctx, ps, &bb); err != nil {
		t.Fatal(err)
	}
	assertZeroAllocs(t, name+" QueryBatchAppend", func() {
		out, err := db.QueryBatchAppend(ctx, ps, &bb)
		if err != nil || len(out) != len(ps) {
			t.Fatalf("len=%d err=%v", len(out), err)
		}
		if len(out[0]) != 128 || len(out[1]) != 128 || len(out[2]) != zaCount-256 {
			t.Fatalf("lens=%d,%d,%d", len(out[0]), len(out[1]), len(out[2]))
		}
	})
}

func TestConvergedQueryBatchZeroAllocsSingle(t *testing.T) {
	queryBatchZeroAllocs(t, "Single", convergedDB(t, crackdb.Single))
}

func TestConvergedQueryBatchZeroAllocsShared(t *testing.T) {
	queryBatchZeroAllocs(t, "Shared", convergedDB(t, crackdb.Shared))
}

// TestConvergedTableZeroAllocs: a table column is the same backend as a
// single-column DB, so its converged Append forms and aggregates allocate
// nothing either.
func TestConvergedTableZeroAllocs(t *testing.T) {
	ctx := context.Background()
	p := crackdb.Range(zaLo, zaHi)
	for _, mode := range []crackdb.Concurrency{crackdb.Single, crackdb.Shared} {
		db := convergedTable(t, mode)
		name := mode.String() + " table"
		buf := make([]int64, 0, zaCount)
		assertZeroAllocs(t, name+" QueryAppend", func() {
			out, err := db.QueryAppend(ctx, p, buf[:0])
			if err != nil || len(out) != zaCount {
				t.Fatalf("len=%d err=%v", len(out), err)
			}
		})
		assertZeroAllocs(t, name+" QueryAggregate", func() {
			agg, err := db.QueryAggregate(ctx, p)
			if err != nil || agg.Count != zaCount {
				t.Fatalf("count=%d err=%v", agg.Count, err)
			}
		})
		queryBatchZeroAllocs(t, name, db)
	}
}

// TestConvergedShardedQueryAppendZeroAllocs: a range inside one shard is
// that shard's executor query, so a converged one allocates nothing.
func TestConvergedShardedQueryAppendZeroAllocs(t *testing.T) {
	db := convergedDB(t, crackdb.Sharded(2))
	ctx := context.Background()
	p := crackdb.Range(zaLo, zaHi) // the lower quarter: inside shard 0
	buf := make([]int64, 0, zaCount)
	assertZeroAllocs(t, "Sharded(2) single-shard QueryAppend", func() {
		out, err := db.QueryAppend(ctx, p, buf[:0])
		if err != nil || len(out) != zaCount {
			t.Fatalf("len=%d err=%v", len(out), err)
		}
	})
}

// TestQueryAppendMatchesQuery pins the Append forms to the canonical
// Query across modes, including multi-range predicates, on a workload
// that mixes converged and reorganizing queries.
func TestQueryAppendMatchesQuery(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []crackdb.Concurrency{crackdb.Single, crackdb.Shared, crackdb.Sharded(4)} {
		db, err := crackdb.Open(zeroAllocValues(zaN), crackdb.DD1R, crackdb.WithConcurrency(mode))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := crackdb.Open(zeroAllocValues(zaN), crackdb.DD1R, crackdb.WithConcurrency(mode))
		if err != nil {
			t.Fatal(err)
		}
		preds := []crackdb.Predicate{
			crackdb.Range(10, 500),
			crackdb.Range(100, 200).Or(crackdb.Range(1000, 1100)),
			crackdb.Range(10, 500), // now converged
			crackdb.Range(zaN/2, zaN/2+3000),
		}
		var buf []int64
		for i, p := range preds {
			buf, err = db.QueryAppend(ctx, p, buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			res, err := ref.Query(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(buf) != res.Count() {
				t.Fatalf("%s pred %d: append len %d, query count %d", mode, i, len(buf), res.Count())
			}
			var sum int64
			for _, v := range buf {
				sum += v
			}
			if sum != res.Sum() {
				t.Fatalf("%s pred %d: append sum %d, query sum %d", mode, i, sum, res.Sum())
			}
		}
	}
}

// TestQueryBatchAppendMatchesQueryBatch pins QueryBatchAppend's answers,
// not only its allocations: the same predicate batches run through
// QueryBatchAppend (one BatchBuffer reused across batches of decreasing
// size) and QueryBatch, on column and table DBs in every mode, and every
// answer must equal the closed form for a permutation of [0, n) — the
// values the predicate matches, in any order.
func TestQueryBatchAppendMatchesQueryBatch(t *testing.T) {
	ctx := context.Background()
	const n = 1 << 14
	batches := func(col string) [][]crackdb.Predicate {
		on := func(p crackdb.Predicate) crackdb.Predicate { return p.On(col) }
		return [][]crackdb.Predicate{
			{
				on(crackdb.Range(10, 500)),
				on(crackdb.Range(n/8, 7*n/8)), // crosses every shard bound
				on(crackdb.Range(100, 200).Or(crackdb.Range(n/2, n/2+300))),
				on(crackdb.Range(700, 700)), // empty
				on(crackdb.GreaterEq(n - 50)),
				on(crackdb.Range(10, 500)), // converged by now
			},
			{
				on(crackdb.Range(n/3, 2*n/3)),
				on(crackdb.Less(40).Or(crackdb.Range(n/4, n/4+10)).Or(crackdb.Greater(n - 5))),
				on(crackdb.Eq(n / 2)),
			},
			{on(crackdb.Range(250, 260))},
		}
	}
	// want is the closed form: the values of [0, n) p matches, sorted.
	want := func(p crackdb.Predicate) []int64 {
		var out []int64
		for v := int64(0); v < n; v++ {
			if p.Matches(v) {
				out = append(out, v)
			}
		}
		return out
	}
	check := func(name string, i, j int, p crackdb.Predicate, got []int64) {
		t.Helper()
		got = slices.Sorted(slices.Values(got))
		if w := want(p); !slices.Equal(got, w) {
			t.Fatalf("%s batch %d predicate %d (%s): %d values, want %d (first diff %v)",
				name, i, j, p, len(got), len(w), firstDiff(got, w))
		}
	}
	for _, mode := range []crackdb.Concurrency{crackdb.Single, crackdb.Shared, crackdb.Sharded(3)} {
		col, err := crackdb.Open(zeroAllocValues(n), crackdb.DD1R, crackdb.WithConcurrency(mode))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := crackdb.OpenTable(map[string][]int64{
			"a": zeroAllocValues(n),
			"b": crackdb.MakeData(n, 3),
		}, crackdb.DD1R, crackdb.WithConcurrency(mode))
		if err != nil {
			t.Fatal(err)
		}
		tblBatches := batches("a")
		// A batch spanning both table columns takes the fallback path.
		tblBatches = append(tblBatches, []crackdb.Predicate{
			crackdb.Range(30, 90).On("b"), crackdb.Range(30, 90).On("a"),
		})
		for _, tc := range []struct {
			name    string
			db      *crackdb.DB
			batches [][]crackdb.Predicate
		}{
			{"column/" + mode.String(), col, batches("")},
			{"table/" + mode.String(), tbl, tblBatches},
		} {
			var bb crackdb.BatchBuffer
			for i, ps := range tc.batches {
				appended, err := tc.db.QueryBatchAppend(ctx, ps, &bb)
				if err != nil || len(appended) != len(ps) {
					t.Fatalf("%s batch %d: QueryBatchAppend len=%d err=%v", tc.name, i, len(appended), err)
				}
				for j, p := range ps {
					check(tc.name+" QueryBatchAppend", i, j, p, appended[j])
				}
				results, err := tc.db.QueryBatch(ctx, ps)
				if err != nil || len(results) != len(ps) {
					t.Fatalf("%s batch %d: QueryBatch len=%d err=%v", tc.name, i, len(results), err)
				}
				for j, p := range ps {
					check(tc.name+" QueryBatch", i, j, p, results[j].Owned())
				}
			}
		}
	}
}
