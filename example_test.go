package crackdb_test

import (
	"context"
	"fmt"

	crackdb "repro"
)

// Opening a database and querying it: there is no build step; the column
// adapts as queries arrive. Concurrency is a construction option, not a
// different API.
func ExampleOpen() {
	data := crackdb.MakeData(1000, 42) // shuffled [0, 1000)
	db, err := crackdb.Open(data, crackdb.DD1R, crackdb.WithSeed(7))
	if err != nil {
		panic(err)
	}
	res, err := db.Query(context.Background(), crackdb.Range(100, 110))
	if err != nil {
		panic(err)
	}
	fmt.Println("rows:", res.Count(), "sum:", res.Sum())
	// Output:
	// rows: 10 sum: 1045
}

// The same handle, code and predicates serve concurrent traffic when the
// DB is opened with a concurrency mode; results are then owned slices,
// safe to retain.
func ExampleWithConcurrency() {
	db, err := crackdb.Open(crackdb.MakeData(1000, 42), crackdb.DD1R,
		crackdb.WithSeed(7), crackdb.WithConcurrency(crackdb.Sharded(4)))
	if err != nil {
		panic(err)
	}
	agg, err := db.QueryAggregate(context.Background(), crackdb.LessEq(99))
	if err != nil {
		panic(err)
	}
	fmt.Println("mode:", db.Mode(), "count:", agg.Count, "sum:", agg.Sum)
	// Output:
	// mode: sharded-4 count: 100 sum: 4950
}

// SQL-shaped predicates normalize onto the engine's half-open ranges and
// compose with And/Or; disjoint unions become multi-range predicates,
// answered as a batch under the hood.
func ExamplePredicate() {
	q1 := crackdb.Greater(10).And(crackdb.Less(14))
	fmt.Println(q1)
	lo, hi := q1.Bounds()
	fmt.Println(lo, hi)
	fmt.Println(crackdb.Eq(3).Or(crackdb.Between(7, 9)))
	// Output:
	// 11 <= v < 14
	// 11 14
	// 3 <= v < 4 OR 7 <= v < 10
}

// Results can be iterated, counted, summed, or copied out; Single-mode
// results are zero-copy views valid until the next query on the handle.
func ExampleDB_Query() {
	db, _ := crackdb.Open([]int64{13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6}, crackdb.Crack)
	// The paper's Fig. 1 Q1: 10 < A < 14 over ints.
	res, _ := db.Query(context.Background(), crackdb.Greater(10).And(crackdb.Less(14)))
	vals := res.Owned()
	sum := int64(0)
	for _, v := range vals {
		sum += v
	}
	fmt.Println("qualifying:", res.Count(), "sum:", sum)
	// Output:
	// qualifying: 3 sum: 36
}

// Updates queue as pending and merge into the column exactly when a query
// touches their range (Ripple merge) — in every concurrency mode.
func ExampleDB_Insert() {
	ctx := context.Background()
	db, _ := crackdb.Open(crackdb.MakeData(1000, 1), crackdb.Crack)
	db.Query(ctx, crackdb.Range(0, 500)) // establish some cracks
	_ = db.Insert(250)
	fmt.Println("pending before:", db.PendingUpdates())
	res, _ := db.Query(ctx, crackdb.Range(240, 260))
	fmt.Println("pending after:", db.PendingUpdates(), "rows:", res.Count())
	// Output:
	// pending before: 1
	// pending after: 0 rows: 21
}

// Multi-column tables crack per attribute; predicates scope to a column
// with On.
func ExampleOpenTable() {
	a := []int64{5, 3, 1, 4, 2, 0}
	b := []int64{50, 30, 10, 40, 20, 0}
	db, _ := crackdb.OpenTable(map[string][]int64{"a": a, "b": b}, crackdb.Crack)
	agg, _ := db.QueryAggregate(context.Background(), crackdb.Range(20, 50).On("b"))
	fmt.Println("matching b values:", agg.Count, "sum:", agg.Sum)
	// Output:
	// matching b values: 3 sum: 90
}

// Workload generators reproduce the paper's query patterns (Fig. 7).
func ExampleNewWorkload() {
	gen, _ := crackdb.NewWorkload("sequential", crackdb.WorkloadParams{N: 1000, Q: 10, S: 10, Seed: 1})
	for i := 0; i < 3; i++ {
		lo, hi := gen.Next()
		fmt.Println(lo, hi)
	}
	// Output:
	// 0 10
	// 99 109
	// 198 208
}

// Latency-sensitive callers reuse a buffer across queries: QueryAppend
// appends into caller-owned memory, and once the query's bounds are
// converged cracks, the whole path runs without heap allocations.
func ExampleDB_QueryAppend() {
	db, err := crackdb.Open(crackdb.MakeData(1000, 42), crackdb.DD1R, crackdb.WithSeed(7))
	if err != nil {
		panic(err)
	}
	buf := make([]int64, 0, 64)
	for _, p := range []crackdb.Predicate{crackdb.Range(100, 110), crackdb.Range(500, 520)} {
		buf = buf[:0] // reuse the same backing array every query
		buf, err = db.QueryAppend(context.Background(), p, buf)
		if err != nil {
			panic(err)
		}
		fmt.Println(p, "->", len(buf), "rows")
	}
	// Output:
	// 100 <= v < 110 -> 10 rows
	// 500 <= v < 520 -> 20 rows
}

// A whole batch materializes into one reusable BatchBuffer arena: each
// result is a subslice of the arena, valid until the buffer's next use.
// With a warmed buffer, a converged batch runs allocation-free.
func ExampleDB_QueryBatchAppend() {
	db, err := crackdb.Open(crackdb.MakeData(1000, 42), crackdb.DD1R, crackdb.WithSeed(7))
	if err != nil {
		panic(err)
	}
	ps := []crackdb.Predicate{
		crackdb.Range(0, 5),
		crackdb.Between(990, 999),
	}
	var bb crackdb.BatchBuffer // zero value is ready; reuse it across batches
	for round := 0; round < 2; round++ {
		results, err := db.QueryBatchAppend(context.Background(), ps, &bb)
		if err != nil {
			panic(err)
		}
		fmt.Print("round ", round)
		for i, vals := range results {
			fmt.Print(" q", i, "=", len(vals), " rows")
		}
		fmt.Println()
	}
	// Output:
	// round 0 q0=5 rows q1=10 rows
	// round 1 q0=5 rows q1=10 rows
}

// BatchBuffer owns every reusable piece of a batched query: the range
// scratch, the per-result offsets and the value arena. Retaining a
// result past the buffer's next use requires copying it out.
func ExampleBatchBuffer() {
	db, err := crackdb.Open(crackdb.MakeData(1000, 42), crackdb.DD1R, crackdb.WithSeed(7))
	if err != nil {
		panic(err)
	}
	var bb crackdb.BatchBuffer
	results, err := db.QueryBatchAppend(context.Background(),
		[]crackdb.Predicate{crackdb.Range(10, 20)}, &bb)
	if err != nil {
		panic(err)
	}
	kept := append([]int64(nil), results[0]...) // copy: results alias bb's arena
	_, err = db.QueryBatchAppend(context.Background(),
		[]crackdb.Predicate{crackdb.Range(700, 800)}, &bb) // invalidates results
	if err != nil {
		panic(err)
	}
	fmt.Println("kept", len(kept), "rows safely")
	// Output:
	// kept 10 rows safely
}
