package crackdb_test

import (
	"context"
	"sync"
	"testing"
	"time"

	crackdb "repro"
)

// TestTableGroupCommit guards the table write path under group commit:
// a Shared (and Sharded) table opened with WithGroupCommit must batch
// concurrent column-scoped writes through the per-column collectors,
// report flush activity in GroupCommitStats, mark timings as Grouped,
// and — the part that matters — still answer every query exactly.
func TestTableGroupCommit(t *testing.T) {
	const n = 8192
	for _, mode := range []struct {
		name string
		conc crackdb.Concurrency
	}{
		{"shared", crackdb.Shared},
		{"sharded-2", crackdb.Sharded(2)},
	} {
		t.Run(mode.name, func(t *testing.T) {
			db, err := crackdb.OpenTable(map[string][]int64{
				"a": crackdb.MakeData(n, 5),
				"b": crackdb.MakeData(n, 6),
			}, crackdb.DD1R, crackdb.WithSeed(7), crackdb.WithConcurrency(mode.conc),
				crackdb.WithGroupCommit(32, 2*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			// 8 writers × 50 inserts, alternating target columns; values
			// land above the initial [0, n) permutation so the expected
			// multiset stays closed-form. One writer also exercises the
			// batch path with mixed inserts and a delete of a base value
			// (deletes apply first, so a same-batch insert survives).
			const writers, perWriter = 8, 50
			ctx := context.Background()
			var wg sync.WaitGroup
			var grouped sync.Once
			sawGrouped := false
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						v := int64(n + w*perWriter + i)
						col := "a"
						if (w+i)%2 == 1 {
							col = "b"
						}
						if i == 0 && w == 0 {
							tm, err := db.ApplyBatchOn(ctx, col, []int64{v, v + 100_000}, []int64{3})
							if err != nil {
								t.Error(err)
								return
							}
							if tm.Grouped {
								grouped.Do(func() { sawGrouped = true })
							}
							continue
						}
						if err := db.InsertOn(col, v); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if !sawGrouped {
				t.Error("ApplyBatchOn timings not marked Grouped under WithGroupCommit")
			}
			st, ok := db.GroupCommitStats()
			if !ok {
				t.Fatal("GroupCommitStats: ok=false on a group-commit table")
			}
			if st.Flushes == 0 || st.Ops < writers*perWriter {
				t.Fatalf("batcher stats %+v: want flushes > 0 and ops >= %d", st, writers*perWriter)
			}

			// Exactness after the batched writes: each column holds its
			// permutation of [0, n) plus the inserts routed to it. Count the
			// routed values per column and compare against full-range
			// aggregates (the query merges all pending updates).
			wantA, wantB := 0, 0
			sumA, sumB := int64(0), int64(0)
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i++ {
					v := int64(n + w*perWriter + i)
					if (w+i)%2 == 1 {
						wantB++
						sumB += v
					} else {
						wantA++
						sumA += v
					}
				}
			}
			// Writer 0's first op was the batch on column a: one extra
			// insert (v+100_000) and one delete of base value 3.
			wantA += 1 - 1
			sumA += int64(n) + 100_000 - 3
			base := int64(n) * (n - 1) / 2
			for _, c := range []struct {
				col  string
				want int
				sum  int64
			}{{"a", n + wantA, base + sumA}, {"b", n + wantB, base + sumB}} {
				agg, err := db.QueryAggregate(ctx, crackdb.Range(0, 1<<40).On(c.col))
				if err != nil {
					t.Fatal(err)
				}
				if agg.Count != c.want || agg.Sum != c.sum {
					t.Fatalf("column %s: count %d sum %d, want %d/%d",
						c.col, agg.Count, agg.Sum, c.want, c.sum)
				}
			}
			if db.PendingUpdates() != 0 {
				t.Fatalf("%d updates pending after covering queries", db.PendingUpdates())
			}
		})
	}
}

// TestGroupCommitStatsResolveDefaults: WithGroupCommit(0, 0) selects the
// batcher defaults, and a freshly opened table DB reports them before any
// column is built, exactly as a column DB opened with the same options.
func TestGroupCommitStatsResolveDefaults(t *testing.T) {
	for _, conc := range []crackdb.Concurrency{crackdb.Shared, crackdb.Sharded(2)} {
		for _, gc := range []struct {
			size int
			wait time.Duration
		}{{0, 0}, {32, 2 * time.Millisecond}} {
			opts := []crackdb.Option{crackdb.WithConcurrency(conc), crackdb.WithGroupCommit(gc.size, gc.wait)}
			col, err := crackdb.Open(crackdb.MakeData(100, 1), crackdb.DD1R, opts...)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := crackdb.OpenTable(map[string][]int64{
				"a": crackdb.MakeData(100, 1),
				"b": crackdb.MakeData(100, 2),
			}, crackdb.DD1R, opts...)
			if err != nil {
				t.Fatal(err)
			}
			cs, cok := col.GroupCommitStats()
			ts, tok := tbl.GroupCommitStats()
			if !cok || !tok {
				t.Fatalf("%s %v: GroupCommitStats ok = %v (column), %v (table)", conc, gc, cok, tok)
			}
			if cs.BatchSize <= 0 || cs.MaxWait <= 0 {
				t.Fatalf("%s %v: column reports unresolved tunables %d, %v", conc, gc, cs.BatchSize, cs.MaxWait)
			}
			if ts.BatchSize != cs.BatchSize || ts.MaxWait != cs.MaxWait {
				t.Fatalf("%s %v: table reports %d, %v; column DB %d, %v",
					conc, gc, ts.BatchSize, ts.MaxWait, cs.BatchSize, cs.MaxWait)
			}
			col.Close()
			tbl.Close()
		}
	}
}
