package crackdb_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	crackdb "repro"
)

// TestSynchronizedHybridFallback: a Shared DB has no probe-less
// fallback left. The partition/merge hybrids, which had no convergence
// probe and serialized every query, are refused at open. Every served
// spec answers queries, batches and aggregates correctly through the
// executor's lock paths, and a cracking spec answers a repeated query
// under the shared read lock.
func TestSynchronizedHybridFallback(t *testing.T) {
	const n = 30_000
	ctx := context.Background()
	shared := crackdb.WithConcurrency(crackdb.Shared)
	for _, spec := range []string{"aics", "aicc1r"} {
		if _, err := crackdb.Open(crackdb.MakeData(n, 17), spec, shared); !errors.Is(err, crackdb.ErrUnknownAlgorithm) {
			t.Fatalf("%s: Shared open err = %v, want ErrUnknownAlgorithm", spec, err)
		}
	}
	var want int64
	for v := int64(2000); v < 2100; v++ {
		want += v
	}
	for _, spec := range crackdb.Algorithms() {
		db, err := crackdb.Open(crackdb.MakeData(n, 17), spec, crackdb.WithSeed(18), shared)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for range 2 {
			if got, err := db.Query(ctx, crackdb.Range(1000, 1500)); err != nil || got.Count() != 500 {
				t.Fatalf("%s: count = %d (err %v)", spec, got.Count(), err)
			}
			agg, err := db.QueryAggregate(ctx, crackdb.Range(2000, 2100))
			if err != nil || agg.Count != 100 || agg.Sum != want {
				t.Fatalf("%s: aggregate (%d, %d), want (100, %d) (err %v)", spec, agg.Count, agg.Sum, want, err)
			}
		}
		out, err := db.QueryBatch(ctx, []crackdb.Predicate{crackdb.Range(5000, 5100), crackdb.Range(10, 20)})
		if err != nil || out[0].Count() != 100 || out[1].Count() != 10 {
			t.Fatalf("%s: batch %v (err %v)", spec, out, err)
		}
		// Two queries, two aggregates and a two-predicate batch.
		reads, writes := db.PathStats()
		if reads+writes != 6 || writes == 0 {
			t.Fatalf("%s: reads=%d writes=%d; every query must pass the executor", spec, reads, writes)
		}
		if spec == crackdb.Crack && reads == 0 {
			t.Fatalf("%s: reads=%d; a repeated query must take the read path", spec, reads)
		}
	}
}

// TestSynchronizedPendingUpdates covers the update-carrying branch:
// updates queued on a Single-mode handle and carried into a Shared one
// through a snapshot, and updates queued on the Shared handle itself,
// must all be visible to its queries.
func TestSynchronizedPendingUpdates(t *testing.T) {
	const n = 10_000
	ctx := context.Background()
	single, err := crackdb.Open(crackdb.MakeData(n, 19), crackdb.DD1R, crackdb.WithSeed(20))
	if err != nil {
		t.Fatal(err)
	}
	// Queue updates while still unsynchronized: a duplicate 500 and the
	// removal of 600.
	if err := single.Insert(500); err != nil {
		t.Fatal(err)
	}
	if err := single.Delete(600); err != nil {
		t.Fatal(err)
	}
	snap, err := single.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	db, err := crackdb.OpenSnapshot(snap, crackdb.DD1R, crackdb.WithSeed(20),
		crackdb.WithConcurrency(crackdb.Shared))
	if err != nil {
		t.Fatal(err)
	}
	count := func(v int64) int {
		res, err := db.Query(ctx, crackdb.Eq(v))
		if err != nil {
			t.Fatal(err)
		}
		return res.Count()
	}
	if got := count(500); got != 2 {
		t.Fatalf("pending insert not visible: %d values of 500", got)
	}
	if got := count(600); got != 0 {
		t.Fatalf("pending delete not applied: %d values of 600", got)
	}
	// Updates through the concurrent handle.
	if err := db.Insert(700); err != nil {
		t.Fatal(err)
	}
	if got := count(700); got != 2 {
		t.Fatalf("wrapper insert not visible: %d values of 700", got)
	}
	if err := db.Delete(700); err != nil {
		t.Fatal(err)
	}
	if got := count(700); got != 1 {
		t.Fatalf("wrapper delete not applied: %d values of 700", got)
	}
}

// TestSynchronizedRaceStress drives concurrent Query/QueryBatch/Insert/
// Delete through a Shared DB; with -race it checks the whole
// facade-to-executor stack for data races.
func TestSynchronizedRaceStress(t *testing.T) {
	const n = 20_000
	ctx := context.Background()
	db, err := crackdb.Open(crackdb.MakeData(n, 21), crackdb.Crack, crackdb.WithSeed(22),
		crackdb.WithConcurrency(crackdb.Shared))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				a := int64((g*1103 + i*97) % (n - 200))
				switch i % 3 {
				case 0:
					if got, err := db.Query(ctx, crackdb.Range(a, a+100)); err != nil || got.Count() != 100 {
						errs <- "bad count"
						return
					}
				case 1:
					out, err := db.QueryBatch(ctx, []crackdb.Predicate{crackdb.Range(a, a+10), crackdb.Range(a+50, a+60)})
					if err != nil || out[0].Count() != 10 || out[1].Count() != 10 {
						errs <- "bad batch"
						return
					}
				default:
					// Balanced churn outside the queried domain.
					v := int64(n + 100 + g)
					if err := db.Insert(v); err != nil {
						errs <- err.Error()
						return
					}
					if err := db.Delete(v); err != nil {
						errs <- err.Error()
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
