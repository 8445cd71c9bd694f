package crackdb_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	crackdb "repro"
)

func TestShardedFacade(t *testing.T) {
	const n = 80_000
	ctx := context.Background()
	db, err := crackdb.Open(crackdb.MakeData(n, 10), crackdb.DD1R, crackdb.WithSeed(11),
		crackdb.WithConcurrency(crackdb.Sharded(8)))
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Mode().String(); got != "sharded-8" {
		t.Fatalf("mode = %q", got)
	}
	res, err := db.Query(ctx, crackdb.Range(1000, 2000))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Owned()
	if len(got) != 1000 {
		t.Fatalf("count = %d", len(got))
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	var want int64
	for v := int64(1000); v < 2000; v++ {
		want += v
	}
	if sum != want {
		t.Fatal("wrong values")
	}
	if p, err := db.Query(ctx, crackdb.Between(10, 19)); err != nil || p.Count() != 10 {
		t.Fatalf("predicate query count = %d (err %v)", p.Count(), err)
	}
	if p, err := db.Query(ctx, crackdb.Greater(5).And(crackdb.Less(5))); err != nil || p.Count() != 0 {
		t.Fatal("empty predicate returned rows")
	}
	// Multi-range predicates answer range by range, never the envelope.
	if p, err := db.Query(ctx, crackdb.Range(10, 20).Or(crackdb.Range(40, 50))); err != nil || p.Count() != 20 {
		t.Fatalf("multi-range predicate count = %d, want 20 (err %v)", p.Count(), err)
	}
	// Cross-column compositions are rejected, never answered.
	if _, err := db.Query(ctx, crackdb.Eq(1).On("a").And(crackdb.Eq(1).On("b"))); !errors.Is(err, crackdb.ErrUnknownColumn) {
		t.Fatalf("conflicted predicate error = %v", err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				a := int64((g*997 + i*131) % (n - 100))
				if res, err := db.Query(ctx, crackdb.Range(a, a+100)); err != nil || res.Count() != 100 {
					t.Error("concurrent query wrong")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if db.Stats().Queries == 0 || db.Name() == "" {
		t.Fatal("stats/name broken")
	}
	if _, err := crackdb.Open(nil, "bogus", crackdb.WithConcurrency(crackdb.Sharded(2))); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}
