package crackdb_test

import (
	"context"
	"sync"
	"testing"

	crackdb "repro"
)

func TestQuickstartFlow(t *testing.T) {
	data := crackdb.MakeData(100_000, 1)
	db, err := crackdb.Open(data, crackdb.DD1R, crackdb.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), crackdb.Range(1000, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", res.Count())
	}
	var want int64
	for v := int64(1000); v < 2000; v++ {
		want += v
	}
	if res.Sum() != want {
		t.Fatalf("sum = %d, want %d", res.Sum(), want)
	}
	if db.Stats().Pieces < 2 {
		t.Fatal("query did not crack the column")
	}
	if db.Name() != "dd1r" {
		t.Fatalf("name = %q", db.Name())
	}
}

func TestAllFacadeAlgorithms(t *testing.T) {
	ctx := context.Background()
	for _, spec := range crackdb.Algorithms() {
		db, err := crackdb.Open(crackdb.MakeData(10_000, 2), spec, crackdb.WithSeed(3))
		if err != nil {
			t.Fatalf("Open(%q): %v", spec, err)
		}
		res, err := db.Query(ctx, crackdb.Range(100, 400))
		if err != nil || res.Count() != 300 {
			t.Fatalf("%s: count = %d, want 300 (err %v)", spec, res.Count(), err)
		}
	}
	if _, err := crackdb.Open(nil, "not-an-algorithm"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestFacadeOptions(t *testing.T) {
	ctx := context.Background()
	db, err := crackdb.Open(crackdb.MakeData(50_000, 3), "pmdd1r-1",
		crackdb.WithSeed(11), crackdb.WithCrackSize(128),
		crackdb.WithProgressiveSize(1024), crackdb.WithSwapBudget(5))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := db.Query(ctx, crackdb.Range(10, 20)); err != nil || res.Count() != 10 {
		t.Fatalf("count = %d (err %v)", res.Count(), err)
	}
	h, err := crackdb.Open(crackdb.MakeData(10_000, 4), crackdb.AICC1R)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := h.Query(ctx, crackdb.Range(0, 100)); err != nil || res.Count() != 100 {
		t.Fatal("hybrid failed")
	}
}

func TestFacadeUpdates(t *testing.T) {
	ctx := context.Background()
	db, err := crackdb.Open(crackdb.MakeData(10_000, 5), crackdb.Crack)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(ctx, crackdb.Range(2000, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(2500); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(2600); err != nil {
		t.Fatal(err)
	}
	if db.PendingUpdates() != 2 {
		t.Fatalf("pending = %d", db.PendingUpdates())
	}
	res, err := db.Query(ctx, crackdb.Range(2400, 2700))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 300 { // +1 insert, -1 delete
		t.Fatalf("count after updates = %d, want 300", res.Count())
	}
	if db.PendingUpdates() != 0 {
		t.Fatal("updates not merged")
	}

	srt, err := crackdb.Open(crackdb.MakeData(1000, 6), crackdb.Sort)
	if err != nil {
		t.Fatal(err)
	}
	if err := srt.Insert(5); err == nil {
		t.Fatal("sort accepted an update")
	}
	hyb, err := crackdb.Open(crackdb.MakeData(1000, 6), crackdb.AICS)
	if err != nil {
		t.Fatal(err)
	}
	if err := hyb.Insert(5); err == nil {
		t.Fatal("hybrid accepted an update")
	}
	if hyb.PendingUpdates() != 0 {
		t.Fatal("hybrid pending should be 0")
	}
}

func TestSynchronizedFacade(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []string{crackdb.MDD1R, crackdb.AICS} {
		db, err := crackdb.Open(crackdb.MakeData(50_000, 7), spec, crackdb.WithSeed(9),
			crackdb.WithConcurrency(crackdb.Shared))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		bad := make(chan int, 16)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					a := int64((g*1000 + i*37) % 49000)
					res, err := db.Query(ctx, crackdb.Range(a, a+100))
					if err != nil || res.Count() != 100 {
						bad <- res.Count()
						return
					}
					agg, err := db.QueryAggregate(ctx, crackdb.Range(a, a+100))
					if err != nil || agg.Count != 100 {
						bad <- agg.Count
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(bad)
		for b := range bad {
			t.Fatalf("%s: bad concurrent result size %d", spec, b)
		}
		if db.Stats().Queries == 0 {
			t.Fatal("no queries recorded")
		}
	}
}

func TestWorkloadFacade(t *testing.T) {
	if len(crackdb.Workloads()) != 15 {
		t.Fatalf("workloads = %d, want 15", len(crackdb.Workloads()))
	}
	g, err := crackdb.NewWorkload("sequential", crackdb.WorkloadParams{N: 10_000, Q: 100, S: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := crackdb.Open(crackdb.MakeData(10_000, 8), crackdb.PMDD1R)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		lo, hi := g.Next()
		res, err := db.Query(context.Background(), crackdb.Range(lo, hi))
		if err != nil || int64(res.Count()) != hi-lo {
			t.Fatalf("query %d [%d,%d): count %d (err %v)", i, lo, hi, res.Count(), err)
		}
	}
	if _, err := crackdb.NewWorkload("unknown", crackdb.WorkloadParams{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestStatsExposure(t *testing.T) {
	db, err := crackdb.Open(crackdb.MakeData(10_000, 9), crackdb.Crack)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(context.Background(), crackdb.Range(100, 200)); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Queries != 1 || s.Touched == 0 || s.Cracks == 0 {
		t.Fatalf("stats = %+v", s)
	}
}
