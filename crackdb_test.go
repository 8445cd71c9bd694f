package crackdb_test

import (
	"context"
	"errors"
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

// everyMode lists the three concurrency modes every served spec runs in.
var everyMode = []struct {
	name string
	mode crackdb.Concurrency
}{{"single", crackdb.Single}, {"shared", crackdb.Shared}, {"sharded2", crackdb.Sharded(2)}}

// multiset is the oracle of a column under updates: counts[v] copies of
// each value v.
type multiset []int

func (m multiset) answer(a, b int64) (count int, sum int64) {
	for v := max(a, 0); v < min(b, int64(len(m))); v++ {
		count += m[v]
		sum += int64(m[v]) * v
	}
	return count, sum
}

// TestAllFacadeAlgorithms runs every spec Open accepts in every mode
// through values queries, aggregates, inserts and deletes and a snapshot
// round trip, checking each answer against a multiset model of the
// column.
func TestAllFacadeAlgorithms(t *testing.T) {
	const n, extra = 4000, 64
	ctx := context.Background()
	for _, spec := range crackdb.Algorithms() {
		for _, m := range everyMode {
			t.Run(spec+"/"+m.name, func(t *testing.T) {
				t.Parallel()
				opts := []crackdb.Option{crackdb.WithSeed(3), crackdb.WithConcurrency(m.mode)}
				db, err := crackdb.Open(crackdb.MakeData(n, 2), spec, opts...)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				model := make(multiset, n+extra)
				for v := range n {
					model[v] = 1
				}
				check := func(db *crackdb.DB, a, b int64) {
					t.Helper()
					wc, ws := model.answer(a, b)
					agg, err := db.QueryAggregate(ctx, crackdb.Range(a, b))
					if err != nil || agg.Count != wc || agg.Sum != ws {
						t.Fatalf("aggregate [%d, %d) = (%d, %d), want (%d, %d) (err %v)", a, b, agg.Count, agg.Sum, wc, ws, err)
					}
					res, err := db.Query(ctx, crackdb.Range(a, b))
					if err != nil || res.Count() != wc || res.Sum() != ws {
						t.Fatalf("query [%d, %d) = (%d, %d), want (%d, %d) (err %v)", a, b, res.Count(), res.Sum(), wc, ws, err)
					}
				}
				rng := crackdb.MakeData(3*n, 4) // a reproducible stream of draws
				for i := range 90 {
					a := rng[i]%(n+2*extra) - extra
					check(db, a, a+1+rng[n+i]%300)
					switch v := rng[2*n+i] % (n + extra); i % 3 {
					case 1:
						if err := db.Insert(v); err != nil {
							t.Fatal(err)
						}
						model[v]++
					case 2:
						if model[v] == 0 {
							continue
						}
						if err := db.Delete(v); err != nil {
							t.Fatal(err)
						}
						model[v]--
					}
				}
				// Updates still queued travel with the snapshot.
				for _, v := range []int64{n + 1, n + 2, 7} {
					if err := db.Insert(v); err != nil {
						t.Fatal(err)
					}
					model[v]++
				}
				snap, err := db.Snapshot()
				if err != nil || snap.Pending() == 0 {
					t.Fatalf("Snapshot: %d pending (err %v), want the queued inserts", snap.Pending(), err)
				}
				restored, err := crackdb.OpenSnapshot(snap, spec, opts...)
				if err != nil {
					t.Fatalf("OpenSnapshot: %v", err)
				}
				if restored.Name() != db.Name() {
					t.Fatalf("restored name %q, want %q", restored.Name(), db.Name())
				}
				for i := range 30 {
					a := rng[i+100]%(n+2*extra) - extra
					check(restored, a, a+1+rng[n+i+100]%300)
				}
				for _, d := range []*crackdb.DB{db, restored} {
					check(d, -1, n+extra)
					if p := d.PendingUpdates(); p != 0 {
						t.Fatalf("%d updates pending after a covering query", p)
					}
				}
			})
		}
	}
	if _, err := crackdb.Open(nil, "not-an-algorithm"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestFigureHarnessSpecsRefused: the sorted baseline and the
// partition/merge hybrids are reference curves only the figure harness
// draws. Every way to a DB refuses them, in every mode.
func TestFigureHarnessSpecsRefused(t *testing.T) {
	src, err := crackdb.Open(crackdb.MakeData(100, 1), crackdb.DD1R)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"sort", "aicc", "aics", "aicc1r", "aics1r"} {
		for _, m := range everyMode {
			opt := crackdb.WithConcurrency(m.mode)
			for name, open := range map[string]func() (*crackdb.DB, error){
				"Open": func() (*crackdb.DB, error) { return crackdb.Open(crackdb.MakeData(100, 2), spec, opt) },
				"OpenTable": func() (*crackdb.DB, error) {
					return crackdb.OpenTable(map[string][]int64{"a": crackdb.MakeData(100, 3), "b": crackdb.MakeData(100, 4)}, spec, opt)
				},
				"OpenSnapshot": func() (*crackdb.DB, error) { return crackdb.OpenSnapshot(snap, spec, opt) },
			} {
				if _, err := open(); !errors.Is(err, crackdb.ErrUnknownAlgorithm) {
					t.Errorf("%s(%q) in %s: err = %v, want ErrUnknownAlgorithm", name, spec, m.name, err)
				}
			}
		}
	}
}

func TestFacadeOptions(t *testing.T) {
	ctx := context.Background()
	db, err := crackdb.Open(crackdb.MakeData(50_000, 3), "pmdd1r-1",
		crackdb.WithSeed(11), crackdb.WithCrackSize(128),
		crackdb.WithProgressiveSize(1024))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := db.Query(ctx, crackdb.Range(10, 20)); err != nil || res.Count() != 10 {
		t.Fatalf("count = %d (err %v)", res.Count(), err)
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
}

func TestSynchronizedFacade(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []string{crackdb.MDD1R} {
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
