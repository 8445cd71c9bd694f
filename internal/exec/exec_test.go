package exec

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/updates"
	"repro/internal/xrand"
)

// rangeSum is the permutation-data oracle: [a, b) over a shuffle of [0, n)
// holds exactly the values a..b-1.
func rangeSum(a, b int64) int64 {
	var s int64
	for v := a; v < b; v++ {
		s += v
	}
	return s
}

// updatable wraps an engine-backed core index in the pending-update
// wrapper every backend serves.
func updatable(ix core.Index) *updates.Index {
	u, ok := updates.Wrap(ix)
	if !ok {
		panic("updates.Wrap rejected " + ix.Name())
	}
	return u
}

// values answers [lo, hi) as an owned slice through b's View: the
// Executor's QueryAppendCtx, the Sharded QueryCtx fan-out. A background
// context never fails, so an error panics.
func values(b Backend, lo, hi int64) []int64 {
	res, err := b.View(context.Background(), lo, hi)
	if err != nil {
		panic(err)
	}
	return res.Owned()
}

// aggregate answers [lo, hi) through b's QueryAggregateCtx, like values.
func aggregate(b Backend, lo, hi int64) (count int, sum int64) {
	count, sum, err := b.QueryAggregateCtx(context.Background(), lo, hi)
	if err != nil {
		panic(err)
	}
	return count, sum
}

// batch answers ranges through b's QueryBatchInto into a fresh buffer,
// like values.
func batch(b Backend, ranges []Range) [][]int64 {
	out, err := b.QueryBatchInto(context.Background(), ranges, new(BatchBuffer))
	if err != nil {
		panic(err)
	}
	return out
}

func TestExecutorMatchesOracle(t *testing.T) {
	const n = 50000
	for _, spec := range []string{"crack", "dd1r", "mdd1r", "pmdd1r-10", "scan"} {
		ix, err := core.Build(xrand.New(30).Perm(n), spec, core.Options{Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		x := New(updatable(ix))
		rng := xrand.New(31)
		for i := 0; i < 300; i++ {
			a := rng.Int63n(n - 200)
			b := a + 1 + rng.Int63n(200)
			got := values(x, a, b)
			var sum int64
			for _, v := range got {
				sum += v
			}
			if int64(len(got)) != b-a || sum != rangeSum(a, b) {
				t.Fatalf("%s query [%d,%d): got (%d,%d), want (%d,%d)",
					spec, a, b, len(got), sum, b-a, rangeSum(a, b))
			}
			c, s := aggregate(x, a, b)
			if int64(c) != b-a || s != rangeSum(a, b) {
				t.Fatalf("%s aggregate [%d,%d): got (%d,%d)", spec, a, b, c, s)
			}
		}
	}
}

func TestExecutorConvergedQueriesUseReadPath(t *testing.T) {
	const n = 10000
	ix := core.NewCrack(xrand.New(7).Perm(n), core.Options{Seed: 8})
	x := New(updatable(ix))

	// First answer cracks on both bounds; the repeat finds exact cracks.
	if got := values(x, 1000, 2000); len(got) != 1000 {
		t.Fatalf("count = %d", len(got))
	}
	reads, writes := x.PathStats()
	if reads != 0 || writes != 1 {
		t.Fatalf("after cold query: reads=%d writes=%d", reads, writes)
	}
	if got := values(x, 1000, 2000); len(got) != 1000 {
		t.Fatalf("count = %d", len(got))
	}
	if c, _ := aggregate(x, 1000, 2000); c != 1000 {
		t.Fatalf("aggregate count = %d", c)
	}
	reads, writes = x.PathStats()
	if reads != 2 || writes != 1 {
		t.Fatalf("after converged repeats: reads=%d writes=%d", reads, writes)
	}
	// Queries answered read-only still show up in Stats.
	if q := x.Stats().Queries; q != 3 {
		t.Fatalf("stats queries = %d, want 3", q)
	}
}

func TestExecutorSmallPieceReadPath(t *testing.T) {
	// With NoCrackSize at the column size, every query is a converged scan:
	// nothing ever cracks, yet answers stay correct.
	const n = 512
	ix := core.NewCrack(xrand.New(9).Perm(n), core.Options{Seed: 10, NoCrackSize: n})
	x := New(updatable(ix))
	for i := 0; i < 20; i++ {
		a := int64(i * 20)
		if got := values(x, a, a+10); len(got) != 10 {
			t.Fatalf("count = %d", len(got))
		}
	}
	if _, writes := x.PathStats(); writes != 0 {
		t.Fatalf("small-piece queries took the write lock: %d", writes)
	}
	if st := x.Stats(); st.Cracks != 0 {
		t.Fatalf("read path cracked the column: %d cracks", st.Cracks)
	}
}

func TestExecutorQueryBatch(t *testing.T) {
	const n = 40000
	ix := core.NewDD1R(xrand.New(40).Perm(n), core.Options{Seed: 41})
	x := New(updatable(ix))
	// Unsorted, overlapping, and degenerate ranges; results must come back
	// in input order.
	ranges := []Range{
		{30000, 30100}, {5, 25}, {100, 100}, {20000, 21000}, {5, 25}, {39990, 40200},
	}
	out := batch(x, ranges)
	if len(out) != len(ranges) {
		t.Fatalf("len(out) = %d", len(out))
	}
	for i, r := range ranges {
		want := r.Hi - r.Lo
		if r.Lo >= r.Hi {
			want = 0
		}
		if hi := int64(n); r.Hi > hi {
			want = hi - r.Lo
		}
		var sum, wantSum int64
		for _, v := range out[i] {
			sum += v
		}
		end := r.Hi
		if end > n {
			end = n
		}
		wantSum = rangeSum(r.Lo, end)
		if int64(len(out[i])) != want || sum != wantSum {
			t.Fatalf("range %d [%d,%d): got (%d,%d), want (%d,%d)",
				i, r.Lo, r.Hi, len(out[i]), sum, want, wantSum)
		}
	}
	// A converged batch takes only the read path.
	_, writesBefore := x.PathStats()
	batch(x, ranges[:2])
	if _, writes := x.PathStats(); writes != writesBefore {
		t.Fatalf("converged batch took the write lock")
	}
}

func TestExecutorUpdatableInsert(t *testing.T) {
	const n = 1000
	ix := core.NewCrack(xrand.New(2).Perm(n), core.Options{Seed: 3})
	u, ok := updates.Wrap(ix)
	if !ok {
		t.Fatal("crack not wrappable")
	}
	x := New(u)
	values(x, 0, n) // converge the full range
	if err := x.Insert(500); err != nil {
		t.Fatal(err)
	}
	// The pending insert invalidates the read path for covering ranges...
	got := values(x, 498, 503)
	if len(got) != 6 {
		t.Fatalf("after insert: %d values, want 6 (duplicate 500)", len(got))
	}
	// ...and once merged, reads converge again.
	if got := values(x, 498, 503); len(got) != 6 {
		t.Fatalf("re-query: %d values", len(got))
	}
	if err := x.Delete(500); err != nil {
		t.Fatal(err)
	}
	if got := values(x, 498, 503); len(got) != 5 {
		t.Fatalf("after delete: %d values, want 5", len(got))
	}
}

// TestExecutorRaceStress drives concurrent Query/QueryBatch/Insert/Delete
// through one executor; run with -race it is the package's data-race
// canary. Values are inserted and deleted in balanced pairs outside the
// queried band so counts stay deterministic.
func TestExecutorRaceStress(t *testing.T) {
	const n = 30000
	ix := core.NewDD1R(xrand.New(50).Perm(n), core.Options{Seed: 51})
	u, ok := updates.Wrap(ix)
	if !ok {
		t.Fatal("dd1r not wrappable")
	}
	x := New(u)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(500 + g))
			for i := 0; i < 60; i++ {
				switch i % 3 {
				case 0:
					a := rng.Int63n(n - 300)
					if got := values(x, a, a+100); len(got) != 100 {
						errs <- "bad query count"
						return
					}
				case 1:
					a := rng.Int63n(n - 300)
					out := batch(x, []Range{{a, a + 50}, {a + 100, a + 150}})
					if len(out[0]) != 50 || len(out[1]) != 50 {
						errs <- "bad batch counts"
						return
					}
				default:
					// Churn outside [0, n): never affects the counts above.
					v := int64(n) + rng.Int63n(1000)
					if err := x.Insert(v); err != nil {
						errs <- err.Error()
						return
					}
					if err := x.Delete(v); err != nil {
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

// Ported from the old core.Concurrent test: the executor keeps the same
// goroutine-safety and accounting contract the mutex wrapper had.
func TestExecutorConcurrentQueriesRaceFree(t *testing.T) {
	const n = 50000
	inner := core.NewMDD1R(xrand.New(30).Perm(n), core.Options{Seed: 13})
	x := New(updatable(inner))

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(100 + g))
			for i := 0; i < 50; i++ {
				a := rng.Int63n(n - 200)
				b := a + 200
				count, sum := aggregate(x, a, b)
				if count != 200 || sum != rangeSum(a, b) {
					errs <- "bad aggregate"
					return
				}
				if vals := values(x, a, b); len(vals) != 200 {
					errs <- "bad materialized length"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := x.Stats().Queries; got != 8*50*2 {
		t.Fatalf("queries = %d, want %d", got, 8*50*2)
	}
	if x.Name() != "exec(updatable(mdd1r))" {
		t.Fatalf("name = %q", x.Name())
	}
}
