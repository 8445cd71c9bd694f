package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/updates"
	"repro/internal/xrand"
)

// convergedRanges returns count ranges of width inside [0, limit), each
// already answered once by ix, so that every bound is an exact crack.
func convergedRanges(ix core.Index, seed uint64, count int, width, limit int64) []Range {
	rng := xrand.New(seed)
	ranges := make([]Range, count)
	for i := range ranges {
		a := rng.Int63n(limit - width)
		ranges[i] = Range{a, a + width}
		ix.Query(a, a+width)
	}
	return ranges
}

// readAll issues one converged read of each kind — QueryAppendCtx,
// QueryAggregateCtx and a four-range QueryBatchInto — over ranges starting
// at i, checks every answer against the permutation oracle and returns how
// many queries it issued.
func readAll(t *testing.T, x *Executor, ranges []Range, i int, buf []int64, bb *BatchBuffer) ([]int64, int64) {
	ctx := context.Background()
	r := ranges[i%len(ranges)]
	buf, err := x.QueryAppendCtx(ctx, r.Lo, r.Hi, buf[:0])
	var sum int64
	for _, v := range buf {
		sum += v
	}
	if err != nil || int64(len(buf)) != r.Hi-r.Lo || sum != rangeSum(r.Lo, r.Hi) {
		t.Errorf("QueryAppendCtx [%d, %d): len=%d sum=%d err=%v", r.Lo, r.Hi, len(buf), sum, err)
	}
	if c, s, err := x.QueryAggregateCtx(ctx, r.Lo, r.Hi); err != nil || int64(c) != r.Hi-r.Lo || s != rangeSum(r.Lo, r.Hi) {
		t.Errorf("QueryAggregateCtx [%d, %d): count=%d sum=%d err=%v", r.Lo, r.Hi, c, s, err)
	}
	j := i % (len(ranges) - 4)
	batch := ranges[j : j+4]
	out, err := x.QueryBatchInto(ctx, batch, bb)
	if err != nil {
		t.Errorf("QueryBatchInto: %v", err)
	}
	for k, vals := range out {
		if int64(len(vals)) != batch[k].Hi-batch[k].Lo {
			t.Errorf("QueryBatchInto range %v: %d values", batch[k], len(vals))
		}
	}
	return buf, 2 + int64(len(batch))
}

// TestPathStatsCountsEveryRead checks that the per-stripe read counters
// add up to exactly the converged reads issued, whichever stripes the
// readers got. GOMAXPROCS 4 gives more stripes than a two-core runner has
// cores.
func TestPathStatsCountsEveryRead(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		n       = 1 << 14
		workers = 8
		iters   = 200
	)
	ix := core.NewCrack(xrand.New(60).Perm(n), core.Options{Seed: 61})
	ranges := convergedRanges(ix, 62, 64, 32, n)
	x := New(ix)
	if len(x.mu.stripes) != 4 {
		t.Fatalf("%d stripes, want GOMAXPROCS = 4", len(x.mu.stripes))
	}
	var issued atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []int64
			var bb BatchBuffer
			for i := 0; i < iters; i++ {
				var k int64
				buf, k = readAll(t, x, ranges, 7*i+w, buf, &bb)
				issued.Add(k)
			}
		}(w)
	}
	wg.Wait()
	reads, writes := x.PathStats()
	if reads != issued.Load() || writes != 0 {
		t.Fatalf("PathStats = (%d reads, %d writes), want (%d, 0)", reads, writes, issued.Load())
	}
	if q, want := x.Stats().Queries, int64(len(ranges))+issued.Load(); q != want {
		t.Fatalf("Stats().Queries = %d, want %d (warm-up plus reads)", q, want)
	}
}

// inFlightIndex wraps the updates wrapper so that every read-only answer
// counts itself in flight, and every entry point the executor calls only
// under its write lock records whether it saw a reader in flight.
type inFlightIndex struct {
	*updates.Index
	inFlight atomic.Int64
	overlaps atomic.Int64 // exclusive sections that saw a reader
}

func (f *inFlightIndex) TryAnswerReadOnly(a, b int64, dst []int64) ([]int64, bool) {
	f.inFlight.Add(1)
	defer f.inFlight.Add(-1)
	return f.Index.TryAnswerReadOnly(a, b, dst)
}

func (f *inFlightIndex) TryAnswerReadOnlyAggregate(a, b int64) (int, int64, bool) {
	f.inFlight.Add(1)
	defer f.inFlight.Add(-1)
	return f.Index.TryAnswerReadOnlyAggregate(a, b)
}

// exclusive checks for readers twice, yielding in between so that a
// reader the lock failed to exclude gets the chance to start.
func (f *inFlightIndex) exclusive() {
	before := f.inFlight.Load()
	runtime.Gosched()
	if before != 0 || f.inFlight.Load() != 0 {
		f.overlaps.Add(1)
	}
}

func (f *inFlightIndex) Query(a, b int64) core.Result { f.exclusive(); return f.Index.Query(a, b) }
func (f *inFlightIndex) Insert(v int64)               { f.exclusive(); f.Index.Insert(v) }
func (f *inFlightIndex) Delete(v int64)               { f.exclusive(); f.Index.Delete(v) }

// TestWriterExcludesEveryStripe runs converged readers of every kind on
// every stripe beside a writer that inserts, deletes, merges with covering
// queries and drains with Exclusive. No exclusive section may see a reader
// in flight, and every answer must match the model: the readers' lower
// half of the domain never changes, and the writer keeps a multiset of
// the upper half.
func TestWriterExcludesEveryStripe(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		n       = 1 << 15
		half    = n / 2
		readers = 8
		writes  = 200
	)
	ix := core.NewCrack(xrand.New(70).Perm(n), core.Options{Seed: 71})
	ranges := convergedRanges(ix, 72, 64, 48, half)
	u, ok := updates.Wrap(ix)
	if !ok {
		t.Fatal("Wrap rejected crack")
	}
	f := &inFlightIndex{Index: u}
	x := New(f)

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []int64
			var bb BatchBuffer
			for i := 0; !done.Load(); i++ {
				buf, _ = readAll(t, x, ranges, 5*i+r, buf, &bb)
			}
		}(r)
	}
	stop := func() {
		done.Store(true)
		wg.Wait()
	}
	defer stop()

	model := make(map[int64]int, half)
	var modelSum int64
	for v := int64(half); v < n; v++ {
		model[v] = 1
		modelSum += v
	}
	// drain runs an exclusive section that checks for readers in flight.
	// Its two collections also empty the pool, so the readers' next Gets
	// take stripes round robin from pool.New.
	drain := func() {
		x.Exclusive(func(Index) {
			f.exclusive()
			runtime.GC()
			runtime.GC()
		})
	}
	ctx := context.Background()
	rng := xrand.New(73)
	gone := rng.Perm(half)
	for i := 0; i < writes && !t.Failed(); i++ {
		ins, del := half+rng.Int63n(half), half+gone[i]
		if err := x.Insert(ins); err != nil {
			t.Fatal(err)
		}
		if err := x.Delete(del); err != nil {
			t.Fatal(err)
		}
		model[ins]++
		model[del]--
		modelSum += ins - del
		for _, v := range []int64{ins, del} {
			if c, _, err := x.QueryAggregateCtx(ctx, v, v+1); err != nil || c != model[v] {
				t.Fatalf("[%d, %d) after write %d: %d values, model says %d (err %v)", v, v+1, i, c, model[v], err)
			}
		}
		if i%10 == 0 {
			drain()
			if c, s, err := x.QueryAggregateCtx(ctx, half, n+half); err != nil || c != half || s != modelSum {
				t.Fatalf("upper half after write %d: (%d, %d), model says (%d, %d) (err %v)", i, c, s, half, modelSum, err)
			}
		}
	}
	for round := 0; !everyStripeRead(x); round++ {
		if round == 100 {
			t.Fatal("100 drains and some stripe still served no reads")
		}
		drain()
		for r := x.mu.reads(); x.mu.reads() < r+64; {
			runtime.Gosched()
		}
	}
	stop()
	if k := f.overlaps.Load(); k != 0 {
		t.Fatalf("%d exclusive sections ran beside a reader", k)
	}
}

func everyStripeRead(x *Executor) bool {
	for i := range x.mu.stripes {
		if x.mu.stripes[i].reads.Load() == 0 {
			return false
		}
	}
	return true
}
