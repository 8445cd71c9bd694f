package exec

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// TestParallelMaterializeRaceStress hammers the parallel materialization
// path: wide converged queries whose contiguous middle exceeds the
// parallel-copy threshold, so every answer fans its bulk copy out to the
// worker pool — from many goroutines at once, while narrow converged
// queries and reorganizing queries interleave. Run under -race this
// checks the chunk-claiming copy never races with concurrent readers or
// with the executor's locking.
func TestParallelMaterializeRaceStress(t *testing.T) {
	const (
		n       = 1 << 21
		wideLo  = int64(n / 4)
		wideHi  = int64(3 * n / 4)
		wideLen = int(wideHi - wideLo)
		workers = 8
		iters   = 12
	)
	x := New(updatable(core.NewCrack(xrand.New(3).Perm(n), core.Options{Seed: 4})))
	if out := values(x, wideLo, wideHi); len(out) != wideLen { // converge the wide bounds
		t.Fatalf("warmup got %d values, want %d", len(out), wideLen)
	}
	// The closed-form sum of [wideLo, wideHi) over a permutation of [0, n).
	wantSum := (wideLo + wideHi - 1) * int64(wideLen) / 2

	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(100 + w))
			buf := make([]int64, 0, wideLen)
			for i := 0; i < iters; i++ {
				var err error
				buf, err = x.QueryAppendCtx(ctx, wideLo, wideHi, buf[:0])
				if err != nil || len(buf) != wideLen {
					t.Errorf("worker %d: wide len=%d err=%v", w, len(buf), err)
					return
				}
				var sum int64
				for _, v := range buf {
					sum += v
				}
				if sum != wantSum {
					t.Errorf("worker %d: wide sum=%d want %d", w, sum, wantSum)
					return
				}
				// Interleave narrow queries: converged reads and the
				// occasional reorganizing crack elsewhere in the column.
				a := rng.Int63n(n / 8)
				if out, err := x.QueryAppendCtx(ctx, a, a+32, nil); err != nil || len(out) != 32 {
					t.Errorf("worker %d: narrow len=%d err=%v", w, len(out), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestParallelCrackRaceStress hammers the parallel cracking path: the
// engine routes every crack of a piece >= ParallelCrackMin through the
// chunked kernel, which fans per-chunk partitions and merge swaps out to
// the worker pool while the executor holds the write lock. Many
// goroutines issue fresh (never-seen) bounds so nearly every query
// reorganizes, interleaved with converged re-reads that take the read
// path concurrently. Run under -race this checks the claim-loop
// synchronization: pool workers must be fully drained (not merely
// scheduled) before the crack returns and the write lock is released.
func TestParallelCrackRaceStress(t *testing.T) {
	const (
		n       = 1 << 20
		workers = 8
		iters   = 24
	)
	x := New(updatable(core.NewDD1R(xrand.New(5).Perm(n), core.Options{
		Seed:             6,
		ParallelCrackMin: 1 << 14,
		CoarseInitPieces: 4,
	})))

	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(500 + w))
			for i := 0; i < iters; i++ {
				a := rng.Int63n(n - 1024)
				b := a + 1 + rng.Int63n(1024)
				out, err := x.QueryAppendCtx(ctx, a, b, nil)
				if err != nil {
					t.Errorf("worker %d: err=%v", w, err)
					return
				}
				if int64(len(out)) != b-a {
					t.Errorf("worker %d: [%d,%d) len=%d want %d", w, a, b, len(out), b-a)
					return
				}
				for _, v := range out {
					if v < a || v >= b {
						t.Errorf("worker %d: value %d outside [%d,%d)", w, v, a, b)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSharedReadsBesideMergesRaceStress runs two readers on the shared
// read path beside one writer whose merges create and consume holes. The
// readers replay converged ranges of the lower half of the domain, whose
// answers never change; the writer inserts and deletes values of the upper
// half through ApplyOps and merges them with covering reads, checked
// against its multiset model. Spreading the slack moves every piece, the
// readers' included, so under -race this checks that hole-aware reads only
// ever see the column between merges.
func TestSharedReadsBesideMergesRaceStress(t *testing.T) {
	const (
		n      = 1 << 16
		half   = n / 2
		width  = 200
		ranges = 64
		writes = 300
	)
	u := updatable(core.NewDD1R(xrand.New(7).Perm(n), core.Options{Seed: 8}))
	x := New(u)
	ctx := context.Background()
	rng := xrand.New(9)
	los := make([]int64, ranges)
	for i := range los {
		los[i] = rng.Int63n(half - width)
		if out, err := x.QueryAppendCtx(ctx, los[i], los[i]+width, nil); err != nil || len(out) != width {
			t.Fatalf("warm-up [%d, +%d): len=%d err=%v", los[i], width, len(out), err)
		}
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]int64, 0, width)
			for i := 0; !done.Load(); i++ {
				lo := los[(i*7+r)%ranges]
				var err error
				buf, err = x.QueryAppendCtx(ctx, lo, lo+width, buf[:0])
				var sum int64
				for _, v := range buf {
					sum += v
				}
				if err != nil || len(buf) != width || sum != (2*lo+width-1)*width/2 {
					t.Errorf("reader %d: [%d, +%d): len=%d sum=%d err=%v", r, lo, width, len(buf), sum, err)
					return
				}
			}
		}(r)
	}

	model := make(map[int64]int)
	for v := int64(half); v < n; v++ {
		model[v] = 1
	}
	wrng := xrand.New(10)
	gone := wrng.Perm(half)
	for i := 0; i < writes && !t.Failed(); i++ {
		ins, del := half+wrng.Int63n(half), half+gone[i]
		if _, _, err := x.ApplyOps([]Op{{Value: ins}, {Value: del, Delete: true}}); err != nil {
			t.Fatal(err)
		}
		model[ins]++
		model[del]--
		for _, v := range []int64{ins, del} {
			out, err := x.QueryAppendCtx(ctx, v, v+1, nil)
			if err != nil || len(out) != model[v] {
				t.Fatalf("writer: [%d, %d) after write %d: %d values, model says %d (err %v)", v, v+1, i, len(out), model[v], err)
			}
		}
	}
	done.Store(true)
	wg.Wait()
	if _, excl := x.PathStats(); excl < 2*writes {
		t.Fatalf("only %d exclusive-path queries; the writer's reads did not merge", excl)
	}
	if e := u.Engine(); e.CrackerIndex().Holes() == 0 {
		t.Fatal("the merges left no holes; the readers never read across one")
	}
}
