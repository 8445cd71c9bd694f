package exec

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// mutexIndex reproduces the deleted core.Concurrent baseline: one
// mutual-exclusion lock around every query, the paper's conservative
// reading of cracking's reader/writer economics. The benchmarks quantify
// what the adaptive executor buys over it on a converged workload.
type mutexIndex struct {
	mu    sync.Mutex
	inner core.Index
}

func (m *mutexIndex) Query(a, b int64) []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	res := m.inner.Query(a, b)
	return res.Materialize(make([]int64, 0, res.Count()))
}

const (
	benchN      = 1 << 20
	benchRanges = 1024
	benchWidth  = 64
)

func benchRangeSet() []Range {
	rng := xrand.New(99)
	ranges := make([]Range, benchRanges)
	for i := range ranges {
		a := rng.Int63n(benchN - benchWidth)
		ranges[i] = Range{a, a + benchWidth}
	}
	return ranges
}

// converge runs every benchmark range once so its bounds become exact
// cracks; afterwards the workload is pure reads.
func converge(q func(a, b int64) []int64, ranges []Range) {
	for _, r := range ranges {
		q(r.Lo, r.Hi)
	}
}

// BenchmarkExecConvergedParallel measures the adaptive executor on a
// converged workload: every query hits the shared read path and runs in
// parallel, answering into a fresh slice like the mutex baseline. Compare
// with BenchmarkMutexConvergedParallel — the acceptance bar for this layer
// is >2x throughput at GOMAXPROCS >= 4.
func BenchmarkExecConvergedParallel(b *testing.B) {
	x := New(core.NewCrack(xrand.New(97).Perm(benchN), core.Options{Seed: 98}))
	ranges := benchRangeSet()
	ctx := context.Background()
	converge(func(lo, hi int64) []int64 { return values(x, lo, hi) }, ranges)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r := ranges[i%benchRanges]
			if got, err := x.QueryAppendCtx(ctx, r.Lo, r.Hi, nil); err != nil || len(got) != benchWidth {
				b.Fatal("bad count")
			}
			i++
		}
	})
}

// BenchmarkMutexConvergedParallel is the old core.Concurrent path on the
// identical workload: converged or not, every query serializes behind one
// mutex.
func BenchmarkMutexConvergedParallel(b *testing.B) {
	m := &mutexIndex{inner: core.NewCrack(xrand.New(97).Perm(benchN), core.Options{Seed: 98})}
	ranges := benchRangeSet()
	converge(m.Query, ranges)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r := ranges[i%benchRanges]
			if got := m.Query(r.Lo, r.Hi); len(got) != benchWidth {
				b.Fatal("bad count")
			}
			i++
		}
	})
}

// BenchmarkExecBatchConverged measures the batched API: one shared lock
// acquisition answers the whole converged range set into a fresh
// BatchBuffer, the shape DB.QueryBatch uses.
func BenchmarkExecBatchConverged(b *testing.B) {
	x := New(core.NewCrack(xrand.New(97).Perm(benchN), core.Options{Seed: 98}))
	ranges := benchRangeSet()
	ctx := context.Background()
	converge(func(lo, hi int64) []int64 { return values(x, lo, hi) }, ranges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := x.QueryBatchInto(ctx, ranges, new(BatchBuffer))
		if err != nil || len(out) != benchRanges {
			b.Fatal("bad batch")
		}
	}
}

// BenchmarkShardedConvergedParallel is the sharded index on the same
// converged workload: narrow queries run inline on their one shard, under
// that shard's read lock.
func BenchmarkShardedConvergedParallel(b *testing.B) {
	s, err := NewSharded(xrand.New(97).Perm(benchN), "crack", 8, core.Options{Seed: 98})
	if err != nil {
		b.Fatal(err)
	}
	ranges := benchRangeSet()
	ctx := context.Background()
	converge(func(lo, hi int64) []int64 { return values(s, lo, hi) }, ranges)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r := ranges[i%benchRanges]
			if got, err := s.QueryCtx(ctx, r.Lo, r.Hi); err != nil || len(got) != benchWidth {
				b.Fatal("bad count")
			}
			i++
		}
	})
}
