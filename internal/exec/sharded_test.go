package exec

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

func TestShardedMatchesOracle(t *testing.T) {
	const n = 50000
	vals := xrand.New(60).Perm(n)
	for _, k := range []int{1, 2, 7, 16} {
		s, err := NewSharded(append([]int64(nil), vals...), "dd1r", k, core.Options{Seed: 61})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(62)
		for i := 0; i < 200; i++ {
			a := rng.Int63n(n)
			b := a + rng.Int63n(n/4) + 1
			got := values(s, a, b)
			wantCount := 0
			var wantSum, gotSum int64
			for _, v := range vals {
				if a <= v && v < b {
					wantCount++
					wantSum += v
				}
			}
			for _, v := range got {
				gotSum += v
			}
			if len(got) != wantCount || gotSum != wantSum {
				t.Fatalf("k=%d query [%d,%d): got (%d,%d), want (%d,%d)",
					k, a, b, len(got), gotSum, wantCount, wantSum)
			}
		}
	}
}

func TestShardedQueryBatch(t *testing.T) {
	const n = 60000
	s, err := NewSharded(xrand.New(70).Perm(n), "dd1r", 8, core.Options{Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	ranges := []Range{
		{50000, 50500}, {10, 40}, {0, n}, {7, 7}, {25000, 26000}, {59990, 70000},
	}
	out := batch(s, ranges)
	for i, r := range ranges {
		lo, hi := r.Lo, r.Hi
		if hi > n {
			hi = n
		}
		want := hi - lo
		if lo >= hi {
			want = 0
		}
		var sum, wantSum int64
		for _, v := range out[i] {
			sum += v
		}
		for v := lo; v < hi; v++ {
			wantSum += v
		}
		if int64(len(out[i])) != want || sum != wantSum {
			t.Fatalf("range %d [%d,%d): got (%d,%d), want (%d,%d)",
				i, r.Lo, r.Hi, len(out[i]), sum, want, wantSum)
		}
	}
	if q := s.Stats().Queries; q != int64(len(ranges)) {
		t.Fatalf("queries = %d, want %d", q, len(ranges))
	}
}

func TestShardedConcurrentQueries(t *testing.T) {
	const n = 100000
	s, err := NewSharded(xrand.New(63).Perm(n), "mdd1r", 8, core.Options{Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(200 + g))
			for i := 0; i < 40; i++ {
				a := rng.Int63n(n - 500)
				got := values(s, a, a+500)
				if len(got) != 500 {
					errs <- "bad count"
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
	if s.Stats().Queries != 16*40 {
		t.Fatalf("queries = %d", s.Stats().Queries)
	}
}

func TestShardedBalancedShards(t *testing.T) {
	const n = 64000
	s, err := NewSharded(xrand.New(65).Perm(n), "crack", 8, core.Options{Seed: 66})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.shards) != 8 {
		t.Fatalf("shards = %d", len(s.shards))
	}
	// Each shard should hold a reasonable share: between 1/4x and 4x the
	// even split, given sampling-based bounds.
	for i := 0; i < len(s.shards); i++ {
		acc, ok := s.shards[i].ex.inner.(interface{ Engine() *core.Engine })
		if !ok {
			t.Fatal("shard not engine-backed")
		}
		size := acc.Engine().Column().Len()
		if size < n/8/4 || size > n/8*4 {
			t.Fatalf("shard %d holds %d tuples; even split is %d", i, size, n/8)
		}
	}
}

func TestShardedBoundsRespectSeed(t *testing.T) {
	// Different seeds must probe different sample offsets; on adversarial
	// striped data that yields different bounds (the old implementation
	// ignored the seed outright).
	n := 64 * 40
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	b0 := shardBounds(vals, 4, 0)
	b3 := shardBounds(vals, 4, 3)
	if len(b0) == 0 || len(b3) == 0 {
		t.Fatal("no bounds")
	}
	same := len(b0) == len(b3)
	if same {
		for i := range b0 {
			if b0[i] != b3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("seeds 0 and 3 produced identical bounds %v", b0)
	}
}

func TestShardedNarrowQueriesTouchOneShard(t *testing.T) {
	const n = 80000
	s, err := NewSharded(xrand.New(67).Perm(n), "crack", 8, core.Options{Seed: 68})
	if err != nil {
		t.Fatal(err)
	}
	// Warm every shard with one wide query.
	values(s, 0, n)
	before := s.Stats().Touched
	// A narrow query intersects one shard; the work must be bounded by
	// that shard's size, not the column's.
	values(s, 100, 110)
	if d := s.Stats().Touched - before; d > int64(n)/4 {
		t.Fatalf("narrow query touched %d tuples across shards", d)
	}
}

func TestShardedDegenerate(t *testing.T) {
	s, err := NewSharded(nil, "crack", 4, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(s, 0, 100); len(got) != 0 {
		t.Fatal("empty sharded index returned rows")
	}
	s2, err := NewSharded([]int64{5, 5, 5, 5}, "dd1r", 8, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(s2, 0, 10); len(got) != 4 {
		t.Fatalf("all-equal column: got %d rows", len(got))
	}
	if got := values(s2, 10, 0); len(got) != 0 {
		t.Fatal("inverted range returned rows")
	}
	if _, err := NewSharded([]int64{1}, "bogus", 2, core.Options{}); err == nil {
		t.Fatal("bogus spec accepted")
	}
}

// TestRestoreShardedResumesCracks rebuilds a sharded index from per-shard
// snapshots and asserts both correctness (oracle answers) and that the
// restored shards answer already-cracked ranges without rescanning.
func TestRestoreShardedResumesCracks(t *testing.T) {
	const n = 40000
	vals := xrand.New(70).Perm(n)
	src, err := NewSharded(append([]int64(nil), vals...), "crack", 4, core.Options{Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(72)
	for i := 0; i < 300; i++ {
		a := rng.Int63n(n - 50)
		values(src, a, a+50)
	}
	states := make([]core.SnapshotState, len(src.shards))
	bounds := make([]int64, 0, len(src.shards)-1)
	for i := 0; i < len(src.shards); i++ {
		lo := src.shards[i].lo
		if i > 0 {
			bounds = append(bounds, lo)
		}
		src.shards[i].ex.Exclusive(func(inner Index) {
			acc := inner.(interface{ Engine() *core.Engine })
			states[i] = acc.Engine().Snapshot()
		})
	}
	restored, err := RestoreSharded(states, bounds, "crack", core.Options{Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.shards) != 4 {
		t.Fatalf("restored %d shards, want 4", len(restored.shards))
	}
	// Same bounds as the source.
	for i := 0; i < 4; i++ {
		slo, shi := src.shards[i].lo, src.shards[i].hi
		rlo, rhi := restored.shards[i].lo, restored.shards[i].hi
		if slo != rlo || shi != rhi {
			t.Fatalf("shard %d range [%d,%d), want [%d,%d)", i, rlo, rhi, slo, shi)
		}
	}
	// Correct answers across shard boundaries.
	rng = xrand.New(74)
	for i := 0; i < 100; i++ {
		a := rng.Int63n(n)
		b := a + rng.Int63n(n/3) + 1
		got := values(restored, a, b)
		want := 0
		for _, v := range vals {
			if a <= v && v < b {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("query [%d,%d): got %d values, want %d", a, b, len(got), want)
		}
	}
	// The restored index carries the source's refinement: repeating one of
	// the warmed queries touches far fewer tuples than a cold crack would.
	before := restored.Stats().Touched
	values(restored, 100, 150)
	if d := restored.Stats().Touched - before; d > n/4 {
		t.Fatalf("restored shard rescanned %d tuples; adaptation lost", d)
	}

	// Mismatched bounds/state counts are rejected.
	if _, err := RestoreSharded(states, bounds[:1], "crack", core.Options{}); err == nil {
		t.Fatal("bounds/state mismatch accepted")
	}
	if _, err := RestoreSharded(nil, nil, "crack", core.Options{}); err == nil {
		t.Fatal("empty restore accepted")
	}
}
