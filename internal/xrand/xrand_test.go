package xrand

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collide on %d of 1000 draws", same)
	}
}

func TestSeedReset(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after re-seed, draw %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(-1) did not panic")
		}
	}()
	New(1).Int63n(-1)
}

func TestInt63NonNegative(t *testing.T) {
	r := New(99)
	for i := 0; i < 10000; i++ {
		if r.Int63() < 0 {
			t.Fatal("Int63 returned negative value")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestBoolRoughlyBalanced(t *testing.T) {
	r := New(11)
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if trues < n*45/100 || trues > n*55/100 {
		t.Fatalf("Bool heavily biased: %d/%d true", trues, n)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int64(n) || seen[v] {
				t.Fatalf("Perm(%d) is not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	f := func(vals []int64, seed uint64) bool {
		orig := make(map[int64]int)
		for _, v := range vals {
			orig[v]++
		}
		cp := append([]int64(nil), vals...)
		New(seed).Shuffle(cp)
		got := make(map[int64]int)
		for _, v := range cp {
			got[v]++
		}
		if len(orig) != len(got) {
			return false
		}
		for k, c := range orig {
			if got[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fisherYates is the textbook shuffle Shuffle must reproduce bit for bit:
// the dataset MakeData builds, and every cluster node's slice of it, is
// defined by this loop.
func fisherYates(r *Rand, p []int64) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// TestShuffleMatchesFisherYates checks the batched Shuffle against the
// textbook loop on every length up to a few batches, on every length a
// batch boundary away from a multiple of the batch, and on 20 seeds: the
// same permutation, and the stream left in the same state.
func TestShuffleMatchesFisherYates(t *testing.T) {
	var sizes []int
	for n := 0; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for k := 5; 64*k+1 <= 10_000; k++ {
		sizes = append(sizes, 64*k-1, 64*k, 64*k+1)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, n := range sizes {
			want, got := make([]int64, n), make([]int64, n)
			for i := range want {
				want[i], got[i] = int64(i), int64(i)
			}
			ref, r := New(seed), New(seed)
			fisherYates(ref, want)
			r.Shuffle(got)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, n %d: Shuffle differs from Fisher-Yates", seed, n)
			}
			if r.Uint64() != ref.Uint64() {
				t.Fatalf("seed %d, n %d: Shuffle consumed a different share of the stream", seed, n)
			}
		}
	}
}

func TestUniformityChiSquared(t *testing.T) {
	// Coarse uniformity check: 16 buckets over many draws. The chi-squared
	// statistic for 15 degrees of freedom should comfortably sit below 40
	// (p ≈ 0.0005) for a healthy generator.
	r := New(2024)
	const buckets = 16
	const draws = 160000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	if chi > 40 {
		t.Fatalf("chi-squared = %.1f, distribution looks non-uniform: %v", chi, counts)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000000)
	}
	_ = sink
}

func BenchmarkShuffle(b *testing.B) {
	p := New(1).Perm(1 << 22)
	r := New(2)
	for i := 0; i < b.N; i++ {
		r.Shuffle(p)
	}
}
