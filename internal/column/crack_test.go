package column

import (
	"slices"
	"testing"

	"repro/internal/xrand"
)

// crackInTwoScalar is crackInTwoVals with the scalar loop throughout: the
// definition the vector path must reproduce.
func crackInTwoScalar(v []int64, pivot int64) (int, int64) {
	r := 0
	for r < len(v) && v[r] < pivot {
		r++
	}
	j := lomuto(v, pivot, r, r)
	return j, int64(j - r)
}

// checkMatchesScalar cracks v[lo:hi] of one copy of v with
// crackInTwoVals and of another with the scalar reference, and fails
// unless the split, the swap count and every slot of v agree.
func checkMatchesScalar(t *testing.T, name string, v []int64, lo, hi int, pivot int64) {
	t.Helper()
	want := slices.Clone(v)
	wp, ws := crackInTwoScalar(want[lo:hi:hi], pivot)
	got := slices.Clone(v)
	gp, gs := crackInTwoVals(got[lo:hi:hi], pivot)
	if gp != wp || gs != ws {
		t.Fatalf("%s (n=%d, pivot=%d): (split, swaps) = (%d, %d), scalar (%d, %d)", name, hi-lo, pivot, gp, gs, wp, ws)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s (n=%d, pivot=%d): slot %d holds %d, scalar %d", name, hi-lo, pivot, i, got[i], want[i])
		}
	}
}

func TestCrackInTwoMatchesScalar(t *testing.T) {
	t.Logf("AVX-512 path: %v", useAVX512)
	rng := xrand.New(11)
	// data returns n values from gen.
	data := func(n int, gen func() int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = gen()
		}
		return v
	}
	var sizes []int
	for n := 0; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 4095, 4096, 4097, 65535, 65536, 65537, 3*65536+13)
	for _, n := range sizes {
		perm := rng.Perm(n)
		few := data(n, func() int64 { return int64(rng.Intn(4)) })
		for _, c := range []struct {
			name  string
			v     []int64
			pivot int64
		}{
			{"balanced", perm, int64(n / 2)},
			{"below-all", perm, -1},
			{"above-all", perm, int64(n)},
			{"1%-low", perm, int64(n / 100)},
			{"99%-low", perm, int64(n - n/100)},
			{"all-equal", data(n, func() int64 { return 7 }), 7},
			{"all-equal-low", data(n, func() int64 { return 7 }), 8},
			{"few-distinct", few, 2},
		} {
			checkMatchesScalar(t, c.name, c.v, 0, n, c.pivot)
		}
	}
	// Sub-slices at odd offsets: the kernel sees unaligned bases and must
	// write nothing outside its piece.
	base := rng.Perm(70_001)
	for _, off := range []int{1, 3, 7, 13, 4099} {
		for _, n := range []int{9, 17, 300, 4097, 65537} {
			checkMatchesScalar(t, "offset", base, off, off+n, 35_000)
		}
	}
}
