package column

import (
	"encoding/binary"
	"testing"
)

// decodeVals turns fuzz bytes into a value slice (8 bytes per value).
func decodeVals(data []byte) []int64 {
	n := len(data) / 8
	if n > 4096 {
		n = 4096
	}
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		vals[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return vals
}

// FuzzCrackInTwo drives the partition primitive with arbitrary data and
// pivots, asserting the crack invariant, multiset preservation, and that
// the layout is the scalar reference's slot for slot (so the AVX-512 path,
// where the CPU has one, writes the scalar loop's permutation).
func FuzzCrackInTwo(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0}, int64(5))
	f.Add([]byte{}, int64(0))
	// 64 values alternating runs of lows and highs: long enough for
	// several vector blocks after the scalar warm-up.
	seed := make([]byte, 8*64)
	for i := 0; i < 64; i++ {
		binary.LittleEndian.PutUint64(seed[8*i:], uint64(i*37%64))
	}
	f.Add(seed, int64(20))
	f.Add(seed, int64(60))
	f.Fuzz(func(t *testing.T, data []byte, pivot int64) {
		vals := decodeVals(data)
		before := multiset(vals, 0, len(vals))
		c := New(append([]int64(nil), vals...))
		p := c.CrackInTwo(0, len(vals), pivot)
		if p < 0 || p > len(vals) {
			t.Fatalf("split %d out of range", p)
		}
		for i := 0; i < p; i++ {
			if c.Values[i] >= pivot {
				t.Fatal("left side violates crack")
			}
		}
		for i := p; i < len(vals); i++ {
			if c.Values[i] < pivot {
				t.Fatal("right side violates crack")
			}
		}
		if !sameMultiset(before, multiset(c.Values, 0, len(vals))) {
			t.Fatal("multiset changed")
		}
		ref := append([]int64(nil), vals...)
		wp, ws := crackInTwoScalar(ref, pivot)
		if p != wp || c.Stats.Swaps != ws {
			t.Fatalf("(split, swaps) = (%d, %d), scalar (%d, %d)", p, c.Stats.Swaps, wp, ws)
		}
		for i := range ref {
			if c.Values[i] != ref[i] {
				t.Fatalf("slot %d holds %d, scalar %d", i, c.Values[i], ref[i])
			}
		}
	})
}

// FuzzParallelCrack drives the chunked parallel partition against the
// serial kernel with arbitrary data, pivots and chunk sizes, asserting
// the serial-equivalence contract: identical split position, identical
// per-side multisets. The seed corpus covers the merge phase's hard
// shapes: already-partitioned input (no misplaced runs), inverted input
// (everything misplaced), all-equal-to-pivot, and runs that straddle
// chunk boundaries.
func FuzzParallelCrack(f *testing.F) {
	le := func(vals ...int64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
		}
		return b
	}
	f.Add(le(1, 2, 3, 7, 8, 9), int64(5), uint16(2))       // already partitioned
	f.Add(le(9, 8, 7, 3, 2, 1), int64(5), uint16(2))       // fully inverted
	f.Add(le(4, 4, 4, 4, 4), int64(4), uint16(1))          // all equal to pivot
	f.Add(le(5, 0, 5, 0, 5, 0, 5, 0), int64(3), uint16(3)) // runs straddle chunks
	f.Add(le(), int64(0), uint16(1))                       // empty
	f.Add(le(1), int64(9), uint16(7))                      // single tuple
	f.Fuzz(func(t *testing.T, data []byte, pivot int64, chunkRaw uint16) {
		vals := decodeVals(data)
		chunk := 1 + int(chunkRaw)%512
		serial := append([]int64(nil), vals...)
		wantP, _ := crackInTwoVals(serial, pivot)
		par := append([]int64(nil), vals...)
		gotP, _ := parallelPartitionChunked(par, pivot, chunk)
		if gotP != wantP {
			t.Fatalf("split %d, serial %d (chunk %d)", gotP, wantP, chunk)
		}
		for i, x := range par {
			if (i < gotP) != (x < pivot) {
				t.Fatalf("value %d at %d violates partition on pivot %d (split %d)", x, i, pivot, gotP)
			}
		}
		if !sameMultiset(multiset(serial, 0, wantP), multiset(par, 0, gotP)) {
			t.Fatal("left-side multiset differs from serial")
		}
		if !sameMultiset(multiset(serial, wantP, len(serial)), multiset(par, gotP, len(par))) {
			t.Fatal("right-side multiset differs from serial")
		}
	})
}

// FuzzCrackInThree mirrors FuzzCrackInTwo for the dual-pivot pass.
func FuzzCrackInThree(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0}, int64(2), int64(6))
	f.Fuzz(func(t *testing.T, data []byte, a, b int64) {
		if a > b {
			a, b = b, a
		}
		vals := decodeVals(data)
		before := multiset(vals, 0, len(vals))
		c := New(append([]int64(nil), vals...))
		p1, p2 := c.CrackInThree(0, len(vals), a, b)
		if p1 < 0 || p2 < p1 || p2 > len(vals) {
			t.Fatalf("splits (%d,%d) invalid", p1, p2)
		}
		for i := 0; i < p1; i++ {
			if c.Values[i] >= a {
				t.Fatal("first region violates < a")
			}
		}
		for i := p1; i < p2; i++ {
			if c.Values[i] < a || c.Values[i] >= b {
				t.Fatal("middle region violates [a,b)")
			}
		}
		for i := p2; i < len(vals); i++ {
			if c.Values[i] < b {
				t.Fatal("last region violates >= b")
			}
		}
		if !sameMultiset(before, multiset(c.Values, 0, len(vals))) {
			t.Fatal("multiset changed")
		}
	})
}

// FuzzSplitAndMaterialize asserts the fused MDD1R primitive collects
// exactly the qualifying values while maintaining the partition.
func FuzzSplitAndMaterialize(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0}, int64(3), int64(1), int64(8))
	f.Fuzz(func(t *testing.T, data []byte, pivot, a, b int64) {
		if a > b {
			a, b = b, a
		}
		vals := decodeVals(data)
		want := 0
		for _, v := range vals {
			if a <= v && v < b {
				want++
			}
		}
		c := New(append([]int64(nil), vals...))
		out, p := c.SplitAndMaterialize(0, len(vals), pivot, a, b, nil)
		if len(out) != want {
			t.Fatalf("materialized %d, want %d", len(out), want)
		}
		for i := 0; i < p; i++ {
			if c.Values[i] >= pivot {
				t.Fatal("left side violates crack")
			}
		}
		for i := p; i < len(vals); i++ {
			if c.Values[i] < pivot {
				t.Fatal("right side violates crack")
			}
		}
	})
}
