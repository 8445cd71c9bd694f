package snapshot

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// shardedParts builds a realistic multi-part column: a permutation of
// [0, n) value-range partitioned into k parts, each cracked by a batch of
// queries (some crossing part bounds, so clamping is exercised).
func shardedParts(t testing.TB, n int64, k int) Parts {
	t.Helper()
	vals := xrand.New(1).Perm(int(n))
	bounds := make([]int64, 0, k-1)
	for i := 1; i < k; i++ {
		bounds = append(bounds, int64(i)*n/int64(k))
	}
	buckets := make([][]int64, k)
	for _, v := range vals {
		b := 0
		for b < len(bounds) && v >= bounds[b] {
			b++
		}
		buckets[b] = append(buckets[b], v)
	}
	var m Parts
	lo := int64(math.MinInt64)
	rng := xrand.New(3)
	for i, b := range buckets {
		hi := int64(math.MaxInt64)
		if i < len(bounds) {
			hi = bounds[i]
		}
		ix := core.NewCrack(b, core.Options{Seed: 2})
		for q := 0; q < 30; q++ {
			// Query bounds over the whole domain: many land outside this
			// part's range, leaving the edge cracks ClampedPart must drop.
			a := rng.Int63n(n - 10)
			ix.Query(a, a+10)
		}
		m = append(m, ClampedPart(lo, hi, ix.Engine().Snapshot()))
		lo = hi
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("built parts invalid: %v", err)
	}
	return m
}

// unnamed wraps one part list as a single-column manifest.
func unnamed(ps Parts) Manifest {
	return Manifest{Columns: []TableColumn{{Parts: ps}}}
}

// countInRange is the closed-form oracle for permutation data: how many
// of 0..n-1 fall in [lo, hi).
func countInRange(st core.SnapshotState, lo, hi int64) int {
	c := 0
	for _, v := range st.Values {
		if v >= lo && v < hi {
			c++
		}
	}
	return c
}

func TestManifestRoundTrip(t *testing.T) {
	m := shardedParts(t, 6000, 4)
	got := roundTrip(t, unnamed(m))
	if len(got.Columns) != 1 || got.Columns[0].Name != "" || !sameParts(got.Columns[0].Parts, m) {
		t.Fatalf("round trip changed the manifest: %d columns", len(got.Columns))
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped manifest invalid: %v", err)
	}
}

func TestMergedTurnsBoundsIntoCracks(t *testing.T) {
	const n = 6000
	m := shardedParts(t, n, 4)
	st := m.Merged()
	if err := st.Validate(); err != nil {
		t.Fatalf("merged state invalid: %v", err)
	}
	if len(st.Values) != n {
		t.Fatalf("merged %d values, want %d", len(st.Values), n)
	}
	// Every part crack survives, plus one crack per interior boundary.
	want := len(m) - 1
	for _, p := range m {
		want += len(p.State.Cracks)
	}
	if len(st.Cracks) != want {
		t.Fatalf("merged has %d cracks, want %d", len(st.Cracks), want)
	}
	// The old shard bounds are cracks now.
	keys := make(map[int64]bool, len(st.Cracks))
	for _, c := range st.Cracks {
		keys[c.Key] = true
	}
	for _, p := range m[1:] {
		if !keys[p.Lo] {
			t.Fatalf("shard bound %d did not become a crack", p.Lo)
		}
	}
	// And the merged state restores into a working index.
	ix, err := core.Restore(st, "crack", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Query(100, 300).Count(); got != 200 {
		t.Fatalf("restored merged count = %d, want 200", got)
	}
}

func TestReshardPreservesStateAcrossCuts(t *testing.T) {
	const n = 6000
	src := shardedParts(t, n, 3)
	srcPieces := src.Pieces()
	for _, k := range []int{1, 2, 3, 5, 8} {
		out, err := src.Reshard(src.SplitBounds(k, 7))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("k=%d: resharded manifest invalid: %v", k, err)
		}
		if out.Rows() != n {
			t.Fatalf("k=%d: %d rows, want %d", k, out.Rows(), n)
		}
		// Refinement is never lost: boundary cuts only split pieces (or
		// reuse existing cracks), so the piece count cannot shrink below
		// the source's (modulo the zero-size edge pieces clamping drops).
		if out.Pieces() < srcPieces-2*len(src) {
			t.Fatalf("k=%d: pieces %d < source %d; refinement lost", k, out.Pieces(), srcPieces)
		}
		// The value multiset per range is intact (spot-check ranges).
		for _, r := range [][2]int64{{0, 100}, {1990, 2010}, {n - 100, n}} {
			got := 0
			for _, p := range out {
				got += countInRange(p.State, r[0], r[1])
			}
			if got != int(r[1]-r[0]) {
				t.Fatalf("k=%d: range [%d,%d) has %d values", k, r[0], r[1], got)
			}
		}
	}
}

func TestReshardAtExistingBoundsKeepsParts(t *testing.T) {
	src := shardedParts(t, 4000, 4)
	bounds := make([]int64, 0, 3)
	for _, p := range src[1:] {
		bounds = append(bounds, p.Lo)
	}
	out, err := src.Reshard(bounds)
	if err != nil {
		t.Fatal(err)
	}
	if !sameParts(out, src) {
		t.Fatal("parts changed under an identity re-cut")
	}
}

func TestManifestValidateRejects(t *testing.T) {
	good := shardedParts(t, 2000, 2)
	check := func(name string, mutate func(m Parts) Parts) {
		t.Helper()
		m := unnamed(mutate(slices.Clone(good)))
		if err := m.Validate(); err == nil {
			t.Fatalf("%s: accepted", name)
		} else if !errors.Is(err, ErrCorrupt) {
			// Per-part state errors come from core and are acceptable too;
			// manifest-level ones must carry the sentinel.
			t.Logf("%s: non-sentinel error %v", name, err)
		}
	}
	check("empty", func(Parts) Parts { return nil })
	check("gap between parts", func(m Parts) Parts { m[1].Lo++; return m })
	check("floor not MinInt64", func(m Parts) Parts { m[0].Lo = 0; return m })
	check("ceiling not MaxInt64", func(m Parts) Parts { m[1].Hi = 5000; return m })
	check("value outside part range", func(m Parts) Parts {
		st := m[0].State
		st.Values = append([]int64(nil), st.Values...)
		st.Values[0] = m[0].Hi + 10
		m[0].State = st
		return m
	})
	check("crack key outside part range", func(m Parts) Parts {
		st := m[0].State
		st.Cracks = append([]core.CrackEntry(nil), st.Cracks...)
		st.Cracks[len(st.Cracks)-1] = core.CrackEntry{Key: m[0].Hi + 1, Pos: len(st.Values)}
		m[0].State = st
		return m
	})
}

func TestManifestStreamCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteManifest(&buf, unnamed(shardedParts(t, 1500, 3))); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bit flip anywhere: checksum catches it, sentinel reported.
	for _, at := range []int{9, len(raw) / 3, len(raw) / 2, len(raw) - 5} {
		bad := append([]byte(nil), raw...)
		bad[at] ^= 0x40
		if _, err := ReadManifest(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", at, err)
		}
	}
	// Truncation at every interesting boundary.
	for _, cut := range []int{0, 4, 8, 12, 30, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadManifest(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
	// A version bump must be rejected, not misparsed.
	bumped := append([]byte(nil), raw...)
	bumped[7] = 3
	if _, err := ReadManifest(bytes.NewReader(bumped)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version bump: err = %v, want ErrCorrupt", err)
	}
	// An absurd part count fails fast on the cap, before any allocation.
	huge := append([]byte(nil), raw[:8]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := ReadManifest(bytes.NewReader(huge)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge part count: err = %v, want ErrCorrupt", err)
	}
}

func TestSplitBoundsBalancesAndOrders(t *testing.T) {
	m := shardedParts(t, 8000, 2)
	for _, k := range []int{2, 4, 9} {
		bounds := m.SplitBounds(k, 11)
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("k=%d: bounds not ascending: %v", k, bounds)
			}
		}
		out, err := m.Reshard(bounds)
		if err != nil {
			t.Fatal(err)
		}
		// Bounds must cut into reasonably even shards (the fallback
		// sampler guarantees this even with no cracks to align to).
		for i, p := range out {
			if len(p.State.Values) > 3*8000/k+1 {
				t.Fatalf("k=%d: shard %d holds %d of 8000 tuples", k, i, len(p.State.Values))
			}
		}
	}
}
