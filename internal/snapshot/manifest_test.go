package snapshot

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dberr"
	"repro/internal/xrand"
)

// shardedManifest builds a realistic multi-part manifest: a permutation
// of [0, n) value-range partitioned into k parts, each cracked by a batch
// of queries (some crossing part bounds, so clamping is exercised).
func shardedManifest(t testing.TB, n int64, k int, rowIDs bool) Manifest {
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
	m := Manifest{}
	lo := int64(math.MinInt64)
	rng := xrand.New(3)
	for i, b := range buckets {
		hi := int64(math.MaxInt64)
		if i < len(bounds) {
			hi = bounds[i]
		}
		ix := core.NewCrack(b, core.Options{Seed: 2, TrackRowIDs: rowIDs})
		for q := 0; q < 30; q++ {
			// Query bounds over the whole domain: many land outside this
			// part's range, leaving the edge cracks ClampedPart must drop.
			a := rng.Int63n(n - 10)
			ix.Query(a, a+10)
		}
		m.Parts = append(m.Parts, ClampedPart(lo, hi, ix.Engine().Snapshot()))
		lo = hi
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("built manifest invalid: %v", err)
	}
	return m
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
	for _, rowIDs := range []bool{false, true} {
		m := shardedManifest(t, 6000, 4, rowIDs)
		var buf bytes.Buffer
		if err := WriteManifest(&buf, m); err != nil {
			t.Fatal(err)
		}
		got, err := ReadManifest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Parts) != len(m.Parts) {
			t.Fatalf("round trip %d parts, want %d", len(got.Parts), len(m.Parts))
		}
		for i := range m.Parts {
			w, g := m.Parts[i], got.Parts[i]
			if g.Lo != w.Lo || g.Hi != w.Hi {
				t.Fatalf("part %d bounds [%d,%d), want [%d,%d)", i, g.Lo, g.Hi, w.Lo, w.Hi)
			}
			if !slices.Equal(g.State.Values, w.State.Values) || !slices.Equal(g.State.Cracks, w.State.Cracks) {
				t.Fatalf("part %d state mismatch", i)
			}
			if rowIDs && !slices.Equal(g.State.RowIDs, w.State.RowIDs) {
				t.Fatalf("part %d row ids mismatch", i)
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("round-tripped manifest invalid: %v", err)
		}
	}
}

func TestMergedTurnsBoundsIntoCracks(t *testing.T) {
	const n = 6000
	m := shardedManifest(t, n, 4, false)
	st, err := m.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatalf("merged state invalid: %v", err)
	}
	if len(st.Values) != n {
		t.Fatalf("merged %d values, want %d", len(st.Values), n)
	}
	// Every part crack survives, plus one crack per interior boundary.
	want := len(m.Parts) - 1
	for _, p := range m.Parts {
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
	for _, p := range m.Parts[1:] {
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
	src := shardedManifest(t, n, 3, false)
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
		if out.Pieces() < srcPieces-2*len(src.Parts) {
			t.Fatalf("k=%d: pieces %d < source %d; refinement lost", k, out.Pieces(), srcPieces)
		}
		// The value multiset per range is intact (spot-check ranges).
		for _, r := range [][2]int64{{0, 100}, {1990, 2010}, {n - 100, n}} {
			got := 0
			for _, p := range out.Parts {
				got += countInRange(p.State, r[0], r[1])
			}
			if got != int(r[1]-r[0]) {
				t.Fatalf("k=%d: range [%d,%d) has %d values", k, r[0], r[1], got)
			}
		}
	}
}

func TestReshardAtExistingBoundsKeepsParts(t *testing.T) {
	src := shardedManifest(t, 4000, 4, true) // row ids survive same-bound cuts
	bounds := make([]int64, 0, 3)
	for _, p := range src.Parts[1:] {
		bounds = append(bounds, p.Lo)
	}
	out, err := src.Reshard(bounds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src.Parts {
		w, g := src.Parts[i], out.Parts[i]
		if !slices.Equal(g.State.Values, w.State.Values) ||
			!slices.Equal(g.State.Cracks, w.State.Cracks) ||
			!slices.Equal(g.State.RowIDs, w.State.RowIDs) {
			t.Fatalf("part %d changed under an identity re-cut", i)
		}
	}
}

func TestMergeRefusesShardLocalRowIDs(t *testing.T) {
	src := shardedManifest(t, 2000, 2, true)
	if _, err := src.Merged(); !errors.Is(err, dberr.ErrSnapshotUnsupported) {
		t.Fatalf("merging row-id shards: err = %v", err)
	}
	if _, err := src.Reshard([]int64{123}); !errors.Is(err, dberr.ErrSnapshotUnsupported) {
		t.Fatalf("resharding row-id shards across bounds: err = %v", err)
	}
}

func TestManifestValidateRejects(t *testing.T) {
	good := shardedManifest(t, 2000, 2, false)
	check := func(name string, mutate func(m *Manifest)) {
		t.Helper()
		m := Manifest{Parts: make([]Part, len(good.Parts))}
		copy(m.Parts, good.Parts)
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Fatalf("%s: accepted", name)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, dberr.ErrSnapshotCorrupt) {
			// Per-part state errors come from core and are acceptable too;
			// manifest-level ones must carry the sentinel.
			t.Logf("%s: non-sentinel error %v", name, err)
		}
	}
	check("empty", func(m *Manifest) { m.Parts = nil })
	check("gap between parts", func(m *Manifest) { m.Parts[1].Lo++ })
	check("floor not MinInt64", func(m *Manifest) { m.Parts[0].Lo = 0 })
	check("ceiling not MaxInt64", func(m *Manifest) { m.Parts[1].Hi = 5000 })
	check("value outside part range", func(m *Manifest) {
		st := m.Parts[0].State
		st.Values = append([]int64(nil), st.Values...)
		st.Values[0] = m.Parts[0].Hi + 10
		m.Parts[0] = Part{Lo: m.Parts[0].Lo, Hi: m.Parts[0].Hi, State: st}
	})
	check("crack key outside part range", func(m *Manifest) {
		st := m.Parts[0].State
		st.Cracks = append([]core.CrackEntry(nil), st.Cracks...)
		st.Cracks[len(st.Cracks)-1] = core.CrackEntry{Key: m.Parts[0].Hi + 1, Pos: len(st.Values)}
		m.Parts[0] = Part{Lo: m.Parts[0].Lo, Hi: m.Parts[0].Hi, State: st}
	})
}

func TestManifestStreamCorruption(t *testing.T) {
	m := shardedManifest(t, 1500, 3, false)
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
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
	m := shardedManifest(t, 8000, 2, false)
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
		for i, p := range out.Parts {
			if len(p.State.Values) > 3*8000/k+1 {
				t.Fatalf("k=%d: shard %d holds %d of 8000 tuples", k, i, len(p.State.Values))
			}
		}
	}
}
