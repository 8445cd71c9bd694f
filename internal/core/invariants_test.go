package core

import (
	"testing"

	"repro/internal/xrand"
)

// engineBacked returns the engine behind an index, when exposed.
func engineBacked(ix Index) (*Engine, bool) {
	acc, ok := ix.(interface{ Engine() *Engine })
	if !ok {
		return nil, false
	}
	return acc.Engine(), true
}

// checkPhysicalInvariants verifies every promise the cracker index makes
// about the column: for each crack (v, p), all values before p are < v and
// all values from p on are >= v; positions are monotone; and the column
// still holds the original multiset.
func checkPhysicalInvariants(t *testing.T, e *Engine, original []int64) {
	t.Helper()
	col := e.Column()
	if col.Len() != len(original) {
		t.Fatalf("column length changed: %d -> %d", len(original), col.Len())
	}
	want := make(map[int64]int, len(original))
	for _, v := range original {
		want[v]++
	}
	got := make(map[int64]int, len(original))
	for _, v := range col.Values {
		got[v]++
	}
	if len(want) != len(got) {
		t.Fatal("column multiset changed")
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("value %d count %d, want %d", k, got[k], c)
		}
	}

	// Build a prefix structure once: positions of each crack, in order.
	type crack struct {
		key int64
		pos int
	}
	var cracks []crack
	prevKey := int64(-1 << 62)
	prevPos := -1
	e.CrackerIndex().Ascend(func(key int64, pos, _ int) bool {
		if key <= prevKey {
			t.Fatalf("cracker index keys out of order: %d after %d", key, prevKey)
		}
		if pos < prevPos {
			t.Fatalf("crack positions not monotone: %d (key %d) after %d", pos, key, prevPos)
		}
		if pos < 0 || pos > col.Len() {
			t.Fatalf("crack position %d out of range", pos)
		}
		prevKey, prevPos = key, pos
		cracks = append(cracks, crack{key, pos})
		return true
	})

	// Single pass: for each position, value must be >= all crack keys at
	// or before it and < all crack keys after it. Since keys and positions
	// are both monotone, it suffices to compare against the neighboring
	// cracks.
	ci := 0
	for i, v := range col.Values {
		for ci < len(cracks) && cracks[ci].pos <= i {
			ci++
		}
		// cracks[ci-1] is the last crack at or before i.
		if ci > 0 && v < cracks[ci-1].key {
			t.Fatalf("value %d at pos %d violates crack (%d,%d)", v, i, cracks[ci-1].key, cracks[ci-1].pos)
		}
		if ci < len(cracks) && v >= cracks[ci].key {
			t.Fatalf("value %d at pos %d violates upcoming crack (%d,%d)", v, i, cracks[ci].key, cracks[ci].pos)
		}
	}

	// Row-id payload, when present, must still match original values.
	if col.RowIDs != nil {
		for i, id := range col.RowIDs {
			if original[id] != col.Values[i] {
				t.Fatalf("row id %d at pos %d maps to %d, column holds %d",
					id, i, original[id], col.Values[i])
			}
		}
	}
}

func TestPhysicalInvariantsAcrossAlgorithms(t *testing.T) {
	const n = 30000
	original := xrand.New(50).Perm(n)
	for _, spec := range allSpecs() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			ix, err := Build(append([]int64(nil), original...), spec,
				Options{Seed: 51, TrackRowIDs: true})
			if err != nil {
				t.Fatal(err)
			}
			e, ok := engineBacked(ix)
			if !ok {
				t.Skipf("%s does not expose an engine", spec)
			}
			rng := xrand.New(52)
			for i := 0; i < 300; i++ {
				a, b := queryPattern(i, n, rng)
				ix.Query(a, b)
			}
			checkPhysicalInvariants(t, e, original)
		})
	}
}

func TestPhysicalInvariantsWithDuplicates(t *testing.T) {
	rng := xrand.New(53)
	original := make([]int64, 20000)
	for i := range original {
		original[i] = rng.Int63n(500)
	}
	for _, spec := range []string{"crack", "ddc", "ddr", "dd1c", "dd1r", "mdd1r", "pmdd1r-10", "scrackmon-3"} {
		ix, err := Build(append([]int64(nil), original...), spec, Options{Seed: 54})
		if err != nil {
			t.Fatal(err)
		}
		e, _ := engineBacked(ix)
		q := xrand.New(55)
		for i := 0; i < 300; i++ {
			a := q.Int63n(500)
			ix.Query(a, a+q.Int63n(50)+1)
		}
		checkPhysicalInvariants(t, e, original)
	}
}

func TestPieceSizesShrinkTowardThreshold(t *testing.T) {
	// After enough DDR queries, no piece that a query bound landed in
	// should remain dramatically above CrackSize; globally, the largest
	// piece must be far below N.
	const n = 1 << 18
	ix := NewDDR(xrand.New(56).Perm(n), Options{Seed: 57, CrackSize: 1024})
	rng := xrand.New(58)
	for i := 0; i < 200; i++ {
		a := rng.Int63n(n - 100)
		ix.Query(a, a+100)
	}
	pieces := ix.Engine().CrackerIndex().Pieces(n)
	largest := 0
	for i := 1; i < len(pieces); i++ {
		if d := pieces[i] - pieces[i-1]; d > largest {
			largest = d
		}
	}
	if largest > n/8 {
		t.Fatalf("largest piece is %d of %d; DDR failed to break the column down", largest, n)
	}
}
