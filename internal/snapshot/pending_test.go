package snapshot

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
)

// pendingParts builds a two-part column whose states carry pending
// update queues, for the pending-queue stream tests.
func pendingParts(t testing.TB) Parts {
	t.Helper()
	lowState := crackedState(t, 2000, false)
	for i := range lowState.Values {
		lowState.Values[i] %= 1000 // keep part values inside [0, 1000)
	}
	lowState.Cracks = nil // remapping values invalidates the cracks
	lowState.PendingInserts = []int64{3, 700, 700}
	lowState.PendingDeletes = []int64{42}
	highState := core.SnapshotState{
		Values:         []int64{1500, 1200, 1900},
		PendingInserts: []int64{1000, 1999},
	}
	m := Parts{
		{Lo: math.MinInt64, Hi: 1000, State: lowState},
		{Lo: 1000, Hi: math.MaxInt64, State: highState},
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("fixture manifest invalid: %v", err)
	}
	return m
}

func TestManifestPendingRoundTrip(t *testing.T) {
	m := pendingParts(t)
	if m.Pending() != 6 {
		t.Fatalf("fixture pending=%d, want 6", m.Pending())
	}
	got := roundTrip(t, unnamed(m))
	if got.Pending() != m.Pending() {
		t.Fatalf("round trip pending=%d, want %d", got.Pending(), m.Pending())
	}
	for i, p := range got.Columns[0].Parts {
		if !slices.Equal(p.State.PendingInserts, m[i].State.PendingInserts) ||
			!slices.Equal(p.State.PendingDeletes, m[i].State.PendingDeletes) {
			t.Fatalf("part %d pending queues mismatch: %+v", i, p.State)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped manifest invalid: %v", err)
	}
}

func TestReadManifestRejectsUnsortedPending(t *testing.T) {
	m := pendingParts(t)
	m[1].State.PendingInserts = []int64{1999, 1000}
	var buf bytes.Buffer
	if err := WriteManifest(&buf, unnamed(m)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("unsorted pending queue decoded without error")
	}
}

func TestExtractClampsPending(t *testing.T) {
	m := pendingParts(t)
	// A range crossing both parts: picks up the in-range slice of each
	// part's queues, concatenated in part order (still sorted — parts
	// ascend in disjoint ranges).
	st, err := m.Extract(500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(st.PendingInserts, []int64{700, 700, 1000}) {
		t.Fatalf("extracted inserts %v", st.PendingInserts)
	}
	if len(st.PendingDeletes) != 0 {
		t.Fatalf("extracted deletes %v", st.PendingDeletes)
	}
	// The complement ranges hold the rest.
	low, err := m.Extract(math.MinInt64, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(low.PendingInserts, []int64{3}) || !slices.Equal(low.PendingDeletes, []int64{42}) {
		t.Fatalf("low extract queues %v / %v", low.PendingInserts, low.PendingDeletes)
	}
	high, err := m.Extract(1500, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(high.PendingInserts, []int64{1999}) {
		t.Fatalf("high extract inserts %v", high.PendingInserts)
	}
	// The top edge: hi == MaxInt64 absorbs its own bound, like part
	// ranges do.
	edge, err := m.Extract(1999, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(edge.PendingInserts, []int64{1999}) {
		t.Fatalf("edge extract inserts %v", edge.PendingInserts)
	}
}
