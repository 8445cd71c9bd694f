package core

import "fmt"

// CrackEntry is one crack of a snapshot: all values before Pos are < Key,
// all values from Pos on are >= Key.
type CrackEntry struct {
	Key int64
	Pos int
}

// SnapshotState captures the physical state of an engine-backed index:
// the (cracked) column contents and the crack set. It is the unit the
// snapshot package serializes; restoring it yields an index that resumes
// with all adaptation earned so far (the paper's §6 "disk-based
// processing" direction needs exactly this ability to persist cracker
// state). A column's row-id payload is not part of it: row ids serve
// projection from a live row-order base, which a snapshot never carries.
type SnapshotState struct {
	Values []int64
	Cracks []CrackEntry

	// PendingInserts and PendingDeletes are the not-yet-merged update
	// queues captured with the state (sorted ascending, duplicates
	// allowed). They are not part of Values — a restore re-queues them so
	// the first covering query merges them, exactly as it would have on
	// the snapshotted index. The engine itself never reads them; the
	// update-carrying wrapper (internal/updates) owns the queues on both
	// the capture and the restore side.
	PendingInserts []int64
	PendingDeletes []int64
}

// Pending returns the number of captured, not-yet-merged updates.
func (st SnapshotState) Pending() int {
	return len(st.PendingInserts) + len(st.PendingDeletes)
}

// Snapshot captures the engine's current physical state, dense: the
// holes merged updates leave at piece ends are dropped, and every crack is
// recorded at its position in the column without them. The returned
// slices are copies; the engine can keep cracking afterwards.
func (e *Engine) Snapshot() SnapshotState {
	n := e.col.Len()
	st := SnapshotState{Values: make([]int64, 0, n-e.idx.Holes())}
	e.idx.Live(0, e.idx.End(n), func(lo, hi int) {
		st.Values = append(st.Values, e.col.Values[lo:hi]...)
	})
	gone := 0
	e.idx.Ascend(func(key int64, pos, holes int) bool {
		gone += holes
		st.Cracks = append(st.Cracks, CrackEntry{Key: key, Pos: pos - gone})
		return true
	})
	return st
}

// Validate checks the snapshot's internal consistency: crack keys strictly
// ascending, positions monotone and in range, and every crack's partition
// invariant holding over the values (one O(n + k) pass).
func (st SnapshotState) Validate() error {
	n := len(st.Values)
	prevKey := int64(0)
	prevPos := 0
	for i, c := range st.Cracks {
		if i > 0 && c.Key <= prevKey {
			return fmt.Errorf("core: snapshot cracks not strictly ascending at %d (key %d after %d)", i, c.Key, prevKey)
		}
		if c.Pos < prevPos || c.Pos > n {
			return fmt.Errorf("core: snapshot crack %d has position %d (prev %d, n %d)", i, c.Pos, prevPos, n)
		}
		prevKey, prevPos = c.Key, c.Pos
	}
	for _, q := range [][]int64{st.PendingInserts, st.PendingDeletes} {
		for i := 1; i < len(q); i++ {
			if q[i] < q[i-1] {
				return fmt.Errorf("core: snapshot pending queue not sorted at %d (%d after %d)", i, q[i], q[i-1])
			}
		}
	}
	ci := 0
	for i, v := range st.Values {
		for ci < len(st.Cracks) && st.Cracks[ci].Pos <= i {
			ci++
		}
		if ci > 0 && v < st.Cracks[ci-1].Key {
			return fmt.Errorf("core: value %d at position %d violates crack (%d,%d)",
				v, i, st.Cracks[ci-1].Key, st.Cracks[ci-1].Pos)
		}
		if ci < len(st.Cracks) && v >= st.Cracks[ci].Key {
			return fmt.Errorf("core: value %d at position %d violates crack (%d,%d)",
				v, i, st.Cracks[ci].Key, st.Cracks[ci].Pos)
		}
	}
	return nil
}

// Restore rebuilds an index from a snapshot. The snapshot is validated
// first; the returned index resumes with the snapshot's cracks in place.
// spec selects the algorithm that continues the cracking (it need not be
// the one that produced the snapshot — crack state is algorithm-agnostic).
func Restore(st SnapshotState, spec string, opt Options) (Index, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	// Coarse-granular initialization is a cold-load bootstrap; a snapshot
	// already carries its earned refinement, and pre-cutting here would
	// reorganize the values before the snapshot's cracks (recorded against
	// the snapshot's layout) are re-inserted, corrupting them.
	opt.CoarseInitPieces = 0
	ix, err := Build(append([]int64(nil), st.Values...), spec, opt)
	if err != nil {
		return nil, err
	}
	acc, ok := ix.(interface{ Engine() *Engine })
	if !ok {
		return nil, fmt.Errorf("core: %q cannot restore snapshots (no engine)", spec)
	}
	// Validate checked the cracks ascend in key and position: pack them.
	acc.Engine().idx.Load(len(st.Cracks), func(i int) (int64, int) {
		return st.Cracks[i].Key, st.Cracks[i].Pos
	})
	return ix, nil
}
