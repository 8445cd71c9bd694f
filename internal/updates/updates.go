// Package updates implements adaptive indexing under updates ([17],
// reproduced in the paper's Fig. 15).
//
// Updates are not applied eagerly. They are collected in pending queues
// and merged into the cracker column on demand: when a query requests a
// value range in which at least one pending update falls, exactly the
// qualifying updates are merged — during query processing, like every
// other cracking action.
//
// A merge touches only the neighbourhood of its piece, through piece-local
// slack. Empty slots ("holes") sit at the end of pieces, counted per crack
// by the cracker index. A merged delete moves its piece's last tuple into
// the vacated slot and leaves the hole there. A merged insert takes the
// nearest hole at or above its piece: every piece in between rotates its
// first tuple to its end, so the insert moves one tuple per crack it
// crosses, shifts only those cracks, and never touches the column beyond
// the hole. When no hole lies within maxCross cracks, one pass spreads the
// column's holes evenly over its pieces, first growing the column to a
// reserve of about 1 % of its rows (more on a column cracked into pieces
// of under 25 tuples) when it holds half of that or less. Vacated slots
// hold holeCanary; hole positions come from the counts, never from the
// value.
package updates

import (
	"math"
	"sort"

	"repro/internal/cindex"
	"repro/internal/column"
	"repro/internal/core"
)

const (
	// maxCross is how many hole-less cracks a merged insert may carry its
	// tuple across before the column's slack is spread again.
	maxCross = 64
	// slackDiv sets the reserve a spread grows the column to: one hole
	// per slackDiv live tuples...
	slackDiv = 100
	// ...and at least one per piecesPerHole pieces, so that on a finely
	// cracked column random merges keep a hole well within maxCross
	// cracks of every piece long after the spread.
	piecesPerHole = 4
	// holeCanary fills every vacated slot. Nothing reads it; a reader
	// that ever returns it has read a hole.
	holeCanary = math.MinInt64
)

// RippleInsert inserts value v into the cracker column, preserving every
// piece invariant: v lands inside the piece whose value range covers it,
// in the nearest hole at or above that piece. Each piece between v's
// piece and the hole rotates its first tuple to its end, and each crack
// crossed shifts one position up.
func RippleInsert(col *column.Column, idx *cindex.Tree, v int64) {
	var cross [maxCross]int
	crossed, hole, key, ok := nearestHole(idx, v, col.Len(), &cross)
	if !ok {
		spread(col, idx)
		if crossed, hole, key, ok = nearestHole(idx, v, col.Len(), &cross); !ok {
			panic("updates: no hole within reach after spreading the slack")
		}
	}
	for i := crossed - 1; i >= 0; i-- {
		if p := cross[i]; p != hole {
			moveRun(col, p, hole, 1)
			hole = p
		}
	}
	col.Values[hole] = v
	col.Stats.Touched++
	if crossed > 0 {
		idx.RangeShift(v, 1)
		idx.RangeShift(key, -1)
	}
	idx.AddHoles(key, -1)
}

// nearestHole finds the nearest piece at or above v's piece with a hole,
// crossing at most maxCross cracks. It records the crossed cracks'
// positions in cross, lowest first, and returns how many it crossed, the
// first hole of the piece found, and a value in that piece (v, or the key
// of the last crack crossed). ok is false when no such piece is in reach.
func nearestHole(idx *cindex.Tree, v int64, n int, cross *[maxCross]int) (crossed, hole int, key int64, ok bool) {
	key = v
	for {
		k, pos, holes, more := idx.Above(key, n)
		if holes > 0 {
			return crossed, pos - holes, key, true
		}
		if !more || crossed == maxCross {
			return 0, 0, 0, false
		}
		cross[crossed] = pos
		crossed++
		key = k
	}
}

// RippleDelete removes one occurrence of value v from the cracker column,
// if present, and reports whether a tuple was removed. The piece's last
// tuple fills the vacated slot, and the piece ends one hole longer.
func RippleDelete(col *column.Column, idx *cindex.Tree, v int64) bool {
	lo, hi, _ := idx.PieceFor(v, col.Len())
	at := -1
	for i := lo; i < hi; i++ {
		if col.Values[i] == v {
			at = i
			break
		}
	}
	if at < 0 {
		col.Stats.Touched += int64(hi - lo)
		return false
	}
	col.Stats.Touched += int64(at - lo + 1)
	if last := hi - 1; at != last {
		moveRun(col, last, at, 1)
	}
	col.Values[hi-1] = holeCanary
	idx.AddHoles(v, 1)
	return true
}

// moveRun moves the k tuples at from to start at slot to; the two runs
// never overlap.
func moveRun(col *column.Column, from, to, k int) {
	copy(col.Values[to:to+k], col.Values[from:from+k])
	col.Stats.Touched += int64(k)
	col.Stats.Swaps += int64(k)
}

// spread gives every piece an even share of the column's holes, the last
// piece included. A column holding at most half its reserve first grows to
// the reserve: growth, the only place the column ever grows, then costs
// one reallocation per half a reserve of merged inserts, and a spread
// leaves a hole within piecesPerHole*2 cracks above every piece. A piece
// moving by d slots moves min(d, its length) tuples, rotating rather than
// shifting since a piece's order is free, so one spread moves each tuple
// at most once.
func spread(col *column.Column, idx *cindex.Tree) {
	n, holes := col.Len(), idx.Holes()
	pieces := idx.Len() + 1
	reserve := max((n-holes)/slackDiv, pieces/piecesPerHole+1)
	if 2*holes <= reserve {
		grow(col, idx, reserve-holes)
		n, holes = col.Len(), reserve
	}
	share := func(i int) int { return (i+1)*holes/pieces - i*holes/pieces }
	moves := make([]pieceMove, 0, pieces)
	start, to, end := 0, 0, idx.End(n)
	idx.Relayout(share(pieces-1), func(pos, h int) (int, int) {
		m := pieceMove{from: start, to: to, size: pos - h - start}
		h = share(len(moves))
		moves = append(moves, m)
		start, to = pos, to+m.size+h
		return to, h
	})
	moves = append(moves, pieceMove{from: start, to: to, size: end - start})
	// Pieces moving down go first, lowest first; then pieces moving up,
	// highest first: each lands only on slots already vacated.
	for _, m := range moves {
		if m.to < m.from {
			shiftPiece(col, m)
		}
	}
	for i := len(moves) - 1; i >= 0; i-- {
		if m := moves[i]; m.to > m.from {
			shiftPiece(col, m)
		}
	}
	for i, m := range moves {
		fillHoles(col.Values[m.to+m.size : m.to+m.size+share(i)])
	}
}

// pieceMove is one piece's live tuples moving from one start slot to
// another.
type pieceMove struct{ from, to, size int }

// shiftPiece carries out m, given that the slots it lands on are free.
func shiftPiece(col *column.Column, m pieceMove) {
	switch d := m.to - m.from; {
	case d >= m.size || -d >= m.size:
		moveRun(col, m.from, m.to, m.size)
	case d > 0: // the first d tuples go to the end
		moveRun(col, m.from, m.from+m.size, d)
	default: // the last -d tuples go to the front
		moveRun(col, m.from+m.size+d, m.to, -d)
	}
}

// grow appends extra holes to the end of the column's last piece.
func grow(col *column.Column, idx *cindex.Tree, extra int) {
	n := col.Len()
	vals := column.Alloc(n + extra)
	copy(vals, col.Values)
	fillHoles(vals[n:])
	col.Values = vals
	idx.AddHoles(math.MaxInt64, extra)
}

func fillHoles(slots []int64) {
	for i := range slots {
		slots[i] = holeCanary
	}
}

// Pending is the set of not-yet-merged updates, kept sorted by value so a
// query can extract exactly the updates falling in its range.
type Pending struct {
	inserts []int64
	deletes []int64
}

// Insert queues value v for insertion.
func (p *Pending) Insert(v int64) {
	p.inserts = insertSorted(p.inserts, v)
}

// Delete queues value v for deletion. A delete of a value still sitting
// in the pending-insert queue annihilates that insert instead of
// queueing: the merge applies deletes before inserts (so a queued
// delete can find its column copy), which means a delete whose target
// only exists as a pending insert would ripple through the column, find
// nothing, and be dropped — resurrecting the value when the insert
// merges after it.
func (p *Pending) Delete(v int64) {
	if i := sort.Search(len(p.inserts), func(i int) bool { return p.inserts[i] >= v }); i < len(p.inserts) && p.inserts[i] == v {
		p.inserts = append(p.inserts[:i], p.inserts[i+1:]...)
		return
	}
	p.deletes = insertSorted(p.deletes, v)
}

// InsertMany queues every value in vs for insertion. The batch is sorted
// once and merged into the queue in a single pass — O(k·log k + m) for k
// new values over an m-entry queue, against O(k·m) for k one-value
// inserts — which is what keeps the group-commit batcher's bulk apply
// cheap at large batch sizes.
func (p *Pending) InsertMany(vs []int64) {
	p.inserts = mergeSorted(p.inserts, vs)
}

// DeleteMany queues every value in vs for deletion, like InsertMany,
// with the same annihilation rule as Delete: each value first cancels
// one matching pending insert, and only the survivors are queued. One
// merge pass over the insert queue keeps the bulk path O(k·log k + m).
func (p *Pending) DeleteMany(vs []int64) {
	if len(vs) == 0 {
		return
	}
	batch := append([]int64(nil), vs...)
	sort.Slice(batch, func(i, j int) bool { return batch[i] < batch[j] })
	ins := p.inserts
	kept := ins[:0]
	var survivors []int64
	i := 0
	for _, v := range batch {
		for i < len(ins) && ins[i] < v {
			kept = append(kept, ins[i])
			i++
		}
		if i < len(ins) && ins[i] == v {
			i++ // annihilate one pending copy
			continue
		}
		survivors = append(survivors, v)
	}
	kept = append(kept, ins[i:]...)
	p.inserts = kept
	p.deletes = mergeSorted(p.deletes, survivors)
}

// Len returns the number of pending operations.
func (p *Pending) Len() int { return len(p.inserts) + len(p.deletes) }

// Snapshot returns copies of the queued inserts and deletes, sorted
// ascending — the serializable form a snapshot carries so a restore can
// re-queue them (core.SnapshotState.PendingInserts/PendingDeletes).
func (p *Pending) Snapshot() (inserts, deletes []int64) {
	if len(p.inserts) > 0 {
		inserts = append([]int64(nil), p.inserts...)
	}
	if len(p.deletes) > 0 {
		deletes = append([]int64(nil), p.deletes...)
	}
	return inserts, deletes
}

// Seed replaces the queues with copies of the given sorted value lists
// (the restore path of a snapshot carrying pending updates).
func (p *Pending) Seed(inserts, deletes []int64) {
	p.inserts = append(p.inserts[:0:0], inserts...)
	p.deletes = append(p.deletes[:0:0], deletes...)
}

// PendingInRange reports whether any pending update falls in [a, b).
func (p *Pending) PendingInRange(a, b int64) bool {
	return anyInRange(p.inserts, a, b) || anyInRange(p.deletes, a, b)
}

// takeRange removes all queued values in [a, b) and returns them in dst,
// overwriting its contents.
func takeRange(queue *[]int64, a, b int64, dst []int64) []int64 {
	q := *queue
	lo := sort.Search(len(q), func(i int) bool { return q[i] >= a })
	hi := sort.Search(len(q), func(i int) bool { return q[i] >= b })
	dst = append(dst[:0], q[lo:hi]...)
	*queue = append(q[:lo], q[hi:]...)
	return dst
}

// mergeSorted merges a batch of values (any order) into the sorted queue
// q, returning the merged queue. The batch is copied before sorting, so
// the caller's slice is never reordered.
func mergeSorted(q []int64, vs []int64) []int64 {
	switch len(vs) {
	case 0:
		return q
	case 1:
		return insertSorted(q, vs[0])
	}
	batch := append([]int64(nil), vs...)
	sort.Slice(batch, func(i, j int) bool { return batch[i] < batch[j] })
	out := make([]int64, 0, len(q)+len(batch))
	i, j := 0, 0
	for i < len(q) && j < len(batch) {
		if q[i] <= batch[j] {
			out = append(out, q[i])
			i++
		} else {
			out = append(out, batch[j])
			j++
		}
	}
	out = append(out, q[i:]...)
	out = append(out, batch[j:]...)
	return out
}

func insertSorted(q []int64, v int64) []int64 {
	i := sort.Search(len(q), func(i int) bool { return q[i] >= v })
	q = append(q, 0)
	copy(q[i+1:], q[i:])
	q[i] = v
	return q
}

func anyInRange(q []int64, a, b int64) bool {
	i := sort.Search(len(q), func(i int) bool { return q[i] >= a })
	return i < len(q) && q[i] < b
}

// Index wraps a cracking index with pending-update machinery: updates are
// queued by Insert/Delete and merged lazily by Query, exactly for the
// range each query touches.
type Index struct {
	inner   core.Index
	engine  *core.Engine
	pending Pending
	merged  int64
	taken   []int64 // the updates one query merges, reused across queries
}

// engineAccessor is satisfied by every engine-backed core index.
type engineAccessor interface {
	Engine() *core.Engine
}

// Wrap builds an updatable index around a core cracking index. The inner
// index must be engine-backed (every algorithm except Sort qualifies;
// a sorted array would need different update machinery entirely).
func Wrap(inner core.Index) (*Index, bool) {
	acc, ok := inner.(engineAccessor)
	if !ok {
		return nil, false
	}
	return &Index{inner: inner, engine: acc.Engine()}, true
}

// Engine exposes the wrapped index's engine (snapshotting, introspection).
func (u *Index) Engine() *core.Engine { return u.engine }

// Unwrap returns the wrapped cracking index.
func (u *Index) Unwrap() core.Index { return u.inner }

// Insert queues v for insertion; it becomes visible to the first query
// whose range covers it.
func (u *Index) Insert(v int64) { u.pending.Insert(v) }

// Delete queues v for deletion; it takes effect before the first query
// whose range covers it.
func (u *Index) Delete(v int64) { u.pending.Delete(v) }

// InsertMany queues every value in vs for insertion in one sorted merge
// (the group-commit bulk apply path).
func (u *Index) InsertMany(vs []int64) { u.pending.InsertMany(vs) }

// DeleteMany queues every value in vs for deletion, like InsertMany.
func (u *Index) DeleteMany(vs []int64) { u.pending.DeleteMany(vs) }

// Pending returns the number of not-yet-merged updates.
func (u *Index) Pending() int { return u.pending.Len() }

// PendingSnapshot returns copies of the queued inserts and deletes, for
// inclusion in a snapshot.
func (u *Index) PendingSnapshot() (inserts, deletes []int64) { return u.pending.Snapshot() }

// SeedPending replaces the queues with the given sorted value lists
// (restoring a snapshot that carried pending updates).
func (u *Index) SeedPending(inserts, deletes []int64) { u.pending.Seed(inserts, deletes) }

// Merged returns the number of updates merged into the column so far.
func (u *Index) Merged() int64 { return u.merged }

// Query merges the pending updates falling in [a, b), then answers the
// query through the wrapped cracking index.
func (u *Index) Query(a, b int64) core.Result {
	if u.pending.PendingInRange(a, b) {
		col, idx := u.engine.Column(), u.engine.CrackerIndex()
		u.engine.AbandonProgressivePartitions()
		u.taken = takeRange(&u.pending.deletes, a, b, u.taken)
		for _, v := range u.taken {
			if RippleDelete(col, idx, v) {
				u.merged++
			}
		}
		u.taken = takeRange(&u.pending.inserts, a, b, u.taken)
		for _, v := range u.taken {
			RippleInsert(col, idx, v)
			u.merged++
		}
	}
	return u.inner.Query(a, b)
}

// TryAnswerReadOnly answers [a, b) without mutating the index when no
// pending update falls in the range and both bounds are converged,
// appending to dst; ok is false otherwise. It is the probe-and-answer the
// adaptive executor (internal/exec) routes its shared read path through.
func (u *Index) TryAnswerReadOnly(a, b int64, dst []int64) (_ []int64, ok bool) {
	if u.pending.PendingInRange(a, b) {
		return dst, false
	}
	return u.engine.TryAnswerReadOnly(a, b, dst)
}

// TryView is TryAnswerReadOnly answering as the engine's Result, valid
// until the next query (see core.Engine.TryView): the probe-first view of
// a Single-mode backend.
func (u *Index) TryView(a, b int64) (_ core.Result, ok bool) {
	if u.pending.PendingInRange(a, b) {
		return core.Result{}, false
	}
	return u.engine.TryView(a, b)
}

// TryAnswerReadOnlyAggregate is TryAnswerReadOnly returning only (count,
// sum).
func (u *Index) TryAnswerReadOnlyAggregate(a, b int64) (count int, sum int64, ok bool) {
	if u.pending.PendingInRange(a, b) {
		return 0, 0, false
	}
	return u.engine.TryAnswerReadOnlyAggregate(a, b)
}

// Name implements the core.Index naming convention.
func (u *Index) Name() string { return "updatable(" + u.inner.Name() + ")" }

// Stats reports the wrapped index's counters.
func (u *Index) Stats() core.Stats { return u.inner.Stats() }
