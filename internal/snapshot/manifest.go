package snapshot

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// Part is one contiguous piece of a database snapshot: the engine state
// of one shard plus the half-open value range [Lo, Hi) it owns. An
// unsharded snapshot is a single part spanning the whole int64 domain
// (Lo = math.MinInt64, Hi = math.MaxInt64; by convention the top shard
// also absorbs Hi itself, mirroring exec.Sharded's routing).
type Part struct {
	Lo, Hi int64
	State  core.SnapshotState
}

// Parts is one column's multi-part physical state: parts in ascending
// value order whose ranges tile the domain. It can be re-cut along new
// shard bounds (Reshard) without losing cracks — splitting a shard splits
// its engine state at the bound, merging shards turns the old boundaries
// into cracks. The range surgery lives on Parts because it is only ever
// meaningful within one column.
type Parts []Part

// Manifest is the physical state of a whole database: its columns sorted
// by name, each one a named part list (see TableColumn). It is the unit
// DB.Snapshot produces and OpenSnapshot consumes. A single-column
// database is the one column named "".
type Manifest struct {
	Columns []TableColumn
}

// TableColumn is one named column of a manifest: the column's own
// multi-part physical state. Cracking is per attribute (paper §2) — each
// column adapts, snapshots and restores independently — so a manifest is
// a set of named part lists, nothing more.
//
// Neither row alignment across columns nor row ids are captured: the DB
// facade exposes only per-column value selections. A restored table
// answers every selection byte-identically but cannot serve cross-column
// projections (those paths report ErrSnapshotUnsupported).
type TableColumn struct {
	Name  string
	Parts Parts
}

// Column returns the named column's part list — the form every
// single-column restore path consumes — and whether the column exists.
func (m Manifest) Column(name string) (Parts, bool) {
	for _, c := range m.Columns {
		if c.Name == name {
			return c.Parts, true
		}
	}
	return nil, false
}

// Single wraps one engine state as a whole-domain manifest of the unnamed
// column. Cracks at the very edges of the domain (keys MinInt64/MaxInt64,
// produced by unbounded predicates) are dropped — their positions are
// necessarily 0 or len, so they carry no refinement, and dropping them
// keeps every manifest key strictly inside its part's range.
func Single(st core.SnapshotState) Manifest {
	return Manifest{Columns: []TableColumn{{Parts: Parts{ClampedPart(math.MinInt64, math.MaxInt64, st)}}}}
}

// ClampedPart builds a part for a shard owning [lo, hi), dropping cracks
// whose keys fall outside (lo, hi). Live shards accumulate such cracks —
// queries wider than the shard crack at their original bounds — but they
// carry no information (their positions are necessarily 0 or len), and
// dropping them is what makes parts concatenable: every retained key is
// strictly inside the part's range. Pending-update queues are clamped to
// the values the range owns for the same reason (value-routed updates
// never queue outside their shard's range, so this is normalization, not
// loss).
func ClampedPart(lo, hi int64, st core.SnapshotState) Part {
	keep := st.Cracks[:0:0]
	for _, c := range st.Cracks {
		if c.Key > lo && c.Key < hi {
			keep = append(keep, c)
		}
	}
	st.Cracks = keep
	st.PendingInserts = clampSorted(st.PendingInserts, lo, hi)
	st.PendingDeletes = clampSorted(st.PendingDeletes, lo, hi)
	return Part{Lo: lo, Hi: hi, State: st}
}

// clampSorted returns the sub-slice copy of sorted queue q whose values
// the range [lo, hi) owns (covers semantics: the top of the domain
// absorbs its own bound). nil when nothing survives.
func clampSorted(q []int64, lo, hi int64) []int64 {
	a := sort.Search(len(q), func(i int) bool { return q[i] >= lo })
	b := len(q)
	if hi != math.MaxInt64 {
		b = sort.Search(len(q), func(i int) bool { return q[i] >= hi })
	}
	if a >= b {
		return nil
	}
	if a == 0 && b == len(q) {
		return q
	}
	return append([]int64(nil), q[a:b]...)
}

// Rows returns the total tuple count across parts.
func (ps Parts) Rows() int {
	total := 0
	for _, p := range ps {
		total += len(p.State.Values)
	}
	return total
}

// Pieces returns the total piece count across parts (cracks + 1 per
// part) — the refinement a restore resumes with.
func (ps Parts) Pieces() int {
	total := 0
	for _, p := range ps {
		total += len(p.State.Cracks) + 1
	}
	return total
}

// Pending returns the total captured pending-update count across parts.
func (ps Parts) Pending() int {
	total := 0
	for _, p := range ps {
		total += p.State.Pending()
	}
	return total
}

// Rows returns the largest column's tuple count — columns legitimately
// diverge under per-column updates, and "rows" as a scalar means the
// table's serving width, not a sum over attributes.
func (m Manifest) Rows() int {
	rows := 0
	for _, c := range m.Columns {
		rows = max(rows, c.Parts.Rows())
	}
	return rows
}

// Pieces returns the piece count summed over columns.
func (m Manifest) Pieces() int {
	total := 0
	for _, c := range m.Columns {
		total += c.Parts.Pieces()
	}
	return total
}

// Pending returns the captured pending-update count summed over columns.
func (m Manifest) Pending() int {
	total := 0
	for _, c := range m.Columns {
		total += c.Parts.Pending()
	}
	return total
}

// covers reports whether value v belongs to the range [lo, hi), with the
// top of the domain (hi == math.MaxInt64) absorbing its own bound — the
// same routing rule exec.Sharded uses, so the last shard owns MaxInt64.
func covers(lo, hi, v int64) bool {
	return v >= lo && (v < hi || hi == math.MaxInt64)
}

// Validate checks one column's consistency: at least one part, ranges
// tiling the domain in ascending order, every part's state internally
// valid with crack keys inside the part's range, and every value owned by
// its part. The per-part checks delegate to core.SnapshotState.Validate;
// the range checks are what make merging sound (a value outside its
// shard's range would silently break the boundary cracks Merged and
// Reshard introduce).
func (ps Parts) Validate() error {
	if len(ps) == 0 {
		return fmt.Errorf("snapshot: column has no parts: %w", ErrCorrupt)
	}
	if ps[0].Lo != math.MinInt64 {
		return fmt.Errorf("snapshot: first part starts at %d, not the domain floor: %w", ps[0].Lo, ErrCorrupt)
	}
	if ps[len(ps)-1].Hi != math.MaxInt64 {
		return fmt.Errorf("snapshot: last part ends at %d, not the domain ceiling: %w", ps[len(ps)-1].Hi, ErrCorrupt)
	}
	for i, p := range ps {
		if i > 0 && p.Lo != ps[i-1].Hi {
			return fmt.Errorf("snapshot: part %d starts at %d, previous ended at %d: %w", i, p.Lo, ps[i-1].Hi, ErrCorrupt)
		}
		if p.Lo >= p.Hi {
			return fmt.Errorf("snapshot: part %d has empty range [%d, %d): %w", i, p.Lo, p.Hi, ErrCorrupt)
		}
		if err := p.State.Validate(); err != nil {
			return fmt.Errorf("snapshot: part %d: %w", i, err)
		}
		for _, c := range p.State.Cracks {
			if c.Key <= p.Lo || c.Key >= p.Hi {
				return fmt.Errorf("snapshot: part %d crack key %d outside (%d, %d): %w", i, c.Key, p.Lo, p.Hi, ErrCorrupt)
			}
		}
		for j, v := range p.State.Values {
			if !covers(p.Lo, p.Hi, v) {
				return fmt.Errorf("snapshot: part %d value %d at %d outside [%d, %d): %w", i, v, j, p.Lo, p.Hi, ErrCorrupt)
			}
		}
		for _, q := range [][]int64{p.State.PendingInserts, p.State.PendingDeletes} {
			for j, v := range q {
				if !covers(p.Lo, p.Hi, v) {
					return fmt.Errorf("snapshot: part %d pending value %d at %d outside [%d, %d): %w", i, v, j, p.Lo, p.Hi, ErrCorrupt)
				}
			}
		}
	}
	return nil
}

// Validate checks manifest-level consistency: at least one column, names
// strictly ascending, the unnamed column only as the sole one, and every
// column's part list valid. Columns may hold different row counts —
// per-column updates legitimately diverge them — so no cross-column
// length check applies.
func (m Manifest) Validate() error {
	if len(m.Columns) == 0 {
		return fmt.Errorf("snapshot: empty manifest: %w", ErrCorrupt)
	}
	for i, c := range m.Columns {
		if c.Name == "" && len(m.Columns) > 1 {
			return fmt.Errorf("snapshot: column %d has an empty name beside others: %w", i, ErrCorrupt)
		}
		if i > 0 && c.Name <= m.Columns[i-1].Name {
			return fmt.Errorf("snapshot: column names not strictly ascending at %d (%q after %q): %w",
				i, c.Name, m.Columns[i-1].Name, ErrCorrupt)
		}
		if err := c.Parts.Validate(); err != nil {
			return fmt.Errorf("snapshot: column %q: %w", c.Name, err)
		}
	}
	return nil
}

// Merged flattens the parts into one contiguous engine state: parts
// concatenate in ascending order and each interior shard boundary becomes
// a crack (all values left of it are smaller — the boundary was a
// partition of the value domain), so no refinement is lost.
func (ps Parts) Merged() core.SnapshotState {
	return ps.slice(math.MinInt64, math.MaxInt64)
}

// Extract returns the engine state covering the value range [lo, hi)
// across parts, cracks and pending updates included — the donor side of a
// live shard migration: the extracted state restores into a warm index on
// a joining node, while the rest of the column is untouched.
func (ps Parts) Extract(lo, hi int64) (core.SnapshotState, error) {
	if lo >= hi {
		return core.SnapshotState{}, fmt.Errorf("snapshot: extract range [%d, %d) is empty", lo, hi)
	}
	return ps.slice(lo, hi), nil
}

// Reshard re-cuts the parts along the given interior bounds (strictly
// ascending; k-1 bounds yield k parts). Cracks survive the re-cut: a
// bound splitting a shard splits its state at the bound (filtering the one
// piece the bound lands in), and shards merging into one part keep their
// old boundaries as cracks.
func (ps Parts) Reshard(bounds []int64) (Parts, error) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("snapshot: reshard bounds not ascending at %d (%d after %d)", i, bounds[i], bounds[i-1])
		}
	}
	out := make(Parts, 0, len(bounds)+1)
	lo := int64(math.MinInt64)
	for i := 0; i <= len(bounds); i++ {
		hi := int64(math.MaxInt64)
		if i < len(bounds) {
			hi = bounds[i]
		}
		out = append(out, Part{Lo: lo, Hi: hi, State: ps.slice(lo, hi)})
		lo = hi
	}
	return out, nil
}

// slice extracts the engine state covering the value range [lo, hi)
// across parts: per-part extraction preserving every crack strictly
// inside the range, with source part boundaries becoming cracks when the
// range spans several parts.
func (ps Parts) slice(lo, hi int64) core.SnapshotState {
	var states []core.SnapshotState
	var boundaries []int64 // the source bound preceding states[i], i > 0
	for _, p := range ps {
		if p.Hi <= lo && p.Hi != math.MaxInt64 || p.Lo >= hi {
			continue
		}
		if len(states) > 0 {
			boundaries = append(boundaries, p.Lo)
		}
		states = append(states, extractPart(p, lo, hi))
	}
	if len(states) == 0 {
		return core.SnapshotState{}
	}
	if len(states) == 1 {
		return states[0]
	}
	total := 0
	cracks := len(boundaries)
	for _, st := range states {
		total += len(st.Values)
		cracks += len(st.Cracks)
	}
	out := core.SnapshotState{
		Values: make([]int64, 0, total),
		Cracks: make([]core.CrackEntry, 0, cracks),
	}
	for i, st := range states {
		if i > 0 {
			out.Cracks = append(out.Cracks, core.CrackEntry{Key: boundaries[i-1], Pos: len(out.Values)})
		}
		off := len(out.Values)
		out.Values = append(out.Values, st.Values...)
		for _, c := range st.Cracks {
			out.Cracks = append(out.Cracks, core.CrackEntry{Key: c.Key, Pos: off + c.Pos})
		}
		// Parts ascend in disjoint value ranges and each queue holds only
		// values its part owns, so concatenation stays sorted.
		out.PendingInserts = append(out.PendingInserts, st.PendingInserts...)
		out.PendingDeletes = append(out.PendingDeletes, st.PendingDeletes...)
	}
	return out
}

// extractPart returns the sub-state of part p covering [lo, hi),
// preserving every crack strictly inside the (clamped) range. Only the
// two pieces the clamped bounds land in are filtered; interior pieces
// copy wholesale, so crack positions shift by one fixed offset.
func extractPart(p Part, lo, hi int64) core.SnapshotState {
	if p.Lo > lo {
		lo = p.Lo
	}
	if p.Hi < hi {
		hi = p.Hi
	}
	st := p.State
	n := len(st.Values)
	if lo == p.Lo && hi == p.Hi {
		return st // whole part; nothing to cut
	}
	pendIns := clampSorted(st.PendingInserts, lo, hi)
	pendDel := clampSorted(st.PendingDeletes, lo, hi)
	cracks := st.Cracks
	// first crack with Key > lo: values before its predecessor's position
	// are < lo and drop wholesale.
	a := sort.Search(len(cracks), func(i int) bool { return cracks[i].Key > lo })
	// first crack with Key >= hi: values from its position on are >= hi
	// and drop wholesale.
	b := sort.Search(len(cracks), func(i int) bool { return cracks[i].Key >= hi })
	posA := 0
	if a > 0 {
		posA = cracks[a-1].Pos
	}
	posB := n
	if b < len(cracks) {
		posB = cracks[b].Pos
	}
	out := core.SnapshotState{PendingInserts: pendIns, PendingDeletes: pendDel}
	appendFiltered := func(from, to int) {
		for i := from; i < to; i++ {
			if covers(lo, hi, st.Values[i]) {
				out.Values = append(out.Values, st.Values[i])
			}
		}
	}
	out.Values = make([]int64, 0, posB-posA)
	if a >= b {
		// No crack strictly inside (lo, hi): one piece spans both bounds.
		appendFiltered(posA, posB)
		return out
	}
	// Piece spanning lo: keep values >= lo (all are < cracks[a].Key < hi).
	appendFiltered(posA, cracks[a].Pos)
	// Interior pieces [cracks[a].Pos, cracks[b-1].Pos) copy wholesale;
	// every interior crack keeps its offset from cracks[a].Pos.
	off := len(out.Values) - cracks[a].Pos
	out.Values = append(out.Values, st.Values[cracks[a].Pos:cracks[b-1].Pos]...)
	for i := a; i < b; i++ {
		out.Cracks = append(out.Cracks, core.CrackEntry{Key: cracks[i].Key, Pos: off + cracks[i].Pos})
	}
	// Piece spanning hi: keep values < hi (all are >= cracks[b-1].Key > lo).
	appendFiltered(cracks[b-1].Pos, posB)
	return out
}

// SplitBounds picks k-1 interior bounds for resharding into k parts,
// aiming at even tuple counts. It prefers existing piece boundaries
// (crack keys and old shard bounds): cutting along them costs nothing and
// preserves the piece profile exactly. When the parts have too few
// cracks for that — or the crack-aligned cut is badly unbalanced — it
// falls back to sampling values, like a cold sharded build.
func (ps Parts) SplitBounds(k int, seed uint64) []int64 {
	total := ps.Rows()
	if k <= 1 || total == 0 {
		return nil
	}
	type cut struct {
		key int64
		pos int // cumulative tuple position of the cut
	}
	var cuts []cut
	off := 0
	for i, p := range ps {
		if i > 0 {
			cuts = append(cuts, cut{key: p.Lo, pos: off})
		}
		for _, c := range p.State.Cracks {
			cuts = append(cuts, cut{key: c.Key, pos: off + c.Pos})
		}
		off += len(p.State.Values)
	}
	bounds := make([]int64, 0, k-1)
	ci := 0
	prevPos := 0
	maxShard := 0
	for i := 1; i < k; i++ {
		target := i * total / k
		for ci < len(cuts) && cuts[ci].pos < target {
			ci++
		}
		// Candidates flanking the target; keys must stay ascending.
		best := -1
		for _, cand := range []int{ci - 1, ci} {
			if cand < 0 || cand >= len(cuts) {
				continue
			}
			if len(bounds) > 0 && cuts[cand].key <= bounds[len(bounds)-1] {
				continue
			}
			if best < 0 || abs(cuts[cand].pos-target) < abs(cuts[best].pos-target) {
				best = cand
			}
		}
		if best < 0 {
			continue
		}
		bounds = append(bounds, cuts[best].key)
		maxShard = max(maxShard, cuts[best].pos-prevPos)
		prevPos = cuts[best].pos
		ci = best + 1
	}
	maxShard = max(maxShard, total-prevPos)
	// A converged snapshot has cracks everywhere and the aligned cut is
	// near-even; a young one does not — fall back to sampled bounds then.
	if len(bounds) < k-1 || maxShard > 3*total/k {
		return ps.sampledBounds(k, seed)
	}
	return bounds
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// sampledBounds picks k-1 bounds by strided value sampling across parts,
// mirroring the cold sharded build's strategy (exec.shardBounds).
func (ps Parts) sampledBounds(k int, seed uint64) []int64 {
	total := ps.Rows()
	if k <= 1 || total == 0 {
		return nil
	}
	const perShard = 32
	sampleSize := min(k*perShard, total)
	stride := max(total/sampleSize, 1)
	sample := make([]int64, 0, sampleSize)
	next := int(seed % uint64(stride))
	off := 0
	for _, p := range ps {
		for next < off+len(p.State.Values) && len(sample) < sampleSize {
			sample = append(sample, p.State.Values[next-off])
			next += stride
		}
		off += len(p.State.Values)
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	bounds := make([]int64, 0, k-1)
	for i := 1; i < k; i++ {
		b := sample[i*len(sample)/k]
		if len(bounds) == 0 || b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	return bounds
}
