// Package table implements the multi-column context database cracking
// lives in (paper §2): a column-store table where cracking is applied at
// the attribute level — a query reorganizes only the columns it
// references — and other attributes are reconstructed on demand.
//
// Two reconstruction strategies are provided:
//
//   - Row-id reconstruction: the selection column carries a row-id payload
//     permuted in tandem (column.Column.RowIDs); projected attributes are
//     fetched from their base columns by row id. This is classic late
//     tuple reconstruction, paying one random access per result tuple.
//
//   - Sideways cracking (after Idreos et al. [18], simplified): for an
//     attribute pair (A, B) where queries select on A and project B, a
//     cracker map holds B's values physically aligned with a cracked copy
//     of A — the partition swaps move both attributes together — so
//     projection is a contiguous copy, never random access. Maps are
//     created lazily on first use and refined adaptively like any other
//     cracker column ("pieces of cracker columns are dynamically
//     created ... based on storage restrictions", §2).
//
// Selection uses any core cracking algorithm; the table owns one adaptive
// index per selection attribute plus the lazily built sideways maps.
package table

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cindex"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/dberr"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/updates"
)

// Table is a column-store table: named columns of equal length. It is not
// safe for concurrent use.
type Table struct {
	names   []string
	base    map[string][]int64 // immutable base columns
	rows    int
	algo    string
	opt     core.Options
	indexes map[string]*selIndex      // adaptive index per selection attribute
	maps    map[[2]string]*crackerMap // sideways maps keyed by (sel, proj)

	// seeds holds per-column snapshot states a restored table starts
	// from; index consumes a column's seed on first build. restored
	// marks columns that came from a snapshot: their cracked order no
	// longer matches base order (row ids were dropped at capture), so
	// the projection paths reject them.
	seeds    map[string]core.SnapshotState
	restored map[string]bool
}

// selIndex is the adaptive index on one selection attribute: a cracked
// copy of the attribute with a row-id payload for late reconstruction.
// u is the update-carrying wrapper when the algorithm supports it (nil
// for index kinds without an engine).
type selIndex struct {
	ix core.Index
	e  *core.Engine
	u  *updates.Index
}

// query answers [lo, hi) through the update wrapper when present, so
// pending inserts/deletes merge lazily on first covering read.
func (si *selIndex) query(lo, hi int64) core.Result {
	if si.u != nil {
		return si.u.Query(lo, hi)
	}
	return si.ix.Query(lo, hi)
}

// crackerMap is a sideways map: a copy of the selection attribute cracked
// query-driven, with the projected attribute permuted in tandem.
type crackerMap struct {
	col *column.Column
	idx *cindex.Tree
}

// New creates a table from named columns, all of equal length. algorithm
// selects the cracking flavor for selection indexes (any core spec, e.g.
// "crack", "dd1r", "pmdd1r-10").
func New(cols map[string][]int64, algorithm string, opt core.Options) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("table: no columns")
	}
	t := &Table{
		base:    make(map[string][]int64, len(cols)),
		algo:    algorithm,
		opt:     opt,
		indexes: make(map[string]*selIndex),
		maps:    make(map[[2]string]*crackerMap),
		rows:    -1,
	}
	for name := range cols {
		t.names = append(t.names, name)
	}
	sort.Strings(t.names)
	for _, name := range t.names {
		vals := cols[name]
		if t.rows == -1 {
			t.rows = len(vals)
		} else if len(vals) != t.rows {
			return nil, fmt.Errorf("table: column %q has %d rows, want %d", name, len(vals), t.rows)
		}
		t.base[name] = vals
	}
	if _, err := core.Build(nil, algorithm, opt); err != nil {
		return nil, err // validate the algorithm spec eagerly
	}
	return t, nil
}

// Restore rebuilds a table from a table manifest's columns: each column
// seeds its adaptive index with the captured state (cracks and pending
// queues included), consumed lazily on the column's first selection.
// Captured states carry no row ids, so the restored table answers every
// per-column selection exactly but rejects the cross-column projection
// paths behind DB.SelectProject and DB.SelectProjectSideways with
// dberr.ErrSnapshotUnsupported.
func Restore(cols []snapshot.TableColumn, algorithm string, opt core.Options) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("table: no columns")
	}
	t := &Table{
		base:     make(map[string][]int64, len(cols)),
		algo:     algorithm,
		opt:      opt,
		indexes:  make(map[string]*selIndex),
		maps:     make(map[[2]string]*crackerMap),
		seeds:    make(map[string]core.SnapshotState, len(cols)),
		restored: make(map[string]bool, len(cols)),
	}
	for _, c := range cols {
		merged, err := (snapshot.Manifest{Parts: c.Parts}).Merged()
		if err != nil {
			return nil, fmt.Errorf("table: column %q: %w", c.Name, err)
		}
		merged.RowIDs = nil // capture drops them; tolerate hand-built manifests
		t.names = append(t.names, c.Name)
		t.base[c.Name] = merged.Values
		t.seeds[c.Name] = merged
		t.restored[c.Name] = true
		// Columns may hold different counts once per-column updates merged;
		// report the widest. Pending inserts stay out of the count until
		// they merge — the same convention the single-column restore uses.
		if n := len(merged.Values); n > t.rows {
			t.rows = n
		}
	}
	sort.Strings(t.names)
	for i := 1; i < len(t.names); i++ {
		if t.names[i] == t.names[i-1] {
			return nil, fmt.Errorf("table: duplicate column %q", t.names[i])
		}
	}
	if _, err := core.Build(nil, algorithm, opt); err != nil {
		return nil, err // validate the algorithm spec eagerly
	}
	return t, nil
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Columns returns the column names in deterministic (sorted) order.
func (t *Table) Columns() []string { return append([]string(nil), t.names...) }

// Stats aggregates physical-cost counters over all selection indexes and
// sideways maps.
func (t *Table) Stats() core.Stats {
	var s core.Stats
	for _, si := range t.indexes {
		st := si.ix.Stats()
		s.Queries += st.Queries
		s.Touched += st.Touched
		s.Swaps += st.Swaps
		s.Cracks += st.Cracks
		s.Pieces += st.Pieces
	}
	for _, m := range t.maps {
		s.Touched += m.col.Stats.Touched
		s.Swaps += m.col.Stats.Swaps
		s.Cracks += m.idx.Len()
		s.Pieces += m.idx.Len() + 1
	}
	return s
}

// index returns (building lazily) the adaptive index on column sel. A
// restored column consumes its snapshot seed: the index resumes with the
// captured cracks and pending queues instead of rebuilding cold.
func (t *Table) index(sel string) (*selIndex, error) {
	if si, ok := t.indexes[sel]; ok {
		return si, nil
	}
	base, ok := t.base[sel]
	if !ok {
		return nil, fmt.Errorf("table: %w %q", dberr.ErrUnknownColumn, sel)
	}
	var (
		ix  core.Index
		err error
	)
	seed, seeded := t.seeds[sel]
	if seeded {
		// Restored columns carry no row ids (dropped at capture), so do
		// not ask the engine to invent a meaningless fresh set.
		opt := t.opt
		opt.TrackRowIDs = false
		ix, err = core.Restore(seed, t.algo, opt)
		if err == nil {
			delete(t.seeds, sel)
		}
	} else {
		opt := t.opt
		opt.TrackRowIDs = true
		ix, err = core.Build(append([]int64(nil), base...), t.algo, opt)
	}
	if err != nil {
		return nil, err
	}
	acc, ok := ix.(interface{ Engine() *core.Engine })
	if !ok {
		return nil, fmt.Errorf("table: algorithm %q does not expose its engine", t.algo)
	}
	si := &selIndex{ix: ix, e: acc.Engine()}
	if u, ok := updates.Wrap(ix); ok {
		si.u = u
	}
	if seeded && seed.Pending() > 0 {
		if si.u == nil {
			return nil, fmt.Errorf("table: column %q: restore pending updates: %w", sel, dberr.ErrUpdatesUnsupported)
		}
		si.u.SeedPending(seed.PendingInserts, seed.PendingDeletes)
	}
	t.indexes[sel] = si
	return si, nil
}

// Select returns the values of column sel falling in [lo, hi), cracking
// sel's index as a side effect — the single-attribute select the paper's
// experiments run.
func (t *Table) Select(sel string, lo, hi int64) ([]int64, error) {
	si, err := t.index(sel)
	if err != nil {
		return nil, err
	}
	res := si.query(lo, hi)
	return res.Materialize(make([]int64, 0, res.Count())), nil
}

// Apply queues a write batch against column sel: deletes first (matching
// the facade's batch order, so a delete in the same batch annihilates a
// matching queued insert), then inserts. Updates merge lazily on the next
// covering selection; other columns are untouched — cracking, and
// updating, is per attribute.
func (t *Table) Apply(sel string, inserts, deletes []int64) error {
	si, err := t.index(sel)
	if err != nil {
		return err
	}
	if si.u == nil {
		return fmt.Errorf("table: algorithm %q: %w", t.algo, dberr.ErrUpdatesUnsupported)
	}
	si.u.DeleteMany(deletes)
	si.u.InsertMany(inserts)
	return nil
}

// PendingUpdates reports queued, not-yet-merged updates across all column
// indexes.
func (t *Table) PendingUpdates() int {
	n := 0
	for _, si := range t.indexes {
		if si.u != nil {
			n += si.u.Pending()
		}
	}
	return n
}

// SelectProject answers SELECT proj FROM t WHERE lo <= sel AND sel < hi
// with late tuple reconstruction: the selection column is cracked as a
// side effect, and proj is fetched from its base column through the
// row-id payload.
func (t *Table) SelectProject(sel, proj string, lo, hi int64) ([]int64, error) {
	if err := t.projectable(sel, proj); err != nil {
		return nil, err
	}
	base, ok := t.base[proj]
	if !ok {
		return nil, fmt.Errorf("table: %w %q", dberr.ErrUnknownColumn, proj)
	}
	si, err := t.index(sel)
	if err != nil {
		return nil, err
	}
	res := si.ix.Query(lo, hi)
	col := si.e.Column()
	out := make([]int64, 0, res.Count())
	if res.ViewLen() == res.Count() {
		// Pure view: project the contiguous qualifying area by row id.
		for i := res.ViewLo(); i < res.ViewHi(); i++ {
			out = append(out, base[col.RowIDs[i]])
		}
		return out, nil
	}
	// Stochastic variants materialize end pieces without row ids; recover
	// them by scanning the (now partially cracked) end pieces for
	// qualifying values. The middle view still projects contiguously.
	if hi <= lo {
		return out, nil
	}
	plo, _, _, _, phi, _ := si.e.CrackerIndex().Bounds(lo, hi, col.Len())
	for i := plo; i < phi; i++ {
		if v := col.Values[i]; lo <= v && v < hi {
			out = append(out, base[col.RowIDs[i]])
		}
	}
	return out, nil
}

// SelectProjectSideways answers the same query through a sideways cracker
// map: the projected attribute physically travels with the selection
// attribute during cracking, so the projection is one contiguous copy.
// The map is built lazily for each (sel, proj) pair and cracked
// query-driven.
func (t *Table) SelectProjectSideways(sel, proj string, lo, hi int64) ([]int64, error) {
	if err := t.projectable(sel, proj); err != nil {
		return nil, err
	}
	m, err := t.sidewaysMap(sel, proj)
	if err != nil {
		return nil, err
	}
	if lo >= hi {
		return nil, nil
	}
	p1 := m.crackBound(lo)
	p2 := m.crackBound(hi)
	return append([]int64(nil), m.col.Payload[p1:p2]...), nil
}

// Maps returns the number of sideways maps materialized so far.
func (t *Table) Maps() int { return len(t.maps) }

func (t *Table) sidewaysMap(sel, proj string) (*crackerMap, error) {
	key := [2]string{sel, proj}
	if m, ok := t.maps[key]; ok {
		return m, nil
	}
	selBase, ok := t.base[sel]
	if !ok {
		return nil, fmt.Errorf("table: %w %q", dberr.ErrUnknownColumn, sel)
	}
	projBase, ok := t.base[proj]
	if !ok {
		return nil, fmt.Errorf("table: %w %q", dberr.ErrUnknownColumn, proj)
	}
	m := &crackerMap{
		col: column.NewWithPayload(
			append([]int64(nil), selBase...),
			append([]int64(nil), projBase...)),
		idx: &cindex.Tree{},
	}
	t.maps[key] = m
	return m, nil
}

// projectable reports whether the cross-column projection paths can
// serve (sel, proj): both reconstruction strategies assume base columns
// aligned row-for-row with the selection index, which restored columns
// (row ids dropped at capture) and written-to columns (updates never
// touch base) no longer guarantee.
func (t *Table) projectable(sel, proj string) error {
	for _, name := range [2]string{sel, proj} {
		if t.restored[name] {
			return fmt.Errorf("table: column %q was restored from a snapshot, projections need row alignment: %w",
				name, dberr.ErrSnapshotUnsupported)
		}
		if si, ok := t.indexes[name]; ok && si.u != nil && (si.u.Pending() > 0 || si.u.Merged() > 0) {
			return fmt.Errorf("table: column %q has updates, projections read the immutable base: %w",
				name, dberr.ErrUpdatesUnsupported)
		}
	}
	return nil
}

// captureState snapshots one built column index: the engine's physical
// state plus the update wrapper's pending queues, with the row-id payload
// dropped — table snapshots capture per-column value state only (see
// snapshot.TableColumn).
func captureState(si *selIndex) core.SnapshotState {
	st := si.e.Snapshot()
	st.RowIDs = nil
	if si.u != nil {
		st.PendingInserts, st.PendingDeletes = si.u.PendingSnapshot()
	}
	return st
}

// columnState returns column name's current snapshot state whether the
// index is built (live engine capture), seeded-but-unbuilt (the unconsumed
// restore seed, cracks intact), or cold (base values, no cracks).
func (t *Table) columnState(name string) core.SnapshotState {
	if si, ok := t.indexes[name]; ok {
		return captureState(si)
	}
	if st, ok := t.seeds[name]; ok {
		return st
	}
	return core.SnapshotState{Values: append([]int64(nil), t.base[name]...)}
}

// Snapshot captures the whole table as a table manifest: one column entry
// per attribute, each holding that column's cracked state and pending
// update queues. Never-queried columns snapshot as their base values with
// no cracks; restored-but-untouched columns re-emit their seed state, so
// adaptation is never lost by a save/load cycle.
func (t *Table) Snapshot() (snapshot.Manifest, error) {
	cols := make([]snapshot.TableColumn, 0, len(t.names))
	for _, name := range t.names {
		st := t.columnState(name)
		cols = append(cols, snapshot.TableColumn{
			Name:  name,
			Parts: []snapshot.Part{snapshot.ClampedPart(math.MinInt64, math.MaxInt64, st)},
		})
	}
	m := snapshot.Table(cols)
	if err := m.Validate(); err != nil {
		return snapshot.Manifest{}, err
	}
	return m, nil
}

// sizesFromState derives piece sizes from a snapshot state's crack set —
// the piece profile the column will report once rebuilt from it.
func sizesFromState(st core.SnapshotState) []int {
	sizes := make([]int, 0, len(st.Cracks)+1)
	prev := 0
	for _, c := range st.Cracks {
		if c.Pos > prev {
			sizes = append(sizes, c.Pos-prev)
			prev = c.Pos
		}
	}
	return append(sizes, len(st.Values)-prev)
}

// PieceSizes reports current piece sizes column by column, in column-name
// order: built columns from their live cracker index, seeded columns from
// the seed's cracks, cold columns as one unbroken piece.
func (t *Table) PieceSizes() []int {
	var sizes []int
	for _, name := range t.names {
		if si, ok := t.indexes[name]; ok {
			sizes = append(sizes, stats.SizesFromBounds(si.e.CrackerIndex().Pieces(si.e.Column().Len()))...)
			continue
		}
		if st, ok := t.seeds[name]; ok {
			sizes = append(sizes, sizesFromState(st)...)
			continue
		}
		sizes = append(sizes, len(t.base[name]))
	}
	return sizes
}

// crackBound cracks the map on v (query-driven), keeping the projected
// values aligned through the column's tandem payload, and returns the
// crack position.
func (m *crackerMap) crackBound(v int64) int {
	lo, hi, exact := m.idx.PieceFor(v, m.col.Len())
	if exact {
		return lo
	}
	p := m.col.CrackInTwo(lo, hi, v)
	m.idx.Insert(v, p)
	return p
}
