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
// Selection uses any core cracking algorithm. Every selection attribute
// gets its own exec.Backend, built lazily on first use in the table's
// mode: unsynchronized in Single mode, one executor in Shared mode, k
// range-partitioned executors in Sharded(k) mode. Columns share no
// physical state, so queries on different columns of a concurrent table
// run fully in parallel. Projection is single-threaded: only Single
// tables serve it, and only their columns track row ids.
package table

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cindex"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/dberr"
	"repro/internal/exec"
	"repro/internal/snapshot"
)

// Table is a column-store table: named columns of equal length. Selections
// and writes through Column are safe for concurrent use in the Shared and
// Sharded modes; the projection paths, which only Single tables serve, are
// not.
type Table struct {
	names []string
	// cols holds one slot per column, made at construction: the map is
	// read-only afterwards, so a query's slot lookup takes no lock.
	cols  map[string]*slot
	rows  int
	algo  string
	opt   core.Options
	mode  exec.Mode            // Shards clamped to the row count
	group *exec.BatcherOptions // nil without group commit; defaults resolved

	// buildMu serializes lazy column builds; PieceSizes and Snapshot hold
	// it throughout, so no column flips from cold to built mid-walk and a
	// write racing the capture of a cold column cannot be acknowledged and
	// then missed.
	buildMu sync.Mutex

	maps map[[2]string]*crackerMap // sideways maps keyed by (sel, proj)
}

// slot is one column: its base values, the snapshot parts a restored
// column resumes from, and its lazily built backend. once gates the
// O(rows) build so queries on built columns never wait for it; col is
// atomic because Stats and Pending peek at slots without entering once.
type slot struct {
	base []int64 // nil for a restored column
	// seed holds the captured parts of a restored column (nil otherwise),
	// row ids stripped, never modified. Kept unmerged so a Sharded(k)
	// restore keeps the captured shard bounds; without row ids the
	// projection paths reject the column.
	seed []snapshot.Part
	once sync.Once
	col  atomic.Pointer[exec.Column]
	err  error // read only after once.Do returns
}

// crackerMap is a sideways map: a copy of the selection attribute cracked
// query-driven, with the projected attribute permuted in tandem.
type crackerMap struct {
	col *column.Column
	idx *cindex.Tree
}

// New creates a table from named columns, all of equal length, served in
// mode. algorithm selects the cracking flavor for selection indexes (any
// core spec, e.g. "crack", "dd1r", "pmdd1r-10"); a non-nil group attaches
// a group-commit batcher to every column backend.
func New(cols map[string][]int64, algorithm string, mode exec.Mode, opt core.Options, group *exec.BatcherOptions) (*Table, error) {
	t := &Table{cols: make(map[string]*slot, len(cols)), rows: -1}
	for _, name := range slices.Sorted(maps.Keys(cols)) {
		vals := cols[name]
		if t.rows == -1 {
			t.rows = len(vals)
		} else if len(vals) != t.rows {
			return nil, fmt.Errorf("table: column %q has %d rows, want %d", name, len(vals), t.rows)
		}
		t.cols[name] = &slot{base: vals}
	}
	return t.init(algorithm, mode, opt, group)
}

// Restore rebuilds a table from a table manifest's columns: each column
// resumes from its captured parts (cracks and pending queues included),
// consumed lazily on the column's first use through exec.Restore, so a
// Sharded(k) table restored with the captured k keeps its shard bounds.
// Captured states carry no row ids, so the restored table answers every
// per-column selection exactly but rejects the projection paths with
// dberr.ErrSnapshotUnsupported.
func Restore(cols []snapshot.TableColumn, algorithm string, mode exec.Mode, opt core.Options, group *exec.BatcherOptions) (*Table, error) {
	t := &Table{cols: make(map[string]*slot, len(cols))}
	for _, c := range cols {
		if _, dup := t.cols[c.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column %q", c.Name)
		}
		parts := slices.Clone(c.Parts)
		for i := range parts {
			parts[i].State.RowIDs = nil // capture drops them; tolerate hand-built manifests
		}
		t.cols[c.Name] = &slot{seed: parts}
		// Columns may hold different counts once per-column updates merged;
		// report the widest. Pending inserts stay out of the count until
		// they merge — the same convention the single-column restore uses.
		t.rows = max(t.rows, snapshot.Manifest{Parts: parts}.Rows())
	}
	return t.init(algorithm, mode, opt, group)
}

// init completes a table whose slots are filled.
func (t *Table) init(algorithm string, mode exec.Mode, opt core.Options, group *exec.BatcherOptions) (*Table, error) {
	if len(t.cols) == 0 {
		return nil, fmt.Errorf("table: no columns")
	}
	if _, err := core.Build(nil, algorithm, opt); err != nil {
		return nil, err // validate the algorithm spec eagerly
	}
	if mode.Kind == exec.ModeSharded {
		mode.Shards = max(mode.Shards, 1)
		if t.rows > 0 {
			mode.Shards = min(mode.Shards, t.rows)
		}
	}
	if group != nil {
		resolved := group.Resolved()
		group = &resolved
	}
	t.names = slices.Sorted(maps.Keys(t.cols))
	t.algo, t.mode, t.opt, t.group = algorithm, mode, opt, group
	t.maps = make(map[[2]string]*crackerMap)
	return t, nil
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Columns returns the column names in deterministic (sorted) order.
func (t *Table) Columns() []string { return append([]string(nil), t.names...) }

// Name identifies the configuration: "table", or "table(sharded-k)".
func (t *Table) Name() string {
	if t.mode.Kind == exec.ModeSharded {
		return "table(" + t.mode.String() + ")"
	}
	return "table"
}

// slot resolves a column name to its slot, returning the name too: ""
// names a one-column table's only column.
func (t *Table) slot(name string) (string, *slot, error) {
	if name == "" {
		if len(t.names) != 1 {
			return "", nil, fmt.Errorf("table: no column named (scope predicates with Predicate.On, writes with ApplyBatchOn): %w",
				dberr.ErrUnknownColumn)
		}
		name = t.names[0]
	}
	s, ok := t.cols[name]
	if !ok {
		return "", nil, fmt.Errorf("table: %w %q", dberr.ErrUnknownColumn, name)
	}
	return name, s, nil
}

// Column returns column name's backend, building it on first use ("" names
// a one-column table's only column). The build runs under buildMu, so
// builds of different columns serialize with each other but never stall
// queries on columns that are already built.
func (t *Table) Column(name string) (*exec.Column, error) {
	_, s, err := t.slot(name)
	if err != nil {
		return nil, err
	}
	s.once.Do(func() {
		t.buildMu.Lock()
		defer t.buildMu.Unlock()
		c, err := t.build(s)
		if err != nil {
			s.err = err
			return
		}
		s.col.Store(c)
	})
	return s.col.Load(), s.err
}

// build constructs one column's backend in the table's mode: from its
// restore seed when the table came from a snapshot, else from a copy of
// its base values. Only Single tables track row ids: projection needs
// them, and the concurrent modes refuse projection.
func (t *Table) build(s *slot) (*exec.Column, error) {
	var b exec.Backend
	var err error
	if s.seed != nil {
		b, err = exec.Restore(s.seed, t.algo, t.mode, t.opt)
	} else {
		opt := t.opt
		opt.TrackRowIDs = t.mode.Kind == exec.ModeSingle
		b, err = exec.Build(slices.Clone(s.base), t.algo, t.mode, opt, 0)
	}
	if err != nil {
		return nil, err
	}
	return exec.NewColumn(b, t.group), nil
}

// built returns the built column backends (order unspecified).
func (t *Table) built() []*exec.Column {
	out := make([]*exec.Column, 0, len(t.cols))
	for _, s := range t.cols {
		if c := s.col.Load(); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// Stats aggregates physical-cost counters over the built columns and the
// sideways maps. Columns never queried cost, and report, nothing.
func (t *Table) Stats() core.Stats {
	var agg core.Stats
	for _, c := range t.built() {
		st := c.Stats()
		agg.Queries += st.Queries
		agg.Touched += st.Touched
		agg.Swaps += st.Swaps
		agg.Cracks += st.Cracks
		agg.Pieces += st.Pieces
	}
	for _, m := range t.maps {
		agg.Touched += m.col.Stats.Touched
		agg.Swaps += m.col.Stats.Swaps
		agg.Cracks += m.idx.Len()
		agg.Pieces += m.idx.Len() + 1
	}
	return agg
}

// Pending reports queued, not-yet-merged updates across all columns,
// including the queues a restored column has not consumed yet.
func (t *Table) Pending() int {
	n := 0
	for _, s := range t.cols {
		if c := s.col.Load(); c != nil {
			n += c.Pending()
		} else if s.seed != nil {
			n += snapshot.Manifest{Parts: s.seed}.Pending()
		}
	}
	return n
}

// PathStats sums the read-path and write-path query counts across the
// built columns.
func (t *Table) PathStats() (reads, writes int64) {
	for _, c := range t.built() {
		r, w := c.PathStats()
		reads += r
		writes += w
	}
	return reads, writes
}

// GroupCommitStats aggregates batcher counters across the built columns;
// ok reports whether group commit is enabled at all.
func (t *Table) GroupCommitStats() (agg exec.BatcherStats, ok bool) {
	if t.group == nil {
		return exec.BatcherStats{}, false
	}
	agg.BatchSize = t.group.BatchSize // resolved in init, like each batcher's
	agg.MaxWait = t.group.MaxWait
	for _, c := range t.built() {
		st := c.Batch.Stats()
		agg.Enqueued += st.Enqueued
		agg.Ops += st.Ops
		agg.Flushes += st.Flushes
		agg.MaxBatch = max(agg.MaxBatch, st.MaxBatch)
		agg.QueueNS += st.QueueNS
		agg.FlushNS += st.FlushNS
		agg.ApplyNS += st.ApplyNS
	}
	return agg, true
}

// Close shuts down the per-column group-commit batchers (no-op without
// group commit). In-flight enqueues drain first; later writes fail with
// exec.ErrBatcherClosed.
func (t *Table) Close() {
	for _, c := range t.built() {
		if c.Batch != nil {
			c.Batch.Close()
		}
	}
}

// PieceSizes reports current piece sizes column by column, in column-name
// order: built columns from their live cracker indexes (drained, so the
// sizes are consistent), restored columns from their seed's cracks, cold
// columns as one unbroken piece.
func (t *Table) PieceSizes() ([]int, error) {
	t.buildMu.Lock()
	defer t.buildMu.Unlock()
	var sizes []int
	for _, name := range t.names {
		s := t.cols[name]
		switch c := s.col.Load(); {
		case c != nil:
			cs, err := exec.PieceSizes(c)
			if err != nil {
				return nil, err
			}
			sizes = append(sizes, cs...)
		case s.seed != nil:
			for _, p := range s.seed {
				sizes = append(sizes, sizesFromState(p.State)...)
			}
		default:
			sizes = append(sizes, len(s.base))
		}
	}
	return sizes, nil
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

// Snapshot captures the whole table as a table manifest: one entry per
// column holding its cracked state and pending queues — one part per
// shard in Sharded mode — with row ids dropped (see snapshot.TableColumn).
// Built columns drain while they are captured; never-queried columns
// capture their base values with no cracks, and restored-but-untouched
// columns re-emit their seed, so a save/load cycle never loses
// adaptation. Each column's capture is atomic; the cut is per column,
// matching the independence of per-column updates.
func (t *Table) Snapshot() (snapshot.Manifest, error) {
	t.buildMu.Lock()
	defer t.buildMu.Unlock()
	cols := make([]snapshot.TableColumn, 0, len(t.names))
	for _, name := range t.names {
		s := t.cols[name]
		var parts []snapshot.Part
		if c := s.col.Load(); c != nil {
			var err error
			if parts, err = exec.CaptureParts(c); err != nil {
				return snapshot.Manifest{}, err
			}
			for i := range parts {
				parts[i].State.RowIDs = nil
			}
		} else if s.seed != nil {
			parts = s.seed
		} else {
			parts = []snapshot.Part{snapshot.ClampedPart(math.MinInt64, math.MaxInt64,
				core.SnapshotState{Values: slices.Clone(s.base)})}
		}
		cols = append(cols, snapshot.TableColumn{Name: name, Parts: parts})
	}
	m := snapshot.Table(cols)
	if err := m.Validate(); err != nil {
		return snapshot.Manifest{}, err
	}
	return m, nil
}

// SelectProject answers SELECT proj FROM t WHERE lo <= sel AND sel < hi
// with late tuple reconstruction: the selection column is cracked as a
// side effect, and proj is fetched from its base column through the
// row-id payload.
func (t *Table) SelectProject(sel, proj string, lo, hi int64) ([]int64, error) {
	sel, base, err := t.projectable(sel, proj)
	if err != nil {
		return nil, err
	}
	c, err := t.Column(sel)
	if err != nil {
		return nil, err
	}
	si := c.Backend.(*exec.Single) // projectable checked the mode
	res := si.Query(lo, hi)
	e := si.Engine()
	col := e.Column()
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
	plo, _, _, _, phi, _ := e.CrackerIndex().Bounds(lo, hi, col.Len())
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
	sel, projBase, err := t.projectable(sel, proj)
	if err != nil {
		return nil, err
	}
	key := [2]string{sel, proj}
	m, ok := t.maps[key]
	if !ok {
		m = &crackerMap{
			col: column.NewWithPayload(slices.Clone(t.cols[sel].base), slices.Clone(projBase)),
			idx: &cindex.Tree{},
		}
		t.maps[key] = m
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

// projectable reports whether the projection paths can serve (sel, proj),
// returning sel's resolved name and proj's base column. Both
// reconstruction strategies are single-threaded and assume base columns
// aligned row-for-row with the selection index, which restored columns
// (row ids dropped at capture) and written-to columns (updates never
// touch base) no longer guarantee.
func (t *Table) projectable(sel, proj string) (string, []int64, error) {
	if t.mode.Kind != exec.ModeSingle {
		return "", nil, fmt.Errorf("table: projection on a %s table: %w", t.mode, errors.ErrUnsupported)
	}
	ps, ok := t.cols[proj]
	if !ok {
		return "", nil, fmt.Errorf("table: no column %q to project: %w", proj, dberr.ErrUnknownColumn)
	}
	sel, ss, err := t.slot(sel)
	if err != nil {
		return "", nil, err
	}
	for _, s := range [2]*slot{ss, ps} {
		if s.seed != nil {
			return "", nil, fmt.Errorf("table: a column was restored from a snapshot, projections need row alignment: %w",
				dberr.ErrSnapshotUnsupported)
		}
		if c := s.col.Load(); c != nil && (c.Pending() > 0 || c.Backend.(*exec.Single).Merged() > 0) {
			return "", nil, fmt.Errorf("table: a column has updates, projections read the immutable base: %w",
				dberr.ErrUpdatesUnsupported)
		}
	}
	return sel, ps.base, nil
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
