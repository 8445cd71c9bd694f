// Package table implements the multi-column context database cracking
// lives in (paper §2): a column-store table where cracking is applied at
// the attribute level — a query reorganizes only the columns it
// references — and other attributes are reconstructed on demand.
//
// Projection is sideways cracking (after Idreos et al. [18], simplified):
// for an attribute pair (A, B) where queries select on A and project B, a
// cracker map holds B's values physically aligned with a cracked copy of
// A — the partition swaps move both attributes together — so projection
// is a contiguous copy, never random access. A map is an index of the
// table's own algorithm with B as its column's tandem payload, so it
// cracks as a selection on A would, and a stochastic table's maps stay
// robust on sequential patterns, with one difference: a map still cracks
// a bound's piece of at most core.Options.NoCrackSize tuples, which a
// selection scans, because it answers through the payload view and a
// probe's answer carries no payload. Maps are created lazily on first
// use and refined adaptively like any other cracker column ("pieces of
// cracker columns are dynamically created ... based on storage
// restrictions", §2).
//
// Selection uses any core cracking algorithm. Every column is one
// exec.Backend in the table's mode — one executor with its lock elided in
// Single mode, one executor in Shared mode, k range-partitioned executors in Sharded(k)
// mode — built at open over the slice the caller handed in, which the
// table then owns. Columns share no physical state, so queries on
// different columns of a concurrent table run fully in parallel.
//
// Projection is single-threaded and builds its maps from an immutable
// row-order base, so only a Single table with at least two columns
// projects: it keeps each adopted slice as that base and makes the
// column's cracker copy on the column's first selection or write
// (original cracking's "cracker column on first query").
//
// A single-column database is a one-column table whose column is unnamed.
package table

import (
	"errors"
	"fmt"
	"iter"
	"maps"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/dberr"
	"repro/internal/exec"
	"repro/internal/snapshot"
)

// Table is a column-store table: named columns of equal length. Selections
// and writes through Column are safe for concurrent use in the Shared and
// Sharded modes; SelectProject, which only Single tables serve, is not.
type Table struct {
	names []string // sorted
	// cols[i] is column names[i], made at construction: a query finds its
	// column without a lock.
	cols  []slot
	rows  int
	algo  string
	opt   core.Options
	mode  exec.Mode            // Shards clamped to the row count
	group *exec.BatcherOptions // nil without group commit

	maps map[[2]string]core.Index // sideways maps keyed by (sel, proj)
}

// slot is one column. In a projection table (see New) base is the
// adopted row-order slice and col stays nil until the column's first use;
// every other column is built at open and has no base. Concurrent tables
// never change a slot after construction.
type slot struct {
	base []int64
	col  *exec.Column
}

// New creates a table from named columns, all of equal length, served in
// mode; the table owns the slices afterwards. algorithm selects the
// cracking flavor for selection indexes (any engine-backed core spec,
// e.g. "crack", "dd1r", "pmdd1r-10"; others fail with
// dberr.ErrUnknownAlgorithm); a non-nil group attaches a group-commit
// batcher to every column backend.
func New(cols map[string][]int64, algorithm string, mode exec.Mode, opt core.Options, group *exec.BatcherOptions) (*Table, error) {
	names := slices.Sorted(maps.Keys(cols))
	rows := 0
	for i, name := range names {
		if i == 0 {
			rows = len(cols[name])
		} else if len(cols[name]) != rows {
			return nil, fmt.Errorf("table: column %q has %d rows, want %d", name, len(cols[name]), rows)
		}
	}
	t, err := newTable(names, rows, algorithm, mode, opt, group)
	if err != nil {
		return nil, err
	}
	if mode.Kind == exec.ModeSingle && len(names) > 1 { // a projection table
		if _, err := exec.Build(nil, algorithm, t.mode, opt); err != nil {
			return nil, err // the columns build on first use: check the spec now
		}
		for i, name := range names {
			t.cols[i].base = cols[name]
		}
		return t, nil
	}
	for i, name := range names {
		b, err := exec.Build(cols[name], algorithm, t.mode, opt)
		if err != nil {
			return nil, err
		}
		t.cols[i].col = exec.NewColumn(b, t.group)
	}
	return t, nil
}

// Restore rebuilds a table from a valid manifest (see
// snapshot.Manifest.Validate): one column per manifest column, the
// unnamed one making a single-column database. Each column resumes from
// its captured parts (cracks and pending queues included) through
// exec.Restore, so a Sharded(k) table restored with the captured k keeps
// its shard bounds. Restored columns have no row-order base, so a
// restored table answers every per-column selection exactly but rejects
// SelectProject with dberr.ErrSnapshotUnsupported.
func Restore(m snapshot.Manifest, algorithm string, mode exec.Mode, opt core.Options, group *exec.BatcherOptions) (*Table, error) {
	names := make([]string, len(m.Columns))
	for i, c := range m.Columns {
		names[i] = c.Name
	}
	// Columns may hold different counts once per-column updates merged;
	// Rows reports the widest. Pending inserts stay out of the count
	// until they merge.
	t, err := newTable(names, m.Rows(), algorithm, mode, opt, group)
	if err != nil {
		return nil, err
	}
	for i, c := range m.Columns {
		b, err := exec.Restore(c.Parts, algorithm, t.mode, opt)
		if err != nil {
			return nil, err
		}
		t.cols[i].col = exec.NewColumn(b, t.group)
	}
	return t, nil
}

// newTable makes a table with one empty slot per name (sorted).
func newTable(names []string, rows int, algorithm string, mode exec.Mode, opt core.Options, group *exec.BatcherOptions) (*Table, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("table: no columns")
	}
	if mode.Kind == exec.ModeSharded {
		mode.Shards = max(mode.Shards, 1)
		if rows > 0 {
			mode.Shards = min(mode.Shards, rows)
		}
	}
	return &Table{names: names, cols: make([]slot, len(names)), rows: rows,
		algo: algorithm, opt: opt, mode: mode, group: group, maps: make(map[[2]string]core.Index)}, nil
}

// unnamed reports whether t is a single-column database: one column,
// named "".
func (t *Table) unnamed() bool { return len(t.names) == 1 && t.names[0] == "" }

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Columns returns the column names in deterministic (sorted) order, or nil
// for a single-column database.
func (t *Table) Columns() []string {
	if t.unnamed() {
		return nil
	}
	return slices.Clone(t.names)
}

// Name identifies the configuration: "table", "table(sharded-k)", or a
// single-column database's backend name (e.g. "exec(updatable(dd1r))").
func (t *Table) Name() string {
	switch {
	case t.unnamed():
		return t.cols[0].col.Name()
	case t.mode.Kind == exec.ModeSharded:
		return "table(" + t.mode.String() + ")"
	}
	return "table"
}

// slot resolves a column name to its index in names and cols: ""
// names a one-column table's only column.
func (t *Table) slot(name string) (int, error) {
	if name == "" && len(t.names) == 1 {
		return 0, nil // every query of a single-column database
	}
	if i, ok := slices.BinarySearch(t.names, name); ok {
		return i, nil
	}
	if name == "" {
		return 0, fmt.Errorf("table: no column named (scope predicates with Predicate.On, writes with ApplyBatchOn): %w",
			dberr.ErrUnknownColumn)
	}
	return 0, fmt.Errorf("table: %w %q", dberr.ErrUnknownColumn, name)
}

// Column returns column name's backend ("" names a one-column table's
// only column).
func (t *Table) Column(name string) (*exec.Column, error) {
	i, err := t.slot(name)
	if err != nil {
		return nil, err
	}
	return t.column(i)
}

// column returns column i's backend. A projection table's column is made
// here on first use: a cracker copy of its base. Projection tables are
// Single, so nothing races the build.
func (t *Table) column(i int) (*exec.Column, error) {
	s := &t.cols[i]
	if s.col == nil {
		b, err := exec.Build(slices.Clone(s.base), t.algo, t.mode, t.opt)
		if err != nil {
			return nil, err
		}
		s.col = exec.NewColumn(b, t.group)
	}
	return s.col, nil
}

// built yields the built column backends in column order, without
// allocating: Pending and Stats sit on converged query paths.
func (t *Table) built() iter.Seq[*exec.Column] {
	return func(yield func(*exec.Column) bool) {
		for i := range t.cols {
			if c := t.cols[i].col; c != nil && !yield(c) {
				return
			}
		}
	}
}

// Stats aggregates physical-cost counters over the built columns and the
// sideways maps; a projection table's unqueried columns report nothing.
func (t *Table) Stats() core.Stats {
	var agg core.Stats
	add := func(st core.Stats) {
		agg.Queries += st.Queries
		agg.Touched += st.Touched
		agg.Swaps += st.Swaps
		agg.Cracks += st.Cracks
		agg.Pieces += st.Pieces
	}
	for c := range t.built() {
		add(c.Stats())
	}
	for _, m := range t.maps {
		add(m.Stats())
	}
	return agg
}

// Pending reports queued, not-yet-merged updates across all columns.
func (t *Table) Pending() int {
	n := 0
	for c := range t.built() {
		n += c.Pending()
	}
	return n
}

// PathStats sums the read-path and write-path query counts across the
// built columns.
func (t *Table) PathStats() (reads, writes int64) {
	for c := range t.built() {
		r, w := c.PathStats()
		reads += r
		writes += w
	}
	return reads, writes
}

// GroupCommitStats aggregates batcher counters across the columns; ok
// reports whether group commit is enabled at all.
func (t *Table) GroupCommitStats() (agg exec.BatcherStats, ok bool) {
	if t.group == nil {
		return exec.BatcherStats{}, false
	}
	for c := range t.built() {
		st := c.Batch.Stats()
		agg.BatchSize, agg.MaxWait = st.BatchSize, st.MaxWait // resolved, alike in every batcher
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
	for c := range t.built() {
		if c.Batch != nil {
			c.Batch.Close()
		}
	}
}

// PieceSizes reports current piece sizes column by column, in column-name
// order: built columns from their live cracker indexes (drained, so the
// sizes are consistent), a projection table's unqueried columns as one
// unbroken piece.
func (t *Table) PieceSizes() []int {
	var sizes []int
	for i := range t.cols {
		s := &t.cols[i]
		if s.col == nil {
			sizes = append(sizes, len(s.base))
			continue
		}
		sizes = append(sizes, exec.PieceSizes(s.col)...)
	}
	return sizes
}

// Snapshot captures the whole table as a manifest: one entry per column
// (the unnamed one for a single-column database) holding its cracked
// state and pending queues, one part per shard in Sharded mode. Built
// columns drain while they are captured; a projection table's unqueried
// columns capture their base values with no cracks. Each column's
// capture is atomic; the cut is per column, matching the independence of
// per-column updates.
func (t *Table) Snapshot() snapshot.Manifest {
	cols := make([]snapshot.TableColumn, len(t.names))
	for i, name := range t.names {
		cols[i].Name = name
		s := &t.cols[i]
		if s.col == nil {
			cols[i].Parts = snapshot.Parts{{Lo: math.MinInt64, Hi: math.MaxInt64,
				State: core.SnapshotState{Values: slices.Clone(s.base)}}}
			continue
		}
		cols[i].Parts = exec.CaptureParts(s.col)
	}
	return snapshot.Manifest{Columns: cols}
}

// SelectProject answers SELECT proj FROM t WHERE lo <= sel AND sel < hi
// through the sideways map of (sel, proj), built on the pair's first
// projection from copies of the two base columns and cracked by the
// table's algorithm as a side effect. A view answer is one contiguous
// copy of the projected values.
func (t *Table) SelectProject(sel, proj string, lo, hi int64) ([]int64, error) {
	i, j, err := t.projectable(sel, proj)
	if err != nil {
		return nil, err
	}
	key := [2]string{t.names[i], t.names[j]}
	m, ok := t.maps[key]
	if !ok {
		opt := t.opt
		opt.Payload = slices.Clone(t.cols[j].base)
		if m, err = core.Build(slices.Clone(t.cols[i].base), t.algo, opt); err != nil {
			return nil, err
		}
		t.maps[key] = m
	}
	res := m.Query(lo, hi)
	e := m.(interface{ Engine() *core.Engine }).Engine() // every served spec has one
	col := e.Column()
	if n := res.ViewLen(); n == res.Count() {
		return slices.Clone(col.Payload[res.ViewLo() : res.ViewLo()+n]), nil
	}
	// MDD1R and the progressive variants materialize end pieces without
	// their payload: rescan the pieces holding the answer, now partially
	// cracked, for qualifying values.
	out := make([]int64, 0, res.Count())
	plo, _, _, _, phi, _, _ := e.CrackerIndex().Bounds(lo, hi, col.Len())
	for k := plo; k < phi; k++ {
		if v := col.Values[k]; lo <= v && v < hi {
			out = append(out, col.Payload[k])
		}
	}
	return out, nil
}

// Maps returns the number of sideways maps materialized so far.
func (t *Table) Maps() int { return len(t.maps) }

// projectable reports whether SelectProject can serve (sel, proj),
// returning the two columns' indexes. Maps are single-threaded and built
// from base columns aligned row for row, which restored columns (they
// have no base) and written-to columns (updates never touch base) do not
// offer.
func (t *Table) projectable(sel, proj string) (i, j int, err error) {
	if j, err = t.slot(proj); err != nil || len(t.names) < 2 {
		return 0, 0, fmt.Errorf("table: no column %q to project: %w", proj, dberr.ErrUnknownColumn)
	}
	if t.mode.Kind != exec.ModeSingle {
		return 0, 0, fmt.Errorf("table: projection on a %s table: %w", t.mode, errors.ErrUnsupported)
	}
	if i, err = t.slot(sel); err != nil {
		return 0, 0, err
	}
	for _, s := range [2]*slot{&t.cols[i], &t.cols[j]} {
		if s.base == nil {
			return 0, 0, fmt.Errorf("table: a column was restored from a snapshot, projections need row alignment: %w",
				dberr.ErrSnapshotUnsupported)
		}
		if c := s.col; c != nil && written(c) {
			return 0, 0, fmt.Errorf("table: a column has updates, projections read the immutable base: %w",
				dberr.ErrUpdatesUnsupported)
		}
	}
	return i, j, nil
}

// written reports whether column c has taken a write, queued or merged.
func written(c *exec.Column) (w bool) {
	c.Capture(func(_, _ int64, inner exec.Index) { w = w || inner.Pending() > 0 || inner.Merged() > 0 })
	return w
}
