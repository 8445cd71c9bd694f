package core

import (
	"math/bits"
	"slices"
	"sort"
)

// Crack is original database cracking [16]: each select operator cracks
// the column exactly on its query bounds (crack-in-three when both bounds
// fall in one piece, crack-in-two per bound otherwise) and returns the
// qualifying tuples as a contiguous view.
type Crack struct {
	e *Engine
}

// NewCrack builds an original-cracking index over values.
func NewCrack(values []int64, opt Options) *Crack {
	return &Crack{e: newEngine(values, opt)}
}

// Query answers [a, b), cracking the column on a and b.
func (c *Crack) Query(a, b int64) Result {
	return c.e.queryMixed(a, b, neverStochastic)
}

// Name implements Index.
func (c *Crack) Name() string { return "crack" }

// Stats implements Index.
func (c *Crack) Stats() Stats { return c.e.stats() }

// Engine exposes the underlying engine (harness and demo tooling).
func (c *Crack) Engine() *Engine { return c.e }

func neverStochastic(_, _ int, _ int64) bool { return false }

// Scan is the non-indexing baseline: every query scans the entire column
// and materializes the qualifying tuples into a result array (the paper
// stresses that Scan, unlike Crack and Sort, cannot return a view).
type Scan struct {
	e *Engine
}

// NewScan builds a scan baseline over values.
func NewScan(values []int64, opt Options) *Scan {
	return &Scan{e: newEngine(values, opt)}
}

// Query scans the column for [a, b).
func (s *Scan) Query(a, b int64) Result {
	s.e.queries++
	res := Result{col: s.e.col}
	if a >= b {
		return res
	}
	e := s.e
	buf := e.leftBuf[:0]
	e.idx.Live(0, e.idx.End(e.col.Len()), func(lo, hi int) { buf = e.col.ScanMaterialize(lo, hi, a, b, buf) })
	e.leftBuf = buf
	res.left = buf
	return res
}

// Name implements Index.
func (s *Scan) Name() string { return "scan" }

// Stats implements Index.
func (s *Scan) Stats() Stats { return s.e.stats() }

// Engine exposes the underlying engine.
func (s *Scan) Engine() *Engine { return s.e }

// Sort is the full-index baseline: the first query pays for completely
// sorting the column; every query thereafter is two binary searches and a
// view (Fig. 2's "Sort" strategy).
type Sort struct {
	e      *Engine
	sorted bool
}

// NewSort builds a full-indexing baseline over values.
func NewSort(values []int64, opt Options) *Sort {
	return &Sort{e: newEngine(values, opt)}
}

// Query sorts the column on first use, then binary-searches [a, b).
func (s *Sort) Query(a, b int64) Result {
	s.e.queries++
	res := Result{col: s.e.col}
	n := s.e.col.Len()
	if !s.sorted {
		if s.e.col.RowIDs != nil {
			sortWithRowIDs(s.e.col.Values, s.e.col.RowIDs)
		} else {
			slices.Sort(s.e.col.Values)
		}
		s.sorted = true
		// Analytic touched-tuples accounting for the sort: n*ceil(log2 n)
		// comparisons-worth of work, the conventional cost model. Wall
		// clock time is measured directly by the harness either way.
		if n > 1 {
			s.e.col.Stats.Touched += int64(n) * int64(bits.Len(uint(n-1)))
		}
	}
	if a >= b || n == 0 {
		return res
	}
	vals := s.e.col.Values
	lo, _ := slices.BinarySearch(vals, a)
	hi, _ := slices.BinarySearch(vals, b)
	s.e.col.Stats.Touched += int64(2 * bits.Len(uint(n)))
	res.lo, res.hi = lo, hi
	return res
}

// Name implements Index.
func (s *Sort) Name() string { return "sort" }

// Stats implements Index.
func (s *Sort) Stats() Stats { return s.e.stats() }

// sortWithRowIDs sorts values and keeps the rowid payload aligned.
func sortWithRowIDs(values []int64, ids []uint32) {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return values[idx[i]] < values[idx[j]] })
	vtmp := make([]int64, len(values))
	itmp := make([]uint32, len(ids))
	for i, j := range idx {
		vtmp[i] = values[j]
		itmp[i] = ids[j]
	}
	copy(values, vtmp)
	copy(ids, itmp)
}
