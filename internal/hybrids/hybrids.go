// Package hybrids implements the adaptive indexing hybrids of Idreos et
// al. [19] that the paper evaluates in Fig. 14 — Crack-Crack (AICC) and
// Crack-Sort (AICS) — together with the paper's stochastic extensions
// AICC1R and AICS1R, which add a DD1R-style random crack to every source
// partition cracking step.
//
// Partition/merge logic: the column is split into k source partitions,
// each cracked independently. When a query requests a value range that has
// not been merged yet, every source partition is cracked on the range's
// bounds and the qualifying tuples are merged into a final store — kept as
// sorted runs by AICS (incremental merge sort flavor) or as independently
// cracked runs by AICC (incremental quicksort flavor). A value-interval
// set records merged ranges so each range is merged exactly once; later
// queries are served from the final store alone.
//
// Reproduction note (DESIGN.md §4): unlike [19]'s implementation, source
// partitions are not physically compacted after a merge; merged ranges are
// masked by the interval set instead. The workload-robustness behavior
// under study — repeated cracking of large source pieces when the
// workload provides no random access pattern — is unaffected.
package hybrids

import (
	"fmt"
	"slices"

	"repro/internal/cindex"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/dberr"
	"repro/internal/intervals"
	"repro/internal/xrand"
)

// Kind selects the final-store organization.
type Kind int

const (
	// CrackCrack (AICC): merged runs are cracked on demand.
	CrackCrack Kind = iota
	// CrackSort (AICS): merged runs are sorted on merge.
	CrackSort
)

// Options configure a hybrid index.
type Options struct {
	// NumPartitions is the number of source partitions (default: column
	// size / 2^20, at least 2 — mirroring [19]'s memory-sized partitions).
	NumPartitions int
	// CrackSize bounds the auxiliary random cracks of the 1R variants,
	// exactly like core.Options.CrackSize. Default core.DefaultCrackSize.
	CrackSize int
	// Seed drives random pivots.
	Seed uint64
}

func (o Options) withDefaults(n int) Options {
	if o.NumPartitions <= 0 {
		o.NumPartitions = n / (1 << 20)
		if o.NumPartitions < 2 {
			o.NumPartitions = 2
		}
	}
	if o.NumPartitions > n && n > 0 {
		o.NumPartitions = n
	}
	if o.CrackSize <= 0 {
		o.CrackSize = core.DefaultCrackSize
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// part is one source partition: a slice of the original column with its
// own cracker index.
type part struct {
	col *column.Column
	idx *cindex.Tree
}

// run is one merged chunk of the final store, covering the value interval
// [lo, hi). AICS runs are sorted; AICC runs carry their own cracker index
// and are cracked on demand.
type run struct {
	lo, hi int64
	col    *column.Column
	idx    *cindex.Tree // nil for sorted (AICS) runs
}

// Hybrid is an AICC/AICS adaptive index (optionally with stochastic source
// cracking).
type Hybrid struct {
	kind       Kind
	stochastic bool
	opt        Options
	rng        *xrand.Rand

	parts  []*part
	merged intervals.Set
	runs   []*run

	queries int64
	out     []int64 // reusable result buffer
	scratch []int64 // reusable merge buffer
}

// New builds a hybrid adaptive index over values. stochastic selects the
// 1R variants (AICC1R/AICS1R).
func New(values []int64, kind Kind, stochastic bool, opt Options) *Hybrid {
	opt = opt.withDefaults(len(values))
	h := &Hybrid{kind: kind, stochastic: stochastic, opt: opt, rng: xrand.New(opt.Seed)}
	k := opt.NumPartitions
	if len(values) == 0 {
		k = 0
	}
	column.OnHugePages(values) // the partitions adopt the caller's array
	for i := 0; i < k; i++ {
		lo := i * len(values) / k
		hi := (i + 1) * len(values) / k
		h.parts = append(h.parts, &part{col: column.New(values[lo:hi]), idx: &cindex.Tree{}})
	}
	return h
}

// Name implements the harness naming convention.
func (h *Hybrid) Name() string {
	base := "aicc"
	if h.kind == CrackSort {
		base = "aics"
	}
	if h.stochastic {
		base += "1r"
	}
	return base
}

// Stats aggregates the physical-cost counters across source partitions and
// final-store runs.
func (h *Hybrid) Stats() core.Stats {
	s := core.Stats{Queries: h.queries}
	for _, p := range h.parts {
		s.Touched += p.col.Stats.Touched
		s.Swaps += p.col.Stats.Swaps
		s.Cracks += p.idx.Len()
	}
	for _, r := range h.runs {
		s.Touched += r.col.Stats.Touched
		s.Swaps += r.col.Stats.Swaps
		if r.idx != nil {
			s.Cracks += r.idx.Len()
		}
	}
	s.Pieces = s.Cracks + len(h.parts) + len(h.runs)
	return s
}

// Runs returns the number of merged runs in the final store.
func (h *Hybrid) Runs() int { return len(h.runs) }

// Query answers [a, b): it merges any not-yet-merged sub-ranges from the
// source partitions into the final store, then assembles the result from
// the overlapping runs. Hybrid results are materialized (runs are not
// contiguous with one another).
func (h *Hybrid) Query(a, b int64) core.Result {
	h.queries++
	h.out = h.out[:0]
	if a >= b {
		return core.NewMaterializedResult(nil)
	}
	for _, m := range h.merged.Missing(a, b) {
		h.mergeRange(m[0], m[1])
	}
	h.merged.Add(a, b)

	for _, r := range h.runs {
		if r.hi <= a || r.lo >= b {
			continue
		}
		h.out = h.appendFromRun(r, a, b, h.out)
	}
	return core.NewMaterializedResult(h.out)
}

// mergeRange cracks every source partition on [ma, mb), copies the
// qualifying tuples out, and installs them as a new final-store run.
func (h *Hybrid) mergeRange(ma, mb int64) {
	h.scratch = h.scratch[:0]
	for _, p := range h.parts {
		lo := h.crackPart(p, ma)
		hi := h.crackPart(p, mb)
		h.scratch = append(h.scratch, p.col.Values[lo:hi]...)
		p.col.Stats.Touched += int64(hi - lo) // the copy out of the partition
	}
	vals := append([]int64(nil), h.scratch...)
	r := &run{lo: ma, hi: mb, col: column.New(vals)}
	if h.kind == CrackSort {
		slices.Sort(r.col.Values)
		if n := len(vals); n > 1 {
			r.col.Stats.Touched += int64(n) * int64(logCeil(n))
		}
	} else {
		r.idx = &cindex.Tree{}
	}
	h.runs = append(h.runs, r)
}

// crackPart cracks one source partition on bound v (original cracking, or
// DD1R-style with one random auxiliary crack for the 1R variants) and
// returns the crack position.
func (h *Hybrid) crackPart(p *part, v int64) int {
	lo, hi, exact := p.idx.PieceFor(v, p.col.Len())
	if exact {
		return lo
	}
	if h.stochastic && hi-lo > h.opt.CrackSize {
		pivot := p.col.Values[lo+h.rng.Intn(hi-lo)]
		pos := p.col.CrackInTwo(lo, hi, pivot)
		if pos == lo {
			pivot++
			pos = p.col.CrackInTwo(lo, hi, pivot)
		}
		if pos > lo && pos < hi {
			p.idx.Insert(pivot, pos)
			if v < pivot {
				hi = pos
			} else {
				lo = pos
			}
		}
	}
	pos := p.col.CrackInTwo(lo, hi, v)
	p.idx.Insert(v, pos)
	return pos
}

// appendFromRun appends the run's values falling in [a, b) to out. Runs
// whose interval is fully inside the query qualify wholesale; partial
// overlaps use binary search (sorted runs) or cracking (cracked runs).
func (h *Hybrid) appendFromRun(r *run, a, b int64, out []int64) []int64 {
	if a <= r.lo && r.hi <= b {
		r.col.Stats.Touched += int64(r.col.Len())
		return append(out, r.col.Values...)
	}
	qa, qb := a, b
	if qa < r.lo {
		qa = r.lo
	}
	if qb > r.hi {
		qb = r.hi
	}
	if r.idx == nil { // sorted run
		vals := r.col.Values
		lo, _ := slices.BinarySearch(vals, qa)
		hi, _ := slices.BinarySearch(vals, qb)
		r.col.Stats.Touched += int64(2 * logCeil(len(vals)+1))
		return append(out, vals[lo:hi]...)
	}
	// cracked run: crack on demand, exactly like a tiny cracker column.
	lo := h.crackRun(r, qa)
	hi := h.crackRun(r, qb)
	r.col.Stats.Touched += int64(hi - lo)
	return append(out, r.col.Values[lo:hi]...)
}

func (h *Hybrid) crackRun(r *run, v int64) int {
	lo, hi, exact := r.idx.PieceFor(v, r.col.Len())
	if exact {
		return lo
	}
	pos := r.col.CrackInTwo(lo, hi, v)
	r.idx.Insert(v, pos)
	return pos
}

func logCeil(n int) int {
	l := 0
	for (1 << l) < n {
		l++
	}
	return l
}

// Build constructs a hybrid by spec name: aicc, aics, aicc1r, aics1r.
func Build(values []int64, spec string, opt Options) (*Hybrid, error) {
	switch spec {
	case "aicc":
		return New(values, CrackCrack, false, opt), nil
	case "aics":
		return New(values, CrackSort, false, opt), nil
	case "aicc1r":
		return New(values, CrackCrack, true, opt), nil
	case "aics1r":
		return New(values, CrackSort, true, opt), nil
	}
	return nil, fmt.Errorf("hybrids: %w %q", dberr.ErrUnknownAlgorithm, spec)
}

// Specs lists the buildable hybrid algorithm names.
func Specs() []string { return []string{"aicc", "aics", "aicc1r", "aics1r"} }
