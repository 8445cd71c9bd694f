// Package bench is the measurement harness that regenerates every table
// and figure of the paper's evaluation (§3 Fig. 2, §5 Fig. 8-20).
//
// It builds the data exactly as the paper does — a seeded random
// permutation of the unique integers [0, N) — runs (algorithm × workload)
// cells while recording per-query wall-clock time and tuples touched, and
// renders the same rows/series the paper reports. Results are validated
// on the fly against a closed-form oracle (for permutation data, the
// count and sum of any value range are arithmetic).
//
// Scale note: the paper uses N = 10^8 on a 2009 Xeon; the harness default
// is N = 10^7 so the full suite completes in minutes. Shapes — who wins,
// by what factor, where curves flatten — are preserved; absolute seconds
// are not comparable across machines either way. Go-specific GC noise in
// per-query latencies is mitigated by the engines' buffer reuse and by a
// forced GC between cells.
//
// Three front-ends consume this package: cmd/crackbench (figures, the
// paper-vs-measured report, ASCII plots), cmd/benchgate (the CI kernel
// regression gate over gate.go's parser), and the facade's re-exports
// (MakeData, the workload constructors). Throughput and latency are
// measured by the separate benchmark/ module, not here.
package bench

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dberr"
	"repro/internal/hybrids"
	"repro/internal/updates"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Index is the common surface of core algorithms and hybrid indexes.
type Index interface {
	Query(a, b int64) core.Result
	Name() string
	Stats() core.Stats
}

// Config scales an experiment run.
type Config struct {
	N        int64  // column size / value domain (paper: 1e8; default 1e7)
	Q        int    // queries per cell (paper: 1e4 mostly; default 1e4)
	S        int64  // selectivity in tuples (paper default: 10)
	Seed     uint64 // seed for data, workloads and algorithms
	Validate bool   // check every result against the oracle
}

// WithDefaults fills unset fields with the harness defaults.
func (c Config) WithDefaults() Config {
	if c.N <= 0 {
		c.N = 10_000_000
	}
	if c.Q <= 0 {
		c.Q = 10_000
	}
	if c.S <= 0 {
		c.S = 10
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// MakeData builds the paper's dataset: a seeded shuffle of [0, n).
func MakeData(n int64, seed uint64) []int64 {
	return xrand.New(seed).Perm(int(n))
}

// Algorithms lists every spec the figure harness draws: the engine family
// the product serves, plus the paper's reference curves the product does
// not serve, the sorted baseline and the partition/merge hybrids.
func Algorithms() []string {
	return slices.Concat(core.Algorithms(), []string{"sort"}, hybrids.Specs())
}

// BuildIndex constructs any algorithm the harness draws — core or hybrid —
// over its own copy of data. crackSize overrides the CrackSize threshold
// (the threshold sweeps); 0 keeps the default.
func BuildIndex(data []int64, spec string, cfg Config, crackSize int) (Index, error) {
	values := append([]int64(nil), data...)
	ix, err := core.Build(values, spec, core.Options{Seed: cfg.Seed, CrackSize: crackSize})
	if !errors.Is(err, dberr.ErrUnknownAlgorithm) {
		return ix, err
	}
	h, err := hybrids.Build(values, spec, hybrids.Options{Seed: cfg.Seed, CrackSize: crackSize})
	if err != nil {
		return nil, fmt.Errorf("bench: %w %q", dberr.ErrUnknownAlgorithm, spec)
	}
	return h, nil
}

// Series is the outcome of one (algorithm × workload) cell: per-query and
// cumulative response times plus the machine-independent tuples-touched
// counters, exactly the quantities plotted in the paper.
type Series struct {
	Algo     string
	Workload string

	PerQueryNS   []int64 // response time of query i
	CumulativeNS []int64 // total time through query i
	Touched      []int64 // tuples touched by query i

	TotalNS int64
	Final   core.Stats
}

// At returns (per-query ns, cumulative ns, touched) for query index i.
func (s *Series) At(i int) (int64, int64, int64) {
	return s.PerQueryNS[i], s.CumulativeNS[i], s.Touched[i]
}

// oracle returns the closed-form (count, sum) of values in [a, b) within
// the permutation [0, n).
func oracle(a, b, n int64) (int64, int64) {
	if a < 0 {
		a = 0
	}
	if b > n {
		b = n
	}
	if a >= b {
		return 0, 0
	}
	count := b - a
	sum := (a + b - 1) * count / 2
	return count, sum
}

// Run executes one cell: algorithm spec over workload name under cfg.
func Run(cfg Config, spec, workloadName string) (*Series, error) {
	cfg = cfg.WithDefaults()
	data := MakeData(cfg.N, cfg.Seed)
	gen, err := workload.New(workloadName, workload.Params{N: cfg.N, Q: cfg.Q, S: cfg.S, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	ix, err := BuildIndex(data, spec, cfg, 0)
	if err != nil {
		return nil, err
	}
	return RunIndex(cfg, ix, gen, nil)
}

// Updater is the write surface an UpdateStream drives. Deletes must name
// a value the column holds at that point, so the oracle can track them.
type Updater interface {
	Insert(v int64)
	Delete(v int64)
}

// UpdateStream injects updates into a run: before query i, it is called
// and may queue inserts/deletes on the updatable index.
type UpdateStream func(i int, u Updater)

// netUpdates forwards a stream's updates to the wrapper and records their
// net effect on the value multiset as two sorted slices, which the oracle
// adds to the closed form of the untouched permutation.
type netUpdates struct {
	u        *updates.Index
	ins, del []int64
}

func (r *netUpdates) Insert(v int64) {
	r.u.Insert(v)
	r.ins = insertSorted(r.ins, v)
}

func (r *netUpdates) Delete(v int64) {
	r.u.Delete(v)
	if i, ok := slices.BinarySearch(r.ins, v); ok {
		r.ins = slices.Delete(r.ins, i, i+1) // cancels an earlier insert
		return
	}
	r.del = insertSorted(r.del, v)
}

// within returns the net (count, sum) the stream added inside [a, b).
func (r *netUpdates) within(a, b int64) (count, sum int64) {
	ic, is := sortedSpan(r.ins, a, b)
	dc, ds := sortedSpan(r.del, a, b)
	return ic - dc, is - ds
}

// sortedSpan returns the count and sum of the sorted vs inside [a, b).
func sortedSpan(vs []int64, a, b int64) (count, sum int64) {
	lo, _ := slices.BinarySearch(vs, a)
	hi, _ := slices.BinarySearch(vs, b)
	hi = max(lo, hi)
	for _, v := range vs[lo:hi] {
		sum += v
	}
	return int64(hi - lo), sum
}

func insertSorted(vs []int64, v int64) []int64 {
	i, _ := slices.BinarySearch(vs, v)
	return slices.Insert(vs, i, v)
}

// RunWithUpdates executes one cell with interleaved updates (Fig. 15),
// validating each answer (cfg.Validate) against the closed form plus the
// stream's net updates. The algorithm must be engine-backed (one of
// core.Algorithms).
func RunWithUpdates(cfg Config, spec, workloadName string, stream UpdateStream) (*Series, error) {
	cfg = cfg.WithDefaults()
	data := MakeData(cfg.N, cfg.Seed)
	gen, err := workload.New(workloadName, workload.Params{N: cfg.N, Q: cfg.Q, S: cfg.S, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	ix, err := core.Build(data, spec, core.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	u, ok := updates.Wrap(ix)
	if !ok {
		return nil, fmt.Errorf("bench: %q is not engine-backed; cannot take updates", spec)
	}
	net := &netUpdates{u: u}
	return runIndex(cfg, u, gen, func(i int, ix Index) {
		stream(i, net)
	}, net)
}

// RunIndex drives a prebuilt index through a workload. before, if
// non-nil, runs ahead of each query (outside the timed section only for
// update queueing; the merge cost itself lands in the query, as in [17]).
func RunIndex(cfg Config, ix Index, gen workload.Generator, before func(i int, ix Index)) (*Series, error) {
	return runIndex(cfg, ix, gen, before, nil)
}

// runIndex is RunIndex whose oracle also counts net's updates (nil: none).
func runIndex(cfg Config, ix Index, gen workload.Generator, before func(i int, ix Index), net *netUpdates) (*Series, error) {
	cfg = cfg.WithDefaults()
	s := &Series{
		Algo:         ix.Name(),
		Workload:     gen.Name(),
		PerQueryNS:   make([]int64, cfg.Q),
		CumulativeNS: make([]int64, cfg.Q),
		Touched:      make([]int64, cfg.Q),
	}
	gen.Reset()
	runtime.GC()
	var cum int64
	prevTouched := ix.Stats().Touched
	for i := 0; i < cfg.Q; i++ {
		a, b := gen.Next()
		if before != nil {
			before(i, ix)
		}
		t0 := time.Now()
		res := ix.Query(a, b)
		dt := time.Since(t0).Nanoseconds()
		if cfg.Validate {
			wc, ws := oracle(a, b, cfg.N)
			if net != nil {
				dc, ds := net.within(a, b)
				wc, ws = wc+dc, ws+ds
			}
			if int64(res.Count()) != wc || res.Sum() != ws {
				return nil, fmt.Errorf("bench: %s/%s query %d [%d,%d): got (%d,%d), want (%d,%d)",
					ix.Name(), gen.Name(), i, a, b, res.Count(), res.Sum(), wc, ws)
			}
		}
		cum += dt
		s.PerQueryNS[i] = dt
		s.CumulativeNS[i] = cum
		tt := ix.Stats().Touched
		s.Touched[i] = tt - prevTouched
		prevTouched = tt
	}
	s.TotalNS = cum
	s.Final = ix.Stats()
	return s, nil
}

// Checkpoints returns log-spaced query indices (1, 2, 4, ..., q), the
// x-axis sampling used by all of the paper's log-log plots.
func Checkpoints(q int) []int {
	var out []int
	for c := 1; c < q; c *= 2 {
		out = append(out, c)
	}
	out = append(out, q)
	return out
}

// Seconds formats nanoseconds the way the paper's tables report seconds.
func Seconds(ns int64) string {
	sec := float64(ns) / 1e9
	switch {
	case sec >= 100:
		return fmt.Sprintf("%.0f", sec)
	case sec >= 10:
		return fmt.Sprintf("%.1f", sec)
	case sec >= 1:
		return fmt.Sprintf("%.2f", sec)
	default:
		return fmt.Sprintf("%.3f", sec)
	}
}

// newWorkload builds a workload generator from a config.
func newWorkload(cfg Config, name string) (workload.Generator, error) {
	return workload.New(name, workload.Params{N: cfg.N, Q: cfg.Q, S: cfg.S, Seed: cfg.Seed})
}
