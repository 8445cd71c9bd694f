// Package crackdb is a Go implementation of stochastic database cracking:
// adaptive, incremental, workload-robust indexing for main-memory
// column-stores, reproducing
//
//	Halim, Idreos, Karras, Yap.
//	"Stochastic Database Cracking: Towards Robust Adaptive Indexing in
//	Main-Memory Column-Stores." PVLDB 5(6), 2012.
//
// A cracking index starts as a plain unsorted array and physically
// reorganizes itself a little with every range query, using the query's
// bounds — and, in the stochastic variants, random pivots — as
// partitioning hints. There is no offline index building step: the first
// query is roughly as cheap as a scan, and performance converges toward a
// full index as a side effect of query processing.
//
// # Quick start
//
// The front door is the DB handle: one predicate-first query API across
// every execution strategy. Concurrency is a construction option, not a
// type you pick at every call site:
//
//	db, err := crackdb.Open(values, crackdb.DD1R)          // single-threaded
//	db, err := crackdb.Open(values, crackdb.DD1R,
//	        crackdb.WithConcurrency(crackdb.Shared))       // goroutine-safe
//	db, err := crackdb.Open(values, crackdb.DD1R,
//	        crackdb.WithConcurrency(crackdb.Sharded(8)))   // partitioned fan-out
//	if err != nil { ... }
//	res, err := db.Query(ctx, crackdb.Between(100, 199))   // 100 <= v <= 199
//	if err != nil { ... }
//	res.ForEach(func(v int64) { ... })
//
// Predicates translate SQL's comparison shapes onto the engine's
// half-open ranges (Between, Range, Less, Greater, Eq, ...), compose with
// And/Or, and scope to a column of a multi-column table with On:
//
//	tbl, err := crackdb.OpenTable(cols, crackdb.DD1R,
//	        crackdb.WithConcurrency(crackdb.Shared))
//	res, err := tbl.Query(ctx, crackdb.Greater(10).And(crackdb.Less(14)).On("ra"))
//
// Every read honors context cancellation — long batches and shard
// fan-outs abort between ranges — and failures wrap sentinel errors
// (ErrUnknownAlgorithm, ErrUpdatesUnsupported, ErrUnknownColumn, ...)
// for errors.Is classification.
//
// Latency-sensitive callers use the allocation-free forms: QueryAppend
// appends into a caller-owned buffer and QueryBatchAppend materializes a
// batch into a reusable BatchBuffer; with warmed buffers, converged
// queries perform zero heap allocations in Single and Shared modes.
//
// # Algorithms
//
// The paper's full algorithm family is available: original cracking
// (Crack), the Scan and Sort baselines, data-driven stochastic cracking
// (DDC, DDR, DD1C, DD1R), stochastic cracking with materialization
// (MDD1R), progressive stochastic cracking (PMDD1R / "P10%"), the
// selective variants (FiftyFifty, FlipCoin, EveryX, ScrackMon,
// SizeSelective), naive random-query injection (RXcrack), and the
// partition/merge hybrids (AICC, AICS, AICC1R, AICS1R).
//
// Use DD1R for the best total cost, PMDD1R for the lowest per-query
// overhead while adapting, and Crack to reproduce the original behavior.
package crackdb

import (
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/hybrids"
)

// Algorithm names accepted by Open. The parameterized families
// also accept spec strings like "pmdd1r-25", "every-4", "scrackmon-10"
// and "r4crack".
const (
	Scan          = "scan"
	Sort          = "sort"
	Crack         = "crack"
	DDC           = "ddc"
	DDR           = "ddr"
	DD1C          = "dd1c"
	DD1R          = "dd1r"
	MDD1R         = "mdd1r"
	PMDD1R        = "pmdd1r-10" // progressive stochastic cracking, P10%
	FiftyFifty    = "fiftyfifty"
	FlipCoin      = "flipcoin"
	SizeSelective = "sizeselective"
	AutoTune      = "autotune" // extension: dynamic algorithm choice (paper §6)
	AICC          = "aicc"
	AICS          = "aics"
	AICC1R        = "aicc1r"
	AICS1R        = "aics1r"
)

// Result is the outcome of a range query. Single-mode queries return a
// contiguous zero-copy view into the cracker column, possibly flanked by
// materialized end pieces, valid until the next query on the same handle;
// the concurrent modes return owned results, safe to retain. Use Count,
// Sum, ForEach, Materialize — or Owned, which is copy-free exactly when
// the result already owns its values.
type Result = core.Result

// NewResult wraps a caller-owned, fully materialized slice of qualifying
// values as a Result (its Owned method returns the slice without
// copying). The concurrent query paths use it; it is exported for
// harnesses that mix hand-built and queried results.
func NewResult(vals []int64) Result { return core.NewOwnedResult(vals) }

// Stats are cumulative physical-cost counters of an index.
type Stats = core.Stats

// Options configure an index; the zero value uses the paper's defaults
// (CrackSize = L1-sized pieces, ProgressiveSize = L2, SwapPct = 10).
type Options = core.Options

// Option customizes index construction.
type Option func(*config)

type config struct {
	core  core.Options
	conc  Concurrency
	group *exec.BatcherOptions // nil without WithGroupCommit
}

func applyOptions(opts []Option) config {
	cfg := config{}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithSeed fixes the random seed; identical seeds and query sequences
// reproduce identical physical layouts.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.core.Seed = seed }
}

// WithCrackSize sets the piece-size threshold (tuples) for the recursive
// stochastic variants and SizeSelective.
func WithCrackSize(tuples int) Option {
	return func(c *config) { c.core.CrackSize = tuples }
}

// WithProgressiveSize sets the piece-size threshold (tuples) above which
// progressive cracking spreads work across queries.
func WithProgressiveSize(tuples int) Option {
	return func(c *config) { c.core.ProgressiveSize = tuples }
}

// WithSwapBudget sets the progressive swap budget in percent (P1%..P100%).
func WithSwapBudget(pct int) Option {
	return func(c *config) { c.core.SwapPct = pct }
}

// WithParallelCrack routes crack operations on pieces of at least
// core.DefaultParallelCrackMin tuples through the chunked parallel
// partition kernel, which partitions on all cores via the process-wide
// worker pool. It preserves every crack's split position and per-side
// multiset exactly; only the physical order of values within a side may
// differ from the serial kernel's. Use WithParallelCrackMin to tune the
// threshold.
func WithParallelCrack() Option {
	return func(c *config) { c.core.ParallelCrackMin = core.DefaultParallelCrackMin }
}

// WithParallelCrackMin enables parallel cracking with an explicit
// piece-size threshold in tuples (see WithParallelCrack); 0 disables.
func WithParallelCrackMin(tuples int) Option {
	return func(c *config) { c.core.ParallelCrackMin = tuples }
}

// WithCoarseInit pre-cuts the column into about p value-ranged pieces at
// build time (coarse-granular initialization): the cuts are real cracks,
// recorded in the cracker index and charged to the index's cost counters,
// so no later query ever pays a full-column crack. Combined with
// WithParallelCrack the pre-cut itself runs on all cores. Snapshot
// restores ignore it — a snapshot already carries its earned refinement.
func WithCoarseInit(p int) Option {
	return func(c *config) { c.core.CoarseInitPieces = p }
}

// WithGroupCommit puts the group-commit batcher in front of the write
// path: concurrent Insert/Delete/ApplyBatch calls enqueue into one
// collector goroutine, which gathers up to batchSize values (flushing
// after at most maxWait) and applies the whole batch under a single
// exclusive lock acquisition — one write-lock handshake per flush
// instead of one per value. Acknowledgement semantics are unchanged: a
// call returns only after its values are applied, so an acknowledged
// write is visible to every later query and snapshot, exactly once.
// batchSize <= 0 and maxWait <= 0 select the defaults (128 values,
// 200µs). Group commit requires a concurrent mode; opening a Single-mode
// DB with it fails with errors.ErrUnsupported.
func WithGroupCommit(batchSize int, maxWait time.Duration) Option {
	return func(c *config) {
		c.group = &exec.BatcherOptions{BatchSize: batchSize, MaxWait: maxWait}
	}
}

// Algorithms returns every algorithm spec Open accepts (with
// representative parameters for the parameterized families).
func Algorithms() []string {
	return append(core.Algorithms(), hybrids.Specs()...)
}
