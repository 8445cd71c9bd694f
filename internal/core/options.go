// Package core implements the adaptive indexing algorithms of the paper:
// original database cracking, the full-index and scan baselines, the
// stochastic cracking family (DDC, DDR, DD1C, DD1R, MDD1R), progressive
// stochastic cracking (PMDD1R), the selective variants (FiftyFifty,
// FlipCoin, EveryX, ScrackMon, SizeSelective) and the naive random-query
// injection strategies (RXcrack).
//
// All algorithms share one Engine: a cracker column (internal/column) plus
// a cracker index (internal/cindex) plus a seeded PRNG. Each algorithm is a
// different policy for how a select operator's range [a, b) reorganizes the
// column; the policies are small and composable, exactly as the paper
// presents them (§4: "all our algorithms are proposed as replacements for
// the original cracking physical reorganization algorithm").
package core

// Cache-derived defaults, expressed in tuples of 8 bytes. The paper found
// the L1 cache size to be the best piece-size threshold for recursive
// stochastic cracking (Fig. 8) and uses the L2 size as the cutoff below
// which progressive cracking hands over to plain MDD1R.
const (
	// DefaultCrackSize is an L1-sized piece threshold: 32 KB / 8 B.
	DefaultCrackSize = 4096
	// DefaultProgressiveSize is an L2-sized piece threshold: 256 KB / 8 B.
	DefaultProgressiveSize = 32768
	// DefaultSwapPct is the progressive swap budget (P10% in the paper,
	// its default stochastic cracking strategy for most experiments).
	DefaultSwapPct = 10
	// DefaultNoCrackSize is the piece-size threshold (tuples) below which
	// the concurrent executor answers queries by scanning the piece under a
	// shared lock instead of cracking it under an exclusive one: 1 KB of
	// values, cheap enough that further splitting buys nothing.
	DefaultNoCrackSize = 128
	// DefaultParallelCrackMin is the piece-size threshold (tuples) at or
	// above which crack operations route through the parallel partition
	// kernel when parallel cracking is enabled: 1M tuples (8 MB) — far
	// past every cache level, where the kernel is memory-bandwidth-bound
	// and chunked multi-core partitioning pays for its coordination.
	DefaultParallelCrackMin = 1 << 20
)

// Options configure an Engine. The zero value selects the paper's defaults.
type Options struct {
	// CrackSize is the piece-size threshold (in tuples) below which DDC,
	// DDR, DD1C and DD1R stop introducing auxiliary cracks, and below
	// which SizeSelective switches back to original cracking.
	// Defaults to DefaultCrackSize (≈ L1).
	CrackSize int

	// ProgressiveSize is the piece-size threshold (in tuples) above which
	// progressive cracking spreads a crack across queries; at or below it,
	// full MDD1R takes over. Defaults to DefaultProgressiveSize (≈ L2).
	ProgressiveSize int

	// SwapPct is the progressive swap budget as a percentage of the piece
	// size (P1%..P100%). Defaults to DefaultSwapPct. 100 makes PMDD1R
	// behave exactly like MDD1R.
	SwapPct int

	// NoCrackSize is the piece-size threshold (in tuples) at or below which
	// TryAnswerReadOnly treats a query bound as converged: the piece
	// is scanned read-only instead of being cracked. Defaults to
	// DefaultNoCrackSize; set it negative to require exact cracks.
	NoCrackSize int

	// ParallelCrackMin is the piece-size threshold (tuples) at or above
	// which values-only crack operations run the chunked parallel
	// partition kernel (column.ParallelCrackInTwo and friends) on the
	// process-wide worker pool; smaller pieces keep the serial branchless
	// kernel. 0 (the default) disables parallel cracking entirely; set it
	// to DefaultParallelCrackMin for the standard threshold. The parallel
	// kernel preserves split positions and per-side multisets exactly, but
	// not the order within a side, so cross-seed physical-layout
	// determinism holds only at equal GOMAXPROCS relative to the serial
	// kernel's layout — see column's serial-equivalence contract.
	ParallelCrackMin int

	// CoarseInitPieces pre-cuts the column into about this many
	// value-ranged pieces at build time (coarse-granular initialization,
	// after Alvarez et al.): pivots are sampled from the data, the cuts
	// run through the same crack kernels (parallel when ParallelCrackMin
	// allows) and are recorded as real cracks in the cracker index, so no
	// later query ever pays a full-column crack. 0 or 1 disables (the
	// default: the paper's algorithms start from a completely uncracked
	// column). Ignored by Restore — a snapshot already carries its earned
	// refinement.
	CoarseInitPieces int

	// Seed drives every random choice (pivots, coin flips, injected
	// queries). Two indexes built with the same seed, data and query
	// sequence behave identically. Defaults to 1.
	Seed uint64

	// TrackRowIDs attaches a row-identifier payload that is permuted in
	// tandem with the values, as a column-store's (rowid, value) pairs.
	TrackRowIDs bool
}

func (o Options) withDefaults() Options {
	if o.CrackSize <= 0 {
		o.CrackSize = DefaultCrackSize
	}
	if o.CrackSize < 2 {
		o.CrackSize = 2
	}
	if o.ProgressiveSize <= 0 {
		o.ProgressiveSize = DefaultProgressiveSize
	}
	if o.SwapPct <= 0 {
		o.SwapPct = DefaultSwapPct
	}
	if o.SwapPct > 100 {
		o.SwapPct = 100
	}
	if o.NoCrackSize == 0 {
		o.NoCrackSize = DefaultNoCrackSize
	}
	if o.NoCrackSize < 0 {
		o.NoCrackSize = 0
	}
	if o.ParallelCrackMin < 0 {
		o.ParallelCrackMin = 0
	}
	if o.CoarseInitPieces < 0 {
		o.CoarseInitPieces = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Stats reports the cumulative physical cost of an index since creation.
type Stats struct {
	// Queries answered so far.
	Queries int64
	// Touched is the number of tuples examined by reorganizations and
	// scans — the cost metric of the paper's Fig. 2(e).
	Touched int64
	// Swaps counts tuple movements during reorganization. It is a
	// kernel-level diagnostic, not a cross-kernel comparable: the
	// branchless values-only kernels count each displaced qualifying
	// tuple, the tandem (rowid/payload) kernels count Hoare pair
	// exchanges. Compare physical cost across algorithms with Touched.
	Swaps int64
	// Cracks is the number of cracks in the cracker index.
	Cracks int
	// Pieces is Cracks+1: the number of column pieces.
	Pieces int
}
