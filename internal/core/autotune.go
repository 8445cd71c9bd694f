package core

// AutoTune implements the future-work direction of the paper's §6:
// "combining the strengths of the various stochastic cracking algorithms
// via a dynamic component that decides which algorithm to choose for a
// query on the fly".
//
// The policy follows the paper's own cost analysis. The per-query cost of
// cracking is the number of tuples analyzed (§3); on friendly workloads
// it collapses within a handful of queries, while on hostile workloads it
// stays near N because large unindexed pieces are rescanned. AutoTune
// therefore answers queries with original cracking — keeping its slightly
// better constants on random workloads — while tracking an exponential
// moving average of tuples touched per query. When the average stays
// above a fraction of the column size after a grace period (the workload
// is not providing randomness), it switches to stochastic cracking
// (MDD1R) until the average falls back below the exit threshold: the
// system injects randomness exactly when the workload lacks it.
type AutoTune struct {
	e *Engine

	// ewma of tuples touched per query, in tuples.
	ewma float64
	// stochastic reports which mode the last query used.
	stochastic bool
	// switches counts mode changes (exported via Switches for tests and
	// observability).
	switches int
}

// autoTune policy constants: enter stochastic mode when the recent average
// query touches more than 1/enterFrac of the column, leave it below
// 1/exitFrac; grace queries run before the first decision; alpha is the
// EWMA smoothing factor.
const (
	autoTuneEnterFrac = 16
	autoTuneExitFrac  = 256
	autoTuneGrace     = 8
	autoTuneAlpha     = 0.25
)

// NewAutoTune builds a self-tuning index over values.
func NewAutoTune(values []int64, opt Options) *AutoTune {
	return &AutoTune{e: newEngine(values, opt)}
}

// Name implements Index.
func (t *AutoTune) Name() string { return "autotune" }

// Stats implements Index.
func (t *AutoTune) Stats() Stats { return t.e.stats() }

// Engine exposes the underlying engine.
func (t *AutoTune) Engine() *Engine { return t.e }

// Stochastic reports whether the index is currently in stochastic mode.
func (t *AutoTune) Stochastic() bool { return t.stochastic }

// Switches returns how many times the policy changed modes.
func (t *AutoTune) Switches() int { return t.switches }

// Query answers [a, b), choosing the cracking flavor by recent cost.
func (t *AutoTune) Query(a, b int64) Result {
	n := t.e.col.Len() - t.e.idx.Holes()
	before := t.e.col.Stats.Touched

	useStochastic := t.stochastic
	if t.e.queries < autoTuneGrace {
		useStochastic = false // observe the workload first
	}
	res := t.e.queryMixed(a, b, func(_, _ int, _ int64) bool { return useStochastic })

	touched := float64(t.e.col.Stats.Touched - before)
	if t.e.queries == 1 {
		t.ewma = touched
	} else {
		t.ewma = autoTuneAlpha*touched + (1-autoTuneAlpha)*t.ewma
	}
	if t.e.queries >= autoTuneGrace && n > 0 {
		switch {
		case !t.stochastic && t.ewma > float64(n)/autoTuneEnterFrac:
			t.stochastic = true
			t.switches++
		case t.stochastic && t.ewma < float64(n)/autoTuneExitFrac:
			t.stochastic = false
			t.switches++
		}
	}
	return res
}
