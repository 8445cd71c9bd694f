// Benchmarks regenerating every table and figure of the paper at
// testing.B scale (one benchmark per table/figure; the full-scale series
// come from cmd/crackbench, which prints the actual rows).
//
// Each benchmark iteration executes one complete (algorithm × workload)
// cell — data build, index build, Q queries — so ns/op is the cell's total
// cost; tuples-touched per query is reported as a custom metric, the
// paper's machine-independent cost measure.
package crackdb_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// benchConfig is the testing.B scale: big enough that piece-size
// thresholds (L1/L2) still matter, small enough for -bench=. to finish.
func benchConfig() bench.Config {
	return bench.Config{N: 100_000, Q: 200, S: 10, Seed: 42}
}

// runCell executes one (algorithm × workload) cell per iteration.
func runCell(b *testing.B, cfg bench.Config, spec, wl string) {
	b.Helper()
	var lastTouched int64
	for i := 0; i < b.N; i++ {
		s, err := bench.Run(cfg, spec, wl)
		if err != nil {
			b.Fatal(err)
		}
		lastTouched = s.Final.Touched
	}
	b.ReportMetric(float64(lastTouched)/float64(cfg.Q), "tuples/query")
}

// cells runs a grid of sub-benchmarks.
func cells(b *testing.B, cfg bench.Config, workloads, specs []string) {
	for _, wl := range workloads {
		for _, spec := range specs {
			b.Run(wl+"/"+spec, func(b *testing.B) { runCell(b, cfg, spec, wl) })
		}
	}
}

// BenchmarkFig02 — basic cracking performance: Scan vs Crack vs Sort on
// the random and sequential workloads (Fig. 2 a-e; the touched metric is
// Fig. 2(e)).
func BenchmarkFig02(b *testing.B) {
	cells(b, benchConfig(), []string{"random", "sequential"}, []string{"scan", "crack", "sort"})
}

// BenchmarkFig08 — DDC piece-size threshold sweep on the sequential
// workload (Fig. 8's table).
func BenchmarkFig08(b *testing.B) {
	cfg := benchConfig()
	for _, th := range []struct {
		label string
		size  int
	}{{"L1_4", 1024}, {"L1_2", 2048}, {"L1", 4096}, {"L2", 32768}, {"3L2", 98304}} {
		b.Run(th.label, func(b *testing.B) {
			data := bench.MakeData(cfg.N, cfg.Seed)
			gen, err := workload.New("sequential", workload.Params{N: cfg.N, Q: cfg.Q, S: cfg.S, Seed: cfg.Seed})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				ix := core.NewDDC(append([]int64(nil), data...), core.Options{Seed: cfg.Seed, CrackSize: th.size})
				if _, err := bench.RunIndex(cfg, ix, gen, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig09 — stochastic cracking variants on the sequential
// workload (Fig. 9 a-c).
func BenchmarkFig09(b *testing.B) {
	cells(b, benchConfig(), []string{"sequential"},
		[]string{"sort", "crack", "ddc", "ddr", "dd1c", "dd1r",
			"pmdd1r-100", "pmdd1r-50", "pmdd1r-10", "pmdd1r-1"})
}

// BenchmarkFig10 — the same variants on the random workload (Fig. 10).
func BenchmarkFig10(b *testing.B) {
	cells(b, benchConfig(), []string{"random"},
		[]string{"sort", "ddc", "dd1c", "ddr", "dd1r", "pmdd1r-50", "crack"})
}

// BenchmarkFig11 — selectivity sweep (Fig. 11's table): selectivity as a
// fraction of N over both workloads for the table's five algorithms.
func BenchmarkFig11(b *testing.B) {
	cfg := benchConfig()
	for _, wl := range []string{"random", "sequential"} {
		for _, sel := range []struct {
			label string
			s     int64
		}{{"sel1e-4", 10}, {"sel1pct", 1000}, {"sel10pct", 10000}, {"sel50pct", 50000}} {
			for _, spec := range []string{"scan", "sort", "crack", "dd1r", "pmdd1r-10"} {
				c := cfg
				c.S = sel.s
				b.Run(fmt.Sprintf("%s/%s/%s", wl, sel.label, spec), func(b *testing.B) {
					runCell(b, c, spec, wl)
				})
			}
		}
	}
}

// BenchmarkFig12 — naive random-query injection vs integrated stochastic
// cracking on the sequential workload (Fig. 12).
func BenchmarkFig12(b *testing.B) {
	cells(b, benchConfig(), []string{"sequential"},
		[]string{"crack", "r1crack", "r2crack", "r4crack", "r8crack", "pmdd1r-10"})
}

// BenchmarkFig13 — the four workloads of Fig. 13 under Sort, Crack and
// the default stochastic cracking (P10%).
func BenchmarkFig13(b *testing.B) {
	cells(b, benchConfig(), []string{"periodic", "zoomout", "zoomin", "zoominalt"},
		[]string{"sort", "crack", "pmdd1r-10"})
}

// BenchmarkFig14 — partition/merge hybrids and their stochastic variants
// on the sequential workload (Fig. 14).
func BenchmarkFig14(b *testing.B) {
	cells(b, benchConfig(), []string{"sequential"},
		[]string{"aics", "aicc", "crack", "aics1r", "aicc1r"})
}

// BenchmarkFig15 — updates: 10 random inserts per 10 queries interleaved
// with the sequential workload (Fig. 15).
func BenchmarkFig15(b *testing.B) {
	cfg := benchConfig()
	for _, spec := range []string{"crack", "pmdd1r-10"} {
		b.Run(spec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := xrand.New(cfg.Seed + 99)
				_, err := bench.RunWithUpdates(cfg, spec, "sequential", func(q int, u bench.Updater) {
					if q%10 == 0 {
						for k := 0; k < 10; k++ {
							u.Insert(rng.Int63n(cfg.N))
						}
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16 — the synthetic SkyServer trace (Fig. 16a).
func BenchmarkFig16(b *testing.B) {
	cells(b, benchConfig(), []string{"skyserver"}, []string{"crack", "pmdd1r-10", "sort", "scan"})
}

// BenchmarkFig17 — every workload × the four strategies of Fig. 17's
// table (Scrack = MDD1R there).
func BenchmarkFig17(b *testing.B) {
	cfg := benchConfig()
	cfg.N = 50_000
	cfg.Q = 100
	cells(b, cfg, workload.Names(), []string{"crack", "mdd1r", "fiftyfifty", "flipcoin"})
}

// BenchmarkFig18 — selective stochastic cracking every X queries on the
// SkyServer trace (Fig. 18's table).
func BenchmarkFig18(b *testing.B) {
	cfg := benchConfig()
	for _, x := range []int{1, 2, 4, 8, 16, 32} {
		spec := fmt.Sprintf("every-%d", x)
		if x == 1 {
			spec = "mdd1r"
		}
		b.Run(fmt.Sprintf("X%d", x), func(b *testing.B) { runCell(b, cfg, spec, "skyserver") })
	}
}

// BenchmarkFig19 — monitored stochastic cracking with varying per-piece
// threshold on the SkyServer trace (Fig. 19's table).
func BenchmarkFig19(b *testing.B) {
	cfg := benchConfig()
	for _, x := range []int{1, 5, 10, 50, 100, 500} {
		b.Run(fmt.Sprintf("X%d", x), func(b *testing.B) {
			runCell(b, cfg, fmt.Sprintf("scrackmon-%d", x), "skyserver")
		})
	}
}

// BenchmarkFig20 — the summary tradeoff (Fig. 20): total cost vs
// initialization cost for DD1R and progressive variants.
func BenchmarkFig20(b *testing.B) {
	cells(b, benchConfig(), []string{"sequential"}, []string{"dd1r", "pmdd1r-5", "pmdd1r-10"})
}

// ---- Ablations (design choices called out in DESIGN.md §5) -------------

// BenchmarkAblationSizeSelective — the paper reports that falling back to
// original cracking below L1 is 2-3x slower than pure stochastic
// cracking on most workloads.
func BenchmarkAblationSizeSelective(b *testing.B) {
	cells(b, benchConfig(), []string{"sequential", "random"}, []string{"mdd1r", "sizeselective"})
}

// BenchmarkAblationScrackMonOverhead — per-piece counters (scrackmon-1)
// vs the equivalent counter-free continuous stochastic cracking (mdd1r).
func BenchmarkAblationScrackMonOverhead(b *testing.B) {
	cells(b, benchConfig(), []string{"skyserver"}, []string{"mdd1r", "scrackmon-1"})
}

// BenchmarkAblationSwapBudget — progressive swap budget sweep beyond the
// paper's three points.
func BenchmarkAblationSwapBudget(b *testing.B) {
	specs := []string{"pmdd1r-1", "pmdd1r-2", "pmdd1r-5", "pmdd1r-10", "pmdd1r-25", "pmdd1r-50", "pmdd1r-100"}
	cells(b, benchConfig(), []string{"sequential"}, specs)
}

// BenchmarkAblationCrackInThreeVsTwoPass — the first-query optimization:
// one three-way partition pass vs two two-way passes.
func BenchmarkAblationCrackInThreeVsTwoPass(b *testing.B) {
	vals := xrand.New(1).Perm(1 << 20)
	lo, hi := int64(1<<18), int64(3<<18)
	b.Run("crack-in-three", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := column.New(append([]int64(nil), vals...))
			b.StartTimer()
			c.CrackInThree(0, c.Len(), lo, hi)
		}
	})
	b.Run("two-crack-in-two", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := column.New(append([]int64(nil), vals...))
			b.StartTimer()
			p := c.CrackInTwo(0, c.Len(), lo)
			c.CrackInTwo(p, c.Len(), hi)
		}
	})
}

// BenchmarkAblationViewVsMaterialize — returning a view (Crack/Sort) vs
// materializing the result (Scan contract) on a converged index.
func BenchmarkAblationViewVsMaterialize(b *testing.B) {
	const n = 1 << 20
	ix := core.NewCrack(xrand.New(2).Perm(n), core.Options{Seed: 1})
	ix.Query(1000, 50_000) // converge the relevant cracks
	var dst []int64
	b.Run("view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := ix.Query(1000, 50_000)
			if res.Count() != 49_000 {
				b.Fatal("bad count")
			}
		}
	})
	b.Run("materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := ix.Query(1000, 50_000)
			dst = res.Materialize(dst[:0])
			if len(dst) != 49_000 {
				b.Fatal("bad count")
			}
		}
	})
}

// BenchmarkConvergedQuery — steady-state point-range query latency across
// algorithms after 10^3 adaptation queries (the "flat part" of every
// cumulative curve).
func BenchmarkConvergedQuery(b *testing.B) {
	const n = 1 << 20
	for _, spec := range []string{"crack", "dd1r", "mdd1r", "pmdd1r-10", "sort"} {
		b.Run(spec, func(b *testing.B) {
			ix, err := core.Build(xrand.New(3).Perm(n), spec, core.Options{Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.New(4)
			for i := 0; i < 1000; i++ {
				a := rng.Int63n(n - 100)
				ix.Query(a, a+100)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := rng.Int63n(n - 100)
				if res := ix.Query(a, a+100); res.Count() != 100 {
					b.Fatal("bad count")
				}
			}
		})
	}
}
