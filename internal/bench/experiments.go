package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig2", "Basic cracking performance: per-query, cumulative, tuples touched (Fig. 2)", runFig2},
		{"fig8", "Varying DDC piece-size threshold, sequential workload (Fig. 8)", runFig8},
		{"fig9", "Improving the sequential workload via stochastic cracking (Fig. 9)", runFig9},
		{"fig10", "Random workload: stochastic cracking keeps cracking's adaptivity (Fig. 10)", runFig10},
		{"fig11", "Varying selectivity (Fig. 11)", runFig11},
		{"fig12", "Naive approaches: injected random queries (Fig. 12)", runFig12},
		{"fig13", "Various workloads under stochastic cracking (Fig. 13)", runFig13},
		{"fig14", "Adaptive indexing hybrids and their stochastic variants (Fig. 14)", runFig14},
		{"fig15", "Updates interleaved with the sequential workload (Fig. 15)", runFig15},
		{"fig16", "SkyServer workload: cumulative time and access pattern (Fig. 16)", runFig16},
		{"fig17", "All workloads x selective strategies, cumulative seconds (Fig. 17)", runFig17},
		{"fig18", "Selective stochastic cracking with varying period, SkyServer (Fig. 18)", runFig18},
		{"fig19", "Selective stochastic cracking via monitoring, SkyServer (Fig. 19)", runFig19},
		{"fig20", "Initialization cost vs total cost, sequential workload (Fig. 20)", runFig20},
		{"patterns", "Workload access patterns (Fig. 7 and Fig. 16b)", runPatterns},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// printSeriesHeader emits the gnuplot-friendly column header used by the
// figure experiments.
func printSeriesHeader(w io.Writer) {
	fmt.Fprintf(w, "%-14s %-14s %8s %14s %14s %14s\n",
		"algorithm", "workload", "query", "per-query(ms)", "cumulative(s)", "touched")
}

func printSeriesCheckpoints(w io.Writer, s *Series) {
	for _, c := range Checkpoints(len(s.PerQueryNS)) {
		per, cum, touched := s.At(c - 1)
		fmt.Fprintf(w, "%-14s %-14s %8d %14.4f %14s %14d\n",
			s.Algo, s.Workload, c, float64(per)/1e6, Seconds(cum), touched)
	}
}

func runCells(cfg Config, w io.Writer, workloads, specs []string) error {
	printSeriesHeader(w)
	for _, wl := range workloads {
		for _, spec := range specs {
			s, err := Run(cfg, spec, wl)
			if err != nil {
				return err
			}
			printSeriesCheckpoints(w, s)
			fmt.Fprintln(w)
		}
	}
	return nil
}

// ---- Fig. 2 -------------------------------------------------------------

func runFig2(cfg Config, w io.Writer) error {
	fmt.Fprintln(w, "# Fig. 2(a,b): per-query response time; (c,d): cumulative; (e): tuples touched")
	fmt.Fprintln(w, "# paper shape: random -> Crack converges toward Sort, never penalized vs Scan;")
	fmt.Fprintln(w, "#              sequential -> Crack stays at Scan level; touched stays ~N")
	return runCells(cfg, w, []string{"random", "sequential"}, []string{"scan", "crack", "sort"})
}

// ---- Fig. 8 -------------------------------------------------------------

func runFig8(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "# Fig. 8: cumulative seconds for the sequential workload under DDC")
	fmt.Fprintln(w, "# varying the piece-size threshold CRACK_AT (L1 = 4096 tuples, L2 = 32768)")
	thresholds := []struct {
		label string
		size  int
	}{
		{"L1/4", core.DefaultCrackSize / 4},
		{"L1/2", core.DefaultCrackSize / 2},
		{"L1", core.DefaultCrackSize},
		{"L2", core.DefaultProgressiveSize},
		{"3L2", 3 * core.DefaultProgressiveSize},
	}
	fmt.Fprintf(w, "%-10s %-10s %14s\n", "threshold", "tuples", "cumulative(s)")
	data := MakeData(cfg.N, cfg.Seed)
	for _, th := range thresholds {
		ix := core.NewDDC(append([]int64(nil), data...), core.Options{Seed: cfg.Seed, CrackSize: th.size})
		gen, err := workload.New("sequential", workload.Params{N: cfg.N, Q: cfg.Q, S: cfg.S, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		s, err := RunIndex(cfg, ix, gen, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %-10d %14s\n", th.label, th.size, Seconds(s.TotalNS))
	}
	return nil
}

// ---- Fig. 9 / 10 --------------------------------------------------------

func runFig9(cfg Config, w io.Writer) error {
	fmt.Fprintln(w, "# Fig. 9: sequential workload, cumulative response time")
	fmt.Fprintln(w, "# (a) DDC/DDR; (b) DD1C/DD1R; (c) progressive P100/P50/P10/P1; plus Crack, Sort")
	return runCells(cfg, w, []string{"sequential"},
		[]string{"sort", "crack", "ddc", "ddr", "dd1c", "dd1r",
			"pmdd1r-100", "pmdd1r-50", "pmdd1r-10", "pmdd1r-1"})
}

func runFig10(cfg Config, w io.Writer) error {
	fmt.Fprintln(w, "# Fig. 10: random workload, cumulative response time")
	fmt.Fprintln(w, "# paper shape: all stochastic variants track original cracking closely")
	return runCells(cfg, w, []string{"random"},
		[]string{"sort", "ddc", "dd1c", "ddr", "dd1r", "pmdd1r-50", "crack"})
}

// ---- Fig. 11 ------------------------------------------------------------

// selGenerator wraps a base workload, overriding selectivity with a random
// width per query ("Rand" column of Fig. 11).
type randSelGenerator struct {
	base workload.Generator
	n    int64
	rng  *xrand.Rand
	seed uint64
}

func (g *randSelGenerator) Name() string { return g.base.Name() + "+randsel" }
func (g *randSelGenerator) Reset() {
	g.base.Reset()
	g.rng.Seed(g.seed)
}
func (g *randSelGenerator) Next() (int64, int64) {
	lo, _ := g.base.Next()
	width := g.rng.Int63n(g.n-lo) + 1
	return lo, lo + width
}

func runFig11(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	if cfg.Q > 1000 {
		cfg.Q = 1000 // the paper's Fig. 11 uses 10^3 queries
	}
	fmt.Fprintln(w, "# Fig. 11: cumulative seconds for 10^3 queries, varying selectivity")
	fmt.Fprintln(w, "# selectivity given as fraction of N (1e-7 of 1e8 = the paper's 10-tuple default)")
	specs := []string{"scan", "sort", "crack", "dd1r", "pmdd1r-10"}
	sels := []struct {
		label string
		frac  float64
		rand  bool
	}{
		{"1e-7", 1e-7, false},
		{"1e-4", 1e-4, false},
		{"10%", 0.1, false},
		{"50%", 0.5, false},
		{"Rand", 0, true},
	}
	for _, wl := range []string{"random", "sequential"} {
		fmt.Fprintf(w, "\n%s workload\n", wl)
		fmt.Fprintf(w, "%-12s", "algorithm")
		for _, s := range sels {
			fmt.Fprintf(w, " %10s", s.label)
		}
		fmt.Fprintln(w)
		for _, spec := range specs {
			fmt.Fprintf(w, "%-12s", spec)
			for _, sel := range sels {
				c := cfg
				c.S = int64(sel.frac * float64(cfg.N))
				if c.S < 1 {
					c.S = 10
				}
				var gen workload.Generator
				var err error
				base, err := workload.New(wl, workload.Params{N: c.N, Q: c.Q, S: c.S, Seed: c.Seed})
				if err != nil {
					return err
				}
				gen = base
				if sel.rand {
					gen = &randSelGenerator{base: base, n: c.N, rng: xrand.New(c.Seed + 7), seed: c.Seed + 7}
				}
				ix, err := BuildIndex(MakeData(c.N, c.Seed), spec, c, 0)
				if err != nil {
					return err
				}
				s, err := RunIndex(c, ix, gen, nil)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %10s", Seconds(s.TotalNS))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// ---- Fig. 12 ------------------------------------------------------------

func runFig12(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	if cfg.Q > 1000 {
		cfg.Q = 1000 // Fig. 12 plots 10^3 queries
	}
	fmt.Fprintln(w, "# Fig. 12: naive random-query injection vs integrated stochastic cracking")
	fmt.Fprintln(w, "# paper shape: RXcrack ~10x better than Crack; Scrack another ~10x and converges")
	return runCells(cfg, w, []string{"sequential"},
		[]string{"crack", "r1crack", "r2crack", "r4crack", "r8crack", "pmdd1r-10"})
}

// ---- Fig. 13 ------------------------------------------------------------

func runFig13(cfg Config, w io.Writer) error {
	fmt.Fprintln(w, "# Fig. 13: cumulative time on Periodic / ZoomOut / ZoomIn / ZoomInAlt")
	fmt.Fprintln(w, "# Scrack = progressive stochastic cracking P10% (the paper's default)")
	return runCells(cfg, w,
		[]string{"periodic", "zoomout", "zoomin", "zoominalt"},
		[]string{"sort", "crack", "pmdd1r-10"})
}

// ---- Fig. 14 ------------------------------------------------------------

func runFig14(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	if cfg.Q > 1000 {
		cfg.Q = 1000 // Fig. 14 plots 10^3 queries
	}
	fmt.Fprintln(w, "# Fig. 14: partition/merge hybrids on the sequential workload")
	fmt.Fprintln(w, "# paper shape: AICS/AICC fail like Crack (slightly worse: merge overhead);")
	fmt.Fprintln(w, "#              AICS1R/AICC1R converge like stochastic cracking")
	return runCells(cfg, w, []string{"sequential"},
		[]string{"aics", "aicc", "crack", "aics1r", "aicc1r"})
}

// ---- Fig. 15 ------------------------------------------------------------

func runFig15(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "# Fig. 15: high-frequency low-volume updates (10 random inserts per 10 queries)")
	fmt.Fprintln(w, "# interleaved with the sequential workload; Scrack keeps its robustness")
	printSeriesHeader(w)
	for _, spec := range []string{"crack", "pmdd1r-10"} {
		rng := xrand.New(cfg.Seed + 99)
		stream := func(i int, u Updater) {
			if i%10 == 0 {
				for k := 0; k < 10; k++ {
					u.Insert(rng.Int63n(cfg.N))
				}
			}
		}
		s, err := RunWithUpdates(cfg, spec, "sequential", stream)
		if err != nil {
			return err
		}
		printSeriesCheckpoints(w, s)
		fmt.Fprintln(w)
	}
	return nil
}

// ---- Fig. 16 ------------------------------------------------------------

func runFig16(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "# Fig. 16(a): cumulative time on the (synthetic) SkyServer trace")
	fmt.Fprintln(w, "# paper shape: Crack degrades continuously; Scrack answers the whole trace")
	fmt.Fprintln(w, "# in a small flat budget; Sort pays once; Scan is far above everything")
	if err := runCells(cfg, w, []string{"skyserver"},
		[]string{"crack", "pmdd1r-10", "sort", "scan"}); err != nil {
		return err
	}
	fmt.Fprintln(w, "# Fig. 16(b): access pattern (query index, range midpoint)")
	gen, err := workload.New("skyserver", workload.Params{N: cfg.N, Q: cfg.Q, S: cfg.S, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	xs, mids := workload.Pattern(gen, cfg.Q, 60)
	for i := range xs {
		fmt.Fprintf(w, "pattern skyserver %8d %14d\n", xs[i], mids[i])
	}
	return nil
}

// ---- Fig. 17 ------------------------------------------------------------

func runFig17(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "# Fig. 17: cumulative seconds per workload and cracking strategy")
	fmt.Fprintln(w, "# Scrack here = MDD1R (as in the paper's Fig. 17); SkyServer = synthetic trace")
	specs := []string{"crack", "mdd1r", "fiftyfifty", "flipcoin"}
	fmt.Fprintf(w, "%-16s", "workload")
	for _, s := range specs {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintln(w)
	for _, wl := range workload.Names() {
		fmt.Fprintf(w, "%-16s", wl)
		for _, spec := range specs {
			s, err := Run(cfg, spec, wl)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12s", Seconds(s.TotalNS))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ---- Fig. 18 / 19 -------------------------------------------------------

func runFig18(cfg Config, w io.Writer) error {
	fmt.Fprintln(w, "# Fig. 18: stochastic crack every X queries on the SkyServer trace")
	fmt.Fprintln(w, "# paper shape: cost grows monotonically with X; X=1 (continuous) is best")
	fmt.Fprintf(w, "%-8s %14s\n", "X", "cumulative(s)")
	for _, x := range []int{1, 2, 4, 8, 16, 32} {
		spec := fmt.Sprintf("every-%d", x)
		if x == 1 {
			spec = "mdd1r"
		}
		s, err := Run(cfg, spec, "skyserver")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %14s\n", x, Seconds(s.TotalNS))
	}
	return nil
}

func runFig19(cfg Config, w io.Writer) error {
	fmt.Fprintln(w, "# Fig. 19: monitored stochastic cracking (per-piece counters) on SkyServer")
	fmt.Fprintln(w, "# paper shape: cost grows with the monitoring threshold X; X=1 is best")
	fmt.Fprintf(w, "%-8s %14s\n", "X", "cumulative(s)")
	for _, x := range []int{1, 5, 10, 50, 100, 500} {
		s, err := Run(cfg, fmt.Sprintf("scrackmon-%d", x), "skyserver")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %14s\n", x, Seconds(s.TotalNS))
	}
	return nil
}

// ---- Fig. 20 ------------------------------------------------------------

func runFig20(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "# Fig. 20: x = total cumulative seconds; y = cumulative seconds after")
	fmt.Fprintln(w, "# the first 1, 2, 4, 8, 16, 32 queries (sequential workload)")
	fmt.Fprintf(w, "%-12s %12s", "algorithm", "total(s)")
	firsts := []int{1, 2, 4, 8, 16, 32}
	for _, f := range firsts {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("q<=%d(s)", f))
	}
	fmt.Fprintln(w)
	for _, spec := range []string{"dd1r", "pmdd1r-5", "pmdd1r-10"} {
		s, err := Run(cfg, spec, "sequential")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %12s", spec, Seconds(s.TotalNS))
		for _, f := range firsts {
			fmt.Fprintf(w, " %10s", Seconds(s.CumulativeNS[f-1]))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ---- Fig. 7 / 16(b) patterns -------------------------------------------

func runPatterns(cfg Config, w io.Writer) error {
	cfg = cfg.WithDefaults()
	fmt.Fprintln(w, "# Workload access patterns: (workload, query index, range midpoint)")
	names := workload.Names()
	sort.Strings(names)
	for _, name := range names {
		gen, err := workload.New(name, workload.Params{N: cfg.N, Q: cfg.Q, S: cfg.S, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		xs, mids := workload.Pattern(gen, cfg.Q, 40)
		for i := range xs {
			fmt.Fprintf(w, "%-16s %8d %14d\n", name, xs[i], mids[i])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// IDs returns all experiment ids plus the "all" meta-id, for CLI help.
func IDs() string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return strings.Join(append(ids, "all"), ", ")
}
