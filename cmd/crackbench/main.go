// Command crackbench regenerates the tables and figures of "Stochastic
// Database Cracking" (VLDB 2012).
//
// Usage:
//
//	crackbench -experiment fig2            # one experiment
//	crackbench -experiment all             # the full evaluation
//	crackbench -experiment fig17 -n 2000000 -q 10000
//	crackbench -list                       # show experiment ids
//	crackbench -report report.md           # paper-vs-measured shape checks
//	crackbench -plot -workload sequential  # ASCII log-log chart
//
// Output is plain text: gnuplot-friendly series for the figures and
// aligned tables for the paper's tables. Paper scale is -n 100000000; the
// default 10000000 preserves every reported shape at ~1/10 the runtime.
//
// Throughput, latency and per-layer cost are measured by the benchmark/
// module (see benchmark/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id ("+bench.IDs()+")")
		n          = flag.Int64("n", 10_000_000, "column size / value domain (paper: 100000000)")
		q          = flag.Int("q", 10_000, "queries per cell (paper: 10000; 160000 for SkyServer)")
		s          = flag.Int64("s", 10, "selectivity in tuples")
		seed       = flag.Uint64("seed", 42, "random seed for data, workloads and algorithms")
		validate   = flag.Bool("validate", false, "validate every result against the closed-form oracle")
		quick      = flag.Bool("quick", false, "smoke mode: shrink -n/-q to finish in seconds and validate results (CI)")
		list       = flag.Bool("list", false, "list experiments and exit")
		report     = flag.String("report", "", "write a markdown paper-vs-measured report to this file and exit")
		plot       = flag.Bool("plot", false, "render an ASCII log-log comparison chart for -workload/-algos and exit")
		plotWl     = flag.String("workload", "sequential", "workload for -plot")
		plotAlgos  = flag.String("algos", "crack,dd1r,pmdd1r-10,sort", "comma-separated algorithms for -plot")
	)
	flag.Parse()

	if *quick {
		// API-regression smoke: every experiment exercises the hot query
		// path; a tiny column with validation on catches wrong answers and
		// gross slowdowns before merge without paper-scale runtimes.
		// Explicitly passed -n/-q/-validate win over the quick defaults.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["n"] {
			*n = 200_000
		}
		if !set["q"] {
			*q = 500
		}
		if !set["validate"] {
			*validate = true
		}
	}
	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crackbench:", err)
			os.Exit(1)
		}
		r := bench.NewReport(bench.Config{N: *n, Q: *q, S: *s, Seed: *seed})
		t0 := time.Now()
		if err := r.Write(f); err != nil {
			fmt.Fprintln(os.Stderr, "crackbench: report:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "crackbench:", err)
			os.Exit(1)
		}
		passed, total := r.Checks()
		fmt.Printf("report written to %s: %d/%d shape checks passed (%v)\n",
			*report, passed, total, time.Since(t0).Round(time.Millisecond))
		return
	}
	cfg := bench.Config{N: *n, Q: *q, S: *s, Seed: *seed, Validate: *validate}

	if *plot {
		specs := strings.Split(*plotAlgos, ",")
		for i := range specs {
			specs[i] = strings.TrimSpace(specs[i])
		}
		if err := bench.PlotCell(cfg, os.Stdout, *plotWl, specs); err != nil {
			fmt.Fprintln(os.Stderr, "crackbench:", err)
			os.Exit(1)
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "crackbench: -experiment required; one of:", bench.IDs())
		os.Exit(2)
	}

	var todo []bench.Experiment
	if *experiment == "all" {
		todo = bench.All()
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "crackbench: unknown experiment %q; known: %s\n", id, bench.IDs())
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	for _, e := range todo {
		fmt.Printf("==== %s: %s\n", e.ID, e.Title)
		fmt.Printf("==== N=%d Q=%d S=%d seed=%d\n", cfg.N, cfg.Q, cfg.S, cfg.Seed)
		t0 := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "crackbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s done in %v\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
}
