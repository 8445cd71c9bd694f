// Command benchgate fails when a kernel benchmark regresses against the
// committed baseline. CI runs it in the bench job:
//
//	go test -bench=. -benchmem -count=6 -run '^$' ./internal/... > current.txt
//	benchgate -baseline bench/baseline/kernels.txt -current current.txt
//
// Both files are plain `go test -bench` output; each benchmark's samples
// reduce to their median (6 interleaved counts make one noisy sample
// survivable), and the gate fails when a gated benchmark's median ns/op
// exceeds the baseline's by more than -threshold-pct. A gated baseline
// benchmark missing from the current run also fails: renaming a kernel
// benchmark must not silently drop it from the gate. Refresh the baseline
// by regenerating it on the reference machine (see README "Performance").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "bench/baseline/kernels.txt", "committed baseline `go test -bench` output")
		currentPath  = flag.String("current", "", "current `go test -bench` output to gate")
		thresholdPct = flag.Float64("threshold-pct", 15, "fail when median ns/op regresses more than this percentage")
		match        = flag.String("match", "BenchmarkCrackInTwo,BenchmarkCrackInThree,BenchmarkMDD1RMaterialize,BenchmarkConvergedProbe,BenchmarkParallelCrackInTwo",
			"comma-separated benchmark name prefixes to gate (empty: every baseline benchmark)")
	)
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	baseline := parseFile(*baselinePath)
	current := parseFile(*currentPath)
	var prefixes []string
	for _, p := range strings.Split(*match, ",") {
		if p = strings.TrimSpace(p); p != "" {
			prefixes = append(prefixes, p)
		}
	}
	findings, err := bench.Gate(baseline, current, prefixes, 1+*thresholdPct/100)
	for _, f := range findings {
		verdict := "ok"
		if f.Regress {
			verdict = "REGRESSION"
		}
		fmt.Printf("%-50s %14.0f %14.0f ns/op %+7.1f%% %s\n",
			f.Name, f.BaseNs, f.CurNs, (f.Ratio-1)*100, verdict)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within %.0f%% of baseline\n", len(findings), *thresholdPct)
}

func parseFile(path string) map[string]*bench.BenchSamples {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	defer f.Close()
	samples, err := bench.ParseBench(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	if len(samples) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmark lines in %s\n", path)
		os.Exit(1)
	}
	return samples
}
