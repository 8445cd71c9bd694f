// Command benchgate fails when a kernel benchmark of HEAD regresses
// against the same benchmark built from the merge-base. CI runs it in the
// bench job after .github/bench-paired.sh has built both trees' test
// binaries on one runner and run them interleaved:
//
//	bash .github/bench-paired.sh BASE_TREE
//	benchgate -base bench-base.txt -head bench-head.txt
//
// Both files are plain `go test -bench` output whose i-th samples were
// taken back to back. Each gated benchmark's head/base ns/op ratios are
// taken pair by pair, and the gate fails when their median exceeds
// 1 + -threshold-pct/100. A gated base benchmark missing from the head
// run also fails: renaming a kernel benchmark must not silently drop it
// from the gate.
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
		basePath     = flag.String("base", "", "`go test -bench` output of the merge-base's build")
		headPath     = flag.String("head", "", "`go test -bench` output of HEAD's build, interleaved with -base's")
		thresholdPct = flag.Float64("threshold-pct", 15, "fail when the paired median ns/op ratio regresses more than this percentage")
		match        = flag.String("match", "BenchmarkCrackInTwo,BenchmarkCrackInThree,BenchmarkMDD1RMaterialize,BenchmarkConvergedProbe,BenchmarkParallelCrackInTwo",
			"comma-separated benchmark name prefixes to gate (empty: every base benchmark)")
	)
	flag.Parse()
	if *basePath == "" || *headPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -base and -head are required")
		os.Exit(2)
	}
	base := parseFile(*basePath)
	head := parseFile(*headPath)
	var prefixes []string
	for _, p := range strings.Split(*match, ",") {
		if p = strings.TrimSpace(p); p != "" {
			prefixes = append(prefixes, p)
		}
	}
	findings, err := bench.Gate(base, head, prefixes, 1+*thresholdPct/100)
	for _, f := range findings {
		verdict := "ok"
		if f.Regress {
			verdict = "REGRESSION"
		}
		fmt.Printf("%-50s %14.0f %14.0f ns/op %+7.1f%% paired %s\n",
			f.Name, f.BaseNs, f.HeadNs, (f.Ratio-1)*100, verdict)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within %.0f%% of the merge-base\n", len(findings), *thresholdPct)
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
