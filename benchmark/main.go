// Command benchmark is the repository's measuring stick (ISSUE 11): one
// invocation runs one named workload from a seed, checks every answer
// against the oracle, and prints every metric by name with its unit. With
// --trace 1 it replays the same ops rung by rung through each layer's public
// entry points instead and prints the per-layer metrics. It claims no gain.
//
// The last line of standard output is one JSON object with exactly the keys
// correct, attempted, failed and metrics; everything before it is for people.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(realMain(exe, os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with its surroundings passed in. exe is the path the
// untraced run re-executes for its instances; empty keeps them in process.
func realMain(exe string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (with -aa also a comma-separated list, or all)")
	seed := fs.Uint64("seed", 1, "seed of the data, the ranges and the algorithm; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 12, "how long to measure, after set-up")
	trace := fs.Int("trace", 0, "1 = traced ladder and probes (per-layer metrics); 0 = untraced run (end-to-end metrics)")
	n := fs.Int64("n", defaultRows, "rows; the baseline is defined at the default only")
	aa := fs.Bool("aa", false, "run each chosen workload twice back to back and fail if the two disagree beyond the bounds")
	out := fs.String("out", "", "directory for traces, samples and summaries (default: out/ beside the benchmark's sources)")
	shrink := fs.Int("shrink", 1, "tests only: divide range-set sizes and passes; the numbers are not comparable")
	instance := fs.Int("instance", -1, "internal: run only this instance of the workload for -seconds and print its result (what an untraced run starts its child processes with)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, n: *n, shrink: *shrink, outDir: *out, log: stderr, exe: exe}
	if cfg.outDir == "" {
		cfg.outDir = defaultOutDir()
	}
	if cfg.n < 1000 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: need -n >= 1000 and -seconds > 0")
		return 2
	}
	if *aa {
		return runAA(cfg, *name, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *instance >= 0 {
		ir, err := runInstance(cfg, cfg.scaled(w), *instance, time.Duration(cfg.seconds*float64(time.Second)))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(ir); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	run := runWorkload
	if *trace != 0 {
		run = runTraced
	}
	res, err := run(cfg, w)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := report(cfg, res, *trace != 0, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// defaultOutDir is benchmark/out when run from the repository root (as the
// wrapper script does) and out/ when run from the benchmark's own directory.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// wireValue is one metric on the result line.
type wireValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the result line; its keys are fixed by the driver's contract.
type wireResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]wireValue `json:"metrics"`
}

// report prints the human-readable table, writes the samples and the summary
// under cfg.outDir, and ends with the result line.
func report(cfg config, res *result, traced bool, stdout io.Writer) error {
	mode, list := "untraced", endToEnd
	if traced {
		mode, list = "traced", perLayer
	}
	fmt.Fprintf(stdout, "workload %s seed %d n %d: %s run, %d repetitions\n", res.Workload, res.Seed, cfg.n, mode, len(res.Reps))
	fmt.Fprintf(stdout, "%-40s %16s %-6s %16s %16s %5s\n", "metric", "value", "unit", "q1", "q3", "n")
	wire := wireResult{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]wireValue{}}
	for _, m := range list {
		v := res.Metrics[m.Name]
		fmt.Fprintf(stdout, "%-40s %16.6g %-6s %16.6g %16.6g %5d\n", m.Name, v.Value, m.Unit, v.Of.Q1, v.Of.Q3, v.Of.N)
		wire.Metrics[m.Name] = wireValue{Value: v.Value, Unit: m.Unit}
	}
	if res.FirstQueryMS.N > 0 {
		f := res.FirstQueryMS
		fmt.Fprintf(stdout, "%-40s %16.6g %-6s %16.6g %16.6g %5d  (per-layer: core.first_query_ms)\n", "first_query_ms", f.Median, "ms", f.Q1, f.Q3, f.N)
	}
	for _, k := range sortedKeys(res.Counts) {
		fmt.Fprintf(stdout, "count %-34s %16d\n", k, res.Counts[k])
	}
	ppm := float64(res.Failed) / float64(max(res.Attempted, 1)) * 1e6
	fmt.Fprintf(stdout, "attempted %d failed %d failed_ppm %g\n", res.Attempted, res.Failed, ppm)

	if cfg.outDir != "" {
		if err := writeOut(cfg, res, mode, list, ppm); err != nil {
			return err
		}
	}
	line, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeOut keeps the raw per-repetition samples and a summary, so later
// issues can diff runs without rerunning. The summary makes no claim.
func writeOut(cfg config, res *result, mode string, list []metric, ppm float64) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if len(res.Reps) > 0 {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for i := range res.Reps {
			if err := enc.Encode(&res.Reps[i]); err != nil {
				return err
			}
		}
		if err := os.WriteFile(filepath.Join(cfg.outDir, "samples-"+res.Workload+".jsonl"), b.Bytes(), 0o644); err != nil {
			return err
		}
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		summary
	}
	metrics := map[string]metricOut{}
	for _, m := range list {
		v := res.Metrics[m.Name]
		metrics[m.Name] = metricOut{Value: v.Value, Unit: m.Unit, summary: v.Of}
	}
	sum := struct {
		Workload  string               `json:"workload"`
		Mode      string               `json:"mode"`
		Seed      uint64               `json:"seed"`
		Rows      int64                `json:"rows"`
		Seconds   float64              `json:"seconds"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		FailedPPM float64              `json:"failed_ppm"`
		Metrics   map[string]metricOut `json:"metrics"`
		Counts    map[string]int64     `json:"counts,omitempty"`
		Claim     *string              `json:"claim"`
	}{res.Workload, mode, res.Seed, cfg.n, cfg.seconds, res.Attempted, res.Failed, ppm, metrics, res.Counts, nil}
	body, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "summary-"+res.Workload+"-"+mode+".json"), append(body, '\n'), 0o644)
}

// runAA runs each chosen workload twice back to back at one seed and
// compares the two: every end-to-end metric must agree within its bound,
// and the traced deterministic counts must agree exactly.
func runAA(cfg config, names string, stdout, stderr io.Writer) int {
	var chosen []workloadSpec
	if names == "all" || names == "" {
		chosen = workloads
	} else {
		for _, name := range strings.Split(names, ",") {
			w, ok := findWorkload(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
				return 2
			}
			chosen = append(chosen, w)
		}
	}
	bad := 0
	for _, w := range chosen {
		var runs [2]*result
		for i := range runs {
			res, err := runWorkload(cfg, w)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			runs[i] = res
			bad += int(res.Failed)
		}
		fmt.Fprintf(stdout, "A/A %s seed %d\n%-22s %14s %14s %9s %7s\n", w.Name, cfg.seed, "metric", "first", "second", "diff", "bound")
		for _, m := range endToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			diff := (b - a) / a
			verdict := ""
			if diff > m.Bound || diff < -m.Bound {
				verdict = "  OUTSIDE"
				bad++
			}
			fmt.Fprintf(stdout, "%-22s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", m.Name, a, b, diff*100, m.Bound*100, verdict)
		}
		var counts [2]map[string]int64
		for i := range counts {
			quick := cfg
			quick.seconds = min(cfg.seconds, 2) // the counts are taken after the first pass; more passes add nothing
			quick.outDir = ""
			res, err := runTraced(quick, w)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			counts[i] = res.Counts
			bad += int(res.Failed)
		}
		for _, k := range sortedKeys(counts[0]) {
			verdict := "exact"
			if counts[0][k] != counts[1][k] {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Fprintf(stdout, "count %-16s %14d %14d %s\n", k, counts[0][k], counts[1][k], verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "A/A: %d metrics outside their bound, counts differing, or operations failed\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "A/A: every metric within its bound, every count exact")
	return 0
}
