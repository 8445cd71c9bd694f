package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a test
// runs instances in child processes: with BENCHMARK_CHILD set it is the
// command line, not the tests.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHMARK_CHILD") != "" {
		os.Exit(realMain("", os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// testConfig is the benchmark in miniature: 200 000 rows, range sets and
// passes divided by ten, a fraction of a second measured.
func testConfig(t *testing.T) config {
	return config{seed: 7, seconds: 0.2, n: 200_000, shrink: 10, outDir: t.TempDir(), log: io.Discard}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n json %+v\n spec %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go:\n json %+v\n spec %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: json %q / spec %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	hasSetup := false
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("name %q is used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in seconds, lower is better")
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
}

// lastLine parses the result line the way the driver does: the last line of
// standard output, with exactly four keys.
func lastLine(t *testing.T, stdout string) wireResult {
	t.Helper()
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var res wireResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func metricNames(list []metric) map[string]string {
	m := map[string]string{}
	for _, x := range list {
		m[x.Name] = x.Unit
	}
	return m
}

// TestEveryWorkloadPrintsTheSpecMetrics runs all five workloads through the
// command line, untraced and traced, and holds the printed metric names to
// the sets in BENCHMARK.json.
func TestEveryWorkloadPrintsTheSpecMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for trace, list := range map[string][]metric{"0": b.EndToEnd, "1": b.PerLayer} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := realMain("", []string{
					"--workload", w.Name, "--seed", "7", "--seconds", "0.2", "--trace", trace,
					"-n", "200000", "-shrink", "10", "-out", t.TempDir(),
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
				}
				res := lastLine(t, stdout.String())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := metricNames(list)
				for name, v := range res.Metrics {
					if unit, ok := want[name]; !ok || unit != v.Unit {
						t.Errorf("printed %s in %q: not in BENCHMARK.json with that unit", name, v.Unit)
					}
				}
				for name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("BENCHMARK.json names %s; the run did not print it", name)
					}
				}
				if trace == "0" {
					for name, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric %s = %g; they are never 0", name, v.Value)
						}
					}
				}
			})
		}
	}
}

// TestCoreCountsRepeatForASeed: the three core counts are identical across
// two traced runs of one seed, and differ for another seed.
func TestCoreCountsRepeatForASeed(t *testing.T) {
	w, _ := findWorkload("seq_cold")
	counts := func(seed uint64) map[string]int64 {
		cfg := testConfig(t)
		cfg.seed = seed
		res, err := runTraced(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("seed %d: %d operations failed", seed, res.Failed)
		}
		return res.Counts
	}
	a, again, other := counts(7), counts(7), counts(8)
	for _, k := range []string{"core.touched", "core.swaps", "core.cracks"} {
		if a[k] == 0 {
			t.Errorf("%s is 0 on a cold sequential pass", k)
		}
		if a[k] != again[k] {
			t.Errorf("%s: %d, then %d, for the same seed", k, a[k], again[k])
		}
	}
	if reflect.DeepEqual(a, other) {
		t.Errorf("seeds 7 and 8 gave the same counts %v", a)
	}
}

// TestInjectedWrongAnswerIsCounted: misreading every 100th answer must show
// up as failed operations and a non-zero exit, on an in-process workload and
// on a wire one.
func TestInjectedWrongAnswerIsCounted(t *testing.T) {
	for _, name := range []string{"hot_converged", "wire_point"} {
		w, _ := findWorkload(name)
		cfg := testConfig(t)
		cfg.inject = 100
		res, err := runWorkload(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 || res.Failed*50 > res.Attempted || res.Failed*200 < res.Attempted {
			t.Errorf("%s: %d of %d failed, want about one in 100", name, res.Failed, res.Attempted)
		}
		var stdout bytes.Buffer
		if err := report(cfg, res, false, &stdout); err != nil {
			t.Fatal(err)
		}
		if wire := lastLine(t, stdout.String()); wire.Correct || wire.Failed != res.Failed {
			t.Errorf("%s: result line says correct=%v failed=%d", name, wire.Correct, wire.Failed)
		}
	}
}

// TestInstancesInChildProcesses: the untraced run as the command line runs
// it, every instance in a process of its own, must add up like the
// in-process one.
func TestInstancesInChildProcesses(t *testing.T) {
	t.Setenv("BENCHMARK_CHILD", "1")
	w, _ := findWorkload("mixed_rw")
	cfg := testConfig(t)
	cfg.exe = os.Args[0]
	res, err := runWorkload(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 || len(res.Reps) < w.instances*minReps {
		t.Errorf("attempted=%d failed=%d repetitions=%d", res.Attempted, res.Failed, len(res.Reps))
	}
	for _, m := range endToEnd {
		if v := res.Metrics[m.Name]; v.Value <= 0 || v.Of.N != w.instances {
			t.Errorf("%s = %g from %d instances, want %d", m.Name, v.Value, v.Of.N, w.instances)
		}
	}
}

// TestMixedModelCatchesALostWrite: the per-client multiset model must notice
// a write the target acknowledged and dropped.
func TestMixedModelCatchesALostWrite(t *testing.T) {
	w, _ := findWorkload("mixed_rw")
	cfg := testConfig(t)
	w = cfg.scaled(w)
	in, err := setup(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	if _, failed := in.totals(); failed != 0 {
		t.Fatalf("%d set-up operations failed", failed)
	}
	in.t = &lossyTarget{target: in.t}
	in.rep(1)
	in.finish()
	if _, failed := in.totals(); failed == 0 {
		t.Error("an acknowledged insert was dropped and no read noticed")
	}
}

// lossyTarget acknowledges every 50th insert without applying it.
type lossyTarget struct {
	target
	inserts atomic.Int64 // both clients insert through it
}

func (t *lossyTarget) insert(v int64) error {
	if t.inserts.Add(1)%50 == 0 {
		return nil
	}
	return t.target.insert(v)
}

func TestOutFilesAreJSONLines(t *testing.T) {
	w, _ := findWorkload("hot_converged")
	cfg := testConfig(t)
	res, err := runTraced(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := report(cfg, res, true, io.Discard); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-hot_converged.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("trace line %d: %v", i+1, err)
		}
		if s.ID != i+1 || s.EndNS < s.StartNS || s.Workload != "hot_converged" {
			t.Fatalf("trace line %d: %+v", i+1, s)
		}
		layers[s.Layer] = true
	}
	for _, r := range ladder {
		if !layers[r.name] {
			t.Errorf("trace has no span for rung %s", r.name)
		}
	}
	summary, err := os.ReadFile(filepath.Join(cfg.outDir, "summary-hot_converged-traced.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(summary)), "\"claim\": null\n}") {
		t.Errorf("summary does not end with \"claim\": null:\n%s", summary)
	}
}
