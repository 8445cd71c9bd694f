package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	crackdb "repro"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	n       int64
	shrink  int // tests only: divide range-set sizes and passes; numbers are not comparable
	inject  int // tests only: misread every inject-th answer
	outDir  string
	log     io.Writer
	// exe, when set, is this binary's path: every instance of an untraced
	// run then gets a process of its own. Tests leave it empty and run the
	// instances in process.
	exe string
}

func (cfg config) scaled(w workloadSpec) workloadSpec {
	if cfg.shrink > 1 {
		w.q = max(w.q/cfg.shrink, 20)
		w.passes = max(w.passes/cfg.shrink, 1)
	}
	return w
}

// measured is one metric value with the samples behind it.
type measured struct {
	Value float64
	Of    summary
}

// result is what one run of one workload produced.
type result struct {
	Workload          string
	Seed              uint64
	Attempted, Failed int64
	Metrics           map[string]measured
	// Counts are the deterministic layer counts a traced run recorded; the
	// A/A mode and the tests require them to repeat exactly for a seed.
	Counts map[string]int64
	// FirstQueryMS is query 1 on the cold column (seq_cold), printed and
	// written to the samples file; as a metric it lives per layer
	// (core.first_query_ms) because one draw per repetition is too noisy
	// to bound.
	FirstQueryMS summary
	Reps         []repSample
}

// repSample is one timed repetition, as written to out/samples-*.jsonl.
type repSample struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Instance     int     `json:"instance"`
	Rep          int     `json:"rep"`
	WallS        float64 `json:"wall_s"`
	CPUS         float64 `json:"cpu_s"`
	Ops          int64   `json:"ops"`
	ReadSamples  int     `json:"read_samples"`
	ReadP50US    float64 `json:"read_p50_us"`
	ReadP99US    float64 `json:"read_p99_us"`
	WriteSamples int     `json:"write_samples,omitempty"`
	WriteP50US   float64 `json:"write_p50_us,omitempty"`
	WriteP99US   float64 `json:"write_p99_us,omitempty"`
	FirstOpMS    float64 `json:"first_op_ms,omitempty"`
	Failed       int64   `json:"failed"`
}

// instance is a set-up workload: data generated, layers booted, clients
// warmed, ready for timed repetitions.
type instance struct {
	cfg     config
	w       workloadSpec
	data    []int64 // base permutation; nil on cluster rungs, whose nodes generate their own
	scratch []int64 // cold workloads: the copy each repetition cracks
	t       target
	clients []*client
	blocks  [][]op
	fails   *failLog
	reads   []int64 // the clients' read samples of one repetition, merged
}

func setup(cfg config, w workloadSpec) (*instance, error) {
	in := &instance{cfg: cfg, w: w, fails: &failLog{w: cfg.log}}
	if !strings.HasPrefix(w.rung, "cluster") {
		in.data = crackdb.MakeData(cfg.n, cfg.seed)
	}
	warm := make([][]op, w.clients)
	in.blocks = make([][]op, w.clients)
	for i := 0; i < w.clients; i++ {
		warm[i], in.blocks[i] = w.gen(genParams{n: cfg.n, seed: cfg.seed, q: w.q, client: i, clients: w.clients})
		in.clients = append(in.clients, &client{
			id: i, where: w.Name, n: cfg.n, every: w.sampleEvery, inject: cfg.inject, fails: in.fails,
			readLat: make([]int64, 0, w.passes*len(in.blocks[i])/w.sampleEvery+1),
		})
	}
	if w.cold {
		in.scratch = make([]int64, len(in.data))
		in.rep(0) // untimed: pages the buffers in, so repetition 0 is like the rest
		return in, nil
	}
	t, err := buildRung(w.rung, stack{values: in.data, n: cfg.n, dataSeed: cfg.seed, algoSeed: cfg.seed})
	if err != nil {
		return nil, err
	}
	in.t = t
	runClients(t, in.clients, warm, 1)
	return in, nil
}

// rep runs one timed repetition: every client replays its block.
func (in *instance) rep(r int) repSample {
	if in.w.cold {
		if in.t != nil {
			in.t.close()
		}
		copy(in.scratch, in.data)
		t, err := buildRung(in.w.rung, stack{values: in.scratch, n: in.cfg.n, dataSeed: in.cfg.seed, algoSeed: in.cfg.seed + uint64(r)})
		if err != nil {
			panic(err) // the same call succeeded in set-up
		}
		in.t = t
	}
	var failed0 int64
	for _, c := range in.clients {
		c.resetSamples()
		failed0 += c.failed
		if in.w.cold {
			c.opIndex = 0
		}
	}
	runtime.GC()
	wall, cpu := runClients(in.t, in.clients, in.blocks, in.w.passes)

	s := repSample{Workload: in.w.Name, Seed: in.cfg.seed, Rep: r, WallS: wall.Seconds(), CPUS: cpu.Seconds()}
	var writes []int64
	in.reads = in.reads[:0]
	for i, c := range in.clients {
		s.Ops += int64(in.w.passes * len(in.blocks[i]))
		s.Failed += c.failed
		in.reads = append(in.reads, c.readLat...)
		writes = append(writes, c.writeLat...)
	}
	s.Failed -= failed0
	s.ReadSamples, s.WriteSamples = len(in.reads), len(writes)
	s.ReadP50US, s.ReadP99US = percentileNS(in.reads, 0.5)/1e3, percentileNS(in.reads, 0.99)/1e3
	s.WriteP50US, s.WriteP99US = percentileNS(writes, 0.5)/1e3, percentileNS(writes, 0.99)/1e3
	if in.w.cold {
		s.FirstOpMS = in.clients[0].firstOp.Seconds() * 1e3
	}
	return s
}

// finish makes the end-of-run checks that are too expensive per repetition.
func (in *instance) finish() {
	if !in.w.writes {
		return // nothing was written; a whole-region read proves nothing the per-read checks did not
	}
	for i, c := range in.clients {
		lo := in.cfg.n * int64(i) / int64(len(in.clients))
		hi := in.cfg.n * int64(i+1) / int64(len(in.clients))
		c.verifyRegion(in.t, lo, hi)
	}
}

func (in *instance) close() {
	if in.t != nil {
		in.t.close()
	}
}

func (in *instance) totals() (attempted, failed int64) {
	for _, c := range in.clients {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// instanceResult is what one set-up instance reports to the run that asked
// for it — across a process boundary when the instance ran in a child.
type instanceResult struct {
	SetupS float64 `json:"setup_s"`
	// Values holds the instance's undisturbed value of every end-to-end
	// metric but setup_s.
	Values            map[string]float64 `json:"values"`
	Attempted, Failed int64
	Reps              []repSample
}

// runInstance sets one instance up and runs identical timed repetitions for
// slice. Other tenants' bursts slow ~1/6 of all repetitions by 10-30%, for up
// to 4 s at a time — longer than half a slice, so an instance's median can sit
// inside a burst. Interference only ever adds time, so the instance's value is
// the lower quartile of its repetitions (the upper quartile for throughput).
func runInstance(cfg config, w workloadSpec, i int, slice time.Duration) (*instanceResult, error) {
	start := time.Now()
	in, err := setup(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer in.close()
	res := &instanceResult{SetupS: time.Since(start).Seconds(), Values: map[string]float64{}}

	var wall, tput, p50, p99, cpu []float64
	// Stop where one more repetition would overshoot the slice by more than
	// it undershoots now.
	began := time.Now()
	for r := 0; r < minReps || time.Since(began)+time.Since(began)/time.Duration(2*r) < slice; r++ {
		s := in.rep(r + 1)
		s.Instance = i
		res.Reps = append(res.Reps, s)
		wall = append(wall, s.WallS)
		tput = append(tput, float64(s.Ops)/s.WallS)
		p50 = append(p50, s.ReadP50US)
		p99 = append(p99, s.ReadP99US)
		cpu = append(cpu, s.CPUS*1e6/float64(s.Ops))
	}
	res.Values["heap_bytes_per_row"] = float64(heapLive()) / float64(cfg.n)
	in.finish()
	res.Attempted, res.Failed = in.totals()

	for name, xs := range map[string][]float64{
		"cumulative_s": wall, "query_p50_us": p50, "query_p99_us": p99, "cpu_us_per_op": cpu,
	} {
		res.Values[name] = summarize(xs).Q1
	}
	res.Values["throughput_ops_s"] = summarize(tput).Q3
	return res, nil
}

// childInstance runs one instance in a fresh process of this same binary and
// reads its instanceResult from the last line of the child's output.
func childInstance(cfg config, workload string, i int, slice time.Duration) (*instanceResult, error) {
	cmd := exec.Command(cfg.exe,
		"-workload", workload, "-instance", strconv.Itoa(i),
		"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.FormatFloat(slice.Seconds(), 'g', -1, 64),
		"-n", strconv.FormatInt(cfg.n, 10), "-shrink", strconv.Itoa(cfg.shrink))
	cmd.Stderr = cfg.log
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, fmt.Errorf("%s: instance %d: %w", workload, i, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	res := &instanceResult{}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("%s: instance %d: reading its result: %w", workload, i, err)
	}
	return res, nil
}

// runWorkload is the untraced run. The measured seconds are split over
// w.instances independently set-up instances, each in a process of its own
// when cfg.exe names this binary: an instance's undisturbed speed depends on
// which physical pages its column landed on (hot_converged: 0.145 s or
// 0.19 s per repetition for the same seed, bimodally), and within one
// process the Go heap hands the next instance the previous one's pages, so
// only a fresh process draws again. A median across instances would flip
// between the modes; the reported value is the mean, after dropping the
// slowest instance — a burst can cover a whole slice. setup_s is the median
// of the instances' set-up times.
func runWorkload(cfg config, w workloadSpec) (*result, error) {
	w = cfg.scaled(w)
	res := &result{Workload: w.Name, Seed: cfg.seed, Metrics: map[string]measured{}}
	perInstance := map[string][]float64{}
	var setups, first []float64
	slice := time.Duration(cfg.seconds / float64(w.instances) * float64(time.Second))
	for i := 0; i < w.instances; i++ {
		var ir *instanceResult
		var err error
		if cfg.exe != "" {
			ir, err = childInstance(cfg, w.Name, i, slice)
		} else {
			ir, err = runInstance(cfg, w, i, slice)
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, ir.SetupS)
		res.Attempted, res.Failed = res.Attempted+ir.Attempted, res.Failed+ir.Failed
		res.Reps = append(res.Reps, ir.Reps...)
		for name, v := range ir.Values {
			perInstance[name] = append(perInstance[name], v)
		}
		if w.cold {
			for _, s := range ir.Reps {
				first = append(first, s.FirstOpMS)
			}
		}
	}
	res.FirstQueryMS = summarize(first)
	sm := summarize(setups)
	res.Metrics["setup_s"] = measured{Value: sm.Median, Of: sm}
	for _, m := range endToEnd {
		xs, ok := perInstance[m.Name]
		if !ok {
			continue // setup_s, above
		}
		kept := append([]float64(nil), xs...)
		sort.Float64s(kept)
		if m.Better == "higher" {
			kept = kept[1:] // the slowest instance has the lowest value
		} else {
			kept = kept[:len(kept)-1]
		}
		res.Metrics[m.Name] = measured{Value: mean(kept), Of: summarize(xs)}
	}
	return res, nil
}
