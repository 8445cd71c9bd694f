package bench

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Benchmark-regression gating: parse `go test -bench` output, reduce each
// benchmark's samples to a median, and compare a current run against a
// committed baseline. CI runs this through cmd/benchgate and fails the
// bench job when a kernel benchmark regresses past the threshold.

// BenchSamples collects every sample of one benchmark across -count runs.
type BenchSamples struct {
	Name    string // sub-benchmark name, -procs suffix stripped
	NsPerOp []float64
	Iters   int64 // iterations of the last sample
}

// MedianNs returns the median ns/op sample.
func (b *BenchSamples) MedianNs() float64 { return median(b.NsPerOp) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ParseBench reads `go test -bench` output (any interleaved non-benchmark
// lines are skipped) and returns samples keyed by benchmark name. The
// trailing GOMAXPROCS suffix (-8) is stripped so baselines gate across
// machines with different core counts.
func ParseBench(r io.Reader) (map[string]*BenchSamples, error) {
	out := map[string]*BenchSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcs(fields[0])
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX ... --- SKIP"
		}
		b := out[name]
		if b == nil {
			b = &BenchSamples{Name: name}
			out[name] = b
		}
		b.Iters = iters
		// The remainder is (value, unit) pairs: 12345 ns/op 500 MB/s ...
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: bad value %q for %s", fields[i], name)
			}
			if fields[i+1] == "ns/op" {
				b.NsPerOp = append(b.NsPerOp, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// stripProcs removes the trailing -N GOMAXPROCS suffix from a benchmark
// name, keeping sub-benchmark dashes intact (only a purely numeric final
// segment is removed).
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// GateFinding is one benchmark's baseline-vs-current comparison.
type GateFinding struct {
	Name    string
	BaseNs  float64
	CurNs   float64
	Ratio   float64 // CurNs / BaseNs; > 1 is slower
	Regress bool
}

// Gate compares current against baseline for every benchmark whose name
// has one of the given prefixes (empty prefixes = every baseline entry).
// A benchmark regresses when its median ns/op exceeds the baseline median
// by more than threshold (1.15 = +15%). A gated baseline benchmark
// missing from the current run is an error — renaming a kernel benchmark
// must not silently drop it from the gate.
func Gate(baseline, current map[string]*BenchSamples, prefixes []string, threshold float64) ([]GateFinding, error) {
	matches := func(name string) bool {
		if len(prefixes) == 0 {
			return true
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	var names []string
	for name := range baseline {
		if matches(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("bench: no baseline benchmark matches %v", prefixes)
	}
	var findings []GateFinding
	var regressed, missing []string
	for _, name := range names {
		cur, ok := current[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		base := baseline[name]
		f := GateFinding{Name: name, BaseNs: base.MedianNs(), CurNs: cur.MedianNs()}
		if f.BaseNs > 0 {
			f.Ratio = f.CurNs / f.BaseNs
		}
		f.Regress = f.Ratio > threshold
		if f.Regress {
			regressed = append(regressed, fmt.Sprintf("%s %.0f -> %.0f ns/op (%+.1f%%)",
				name, f.BaseNs, f.CurNs, (f.Ratio-1)*100))
		}
		findings = append(findings, f)
	}
	switch {
	case len(missing) > 0:
		return findings, fmt.Errorf("bench: gated benchmarks missing from current run (renamed? refresh the baseline): %s",
			strings.Join(missing, ", "))
	case len(regressed) > 0:
		return findings, fmt.Errorf("bench: ns/op regression beyond %+.0f%%:\n  %s",
			(threshold-1)*100, strings.Join(regressed, "\n  "))
	}
	return findings, nil
}
