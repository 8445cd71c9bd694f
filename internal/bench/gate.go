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
// benchmark's samples to a median, and compare HEAD's run against the
// merge-base's, both taken on one machine with their counts interleaved.
// CI runs this through cmd/benchgate and fails the bench job when a kernel
// benchmark regresses past the threshold.

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
// lines are skipped) and returns samples keyed by benchmark name, in the
// order they appear. The trailing GOMAXPROCS suffix (-8) is stripped, so
// a name is the same on any core count.
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

// GateFinding is one benchmark's base-vs-head comparison.
type GateFinding struct {
	Name    string
	BaseNs  float64 // median ns/op of the base samples
	HeadNs  float64 // median ns/op of the head samples
	Ratio   float64 // median of the paired head/base ratios; > 1 is slower
	Regress bool
}

// pairedRatio returns the median of head[i]/base[i] over the samples both
// runs have. The two builds' counts run interleaved, so sample i of each
// saw the same moment of the machine, and a host that drifts during the
// run moves both sides of a pair together.
func pairedRatio(base, head []float64) float64 {
	n := min(len(base), len(head))
	ratios := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if base[i] > 0 {
			ratios = append(ratios, head[i]/base[i])
		}
	}
	return median(ratios)
}

// Gate compares head against base for every benchmark of base whose name
// has one of the given prefixes (empty prefixes = every base benchmark).
// A benchmark regresses when the median of its paired head/base ns/op
// ratios exceeds threshold (1.15 = +15%). A gated base benchmark missing
// from head is an error — renaming a kernel benchmark must not silently
// drop it from the gate.
func Gate(base, head map[string]*BenchSamples, prefixes []string, threshold float64) ([]GateFinding, error) {
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
	for name := range base {
		if matches(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("bench: no base benchmark matches %v", prefixes)
	}
	var findings []GateFinding
	var regressed, missing []string
	for _, name := range names {
		h, ok := head[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		b := base[name]
		f := GateFinding{Name: name, BaseNs: b.MedianNs(), HeadNs: h.MedianNs(), Ratio: pairedRatio(b.NsPerOp, h.NsPerOp)}
		f.Regress = f.Ratio > threshold
		if f.Regress {
			regressed = append(regressed, fmt.Sprintf("%s %.0f -> %.0f ns/op (paired %+.1f%%)",
				name, f.BaseNs, f.HeadNs, (f.Ratio-1)*100))
		}
		findings = append(findings, f)
	}
	switch {
	case len(missing) > 0:
		return findings, fmt.Errorf("bench: gated benchmarks missing from head (renamed?): %s",
			strings.Join(missing, ", "))
	case len(regressed) > 0:
		return findings, fmt.Errorf("bench: ns/op regression beyond %+.0f%%:\n  %s",
			(threshold-1)*100, strings.Join(regressed, "\n  "))
	}
	return findings, nil
}
