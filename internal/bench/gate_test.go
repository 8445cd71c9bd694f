package bench

import (
	"strings"
	"testing"
)

const baseBench = `goos: linux
goarch: amd64
pkg: repro/internal/column
cpu: Intel(R) Xeon(R)
BenchmarkCrackInTwo/n=1M-8         	    1260	   1000000 ns/op	8275.26 MB/s	       0 B/op	       0 allocs/op
BenchmarkCrackInTwo/n=1M-8         	    1228	   1020000 ns/op	8786.11 MB/s	       0 B/op	       0 allocs/op
BenchmarkCrackInTwo/n=1M-8         	    1279	    980000 ns/op	8823.65 MB/s	       0 B/op	       0 allocs/op
BenchmarkCrackInTwo/n=10M-8        	     112	  11000000 ns/op	7291.45 MB/s	       0 B/op	       0 allocs/op
BenchmarkConvergedProbe-8          	 6054901	       190.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkUnrelated-8               	     100	    500000 ns/op
PASS
`

// shifted rewrites every ns/op sample of baseBench by factor.
func shifted(t *testing.T, factor float64) map[string]*BenchSamples {
	t.Helper()
	base := parse(t, baseBench)
	out := map[string]*BenchSamples{}
	for name, b := range base {
		c := &BenchSamples{Name: name, Iters: b.Iters}
		for _, ns := range b.NsPerOp {
			c.NsPerOp = append(c.NsPerOp, ns*factor)
		}
		out[name] = c
	}
	return out
}

func parse(t *testing.T, s string) map[string]*BenchSamples {
	t.Helper()
	m, err := ParseBench(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

var gatePrefixes = []string{"BenchmarkCrackInTwo", "BenchmarkConvergedProbe"}

func TestParseBench(t *testing.T) {
	m := parse(t, baseBench)
	b := m["BenchmarkCrackInTwo/n=1M"]
	if b == nil {
		t.Fatalf("missing benchmark; parsed: %v", m)
	}
	if len(b.NsPerOp) != 3 {
		t.Fatalf("samples = %d, want 3", len(b.NsPerOp))
	}
	if got := b.MedianNs(); got != 1000000 {
		t.Fatalf("median = %v, want 1000000", got)
	}
	if got := m["BenchmarkConvergedProbe"].MedianNs(); got != 190 {
		t.Fatalf("probe median = %v", got)
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	findings, err := Gate(parse(t, baseBench), shifted(t, 1.10), gatePrefixes, 1.15)
	if err != nil {
		t.Fatalf("10%% drift must pass a 15%% gate: %v", err)
	}
	if len(findings) != 3 {
		t.Fatalf("findings = %d, want 3 (unmatched benchmarks excluded)", len(findings))
	}
}

// TestGateFailsOnInjectedRegression is the CI acceptance proof: a >15%
// ns/op regression injected into the kernel benchmarks fails the gate.
func TestGateFailsOnInjectedRegression(t *testing.T) {
	findings, err := Gate(parse(t, baseBench), shifted(t, 1.20), gatePrefixes, 1.15)
	if err == nil {
		t.Fatal("20% regression must fail a 15% gate")
	}
	if !strings.Contains(err.Error(), "regression") {
		t.Fatalf("unhelpful error: %v", err)
	}
	regressed := 0
	for _, f := range findings {
		if f.Regress {
			regressed++
		}
	}
	if regressed != 3 {
		t.Fatalf("regressed = %d, want all 3 gated benchmarks", regressed)
	}
}

func TestGateImprovementPasses(t *testing.T) {
	if _, err := Gate(parse(t, baseBench), shifted(t, 0.5), gatePrefixes, 1.15); err != nil {
		t.Fatalf("an improvement must pass: %v", err)
	}
}

func TestGateMissingBenchmarkFails(t *testing.T) {
	cur := shifted(t, 1.0)
	delete(cur, "BenchmarkConvergedProbe")
	if _, err := Gate(parse(t, baseBench), cur, gatePrefixes, 1.15); err == nil {
		t.Fatal("a gated benchmark missing from the head run must fail")
	}
}

func TestGateUnmatchedIgnored(t *testing.T) {
	// BenchmarkUnrelated regresses 10x but is not gated.
	cur := shifted(t, 1.0)
	cur["BenchmarkUnrelated"].NsPerOp = []float64{5_000_000}
	if _, err := Gate(parse(t, baseBench), cur, gatePrefixes, 1.15); err != nil {
		t.Fatalf("ungated benchmark must not fail the gate: %v", err)
	}
}

// TestGateRatioIsPairedMedian pins the comparison: the median of the
// per-pair head/base ratios, sample i against sample i.
func TestGateRatioIsPairedMedian(t *testing.T) {
	base := map[string]*BenchSamples{"BenchmarkCrackInTwo/n=1M": {NsPerOp: []float64{100, 200, 300}}}
	head := map[string]*BenchSamples{"BenchmarkCrackInTwo/n=1M": {NsPerOp: []float64{180, 210, 320}}}
	findings, err := Gate(base, head, gatePrefixes, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs 1.8, 1.05 and 1.0667: one slow pair does not move the median.
	if got := findings[0].Ratio; got < 1.066 || got > 1.067 {
		t.Fatalf("ratio %v, want the paired median 320/300", got)
	}
}
