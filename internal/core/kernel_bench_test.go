package core

import (
	"testing"

	"repro/internal/xrand"
)

// Converged-path microbenchmarks. BenchmarkConvergedProbe is part of the
// CI kernel regression gate (bench/baseline/kernels.txt, cmd/benchgate):
// its name is a stable interface.

const (
	probeN      = 1 << 20
	probeRanges = 1024
	probeWidth  = 64
)

// convergedEngine builds a DD1R index and runs every benchmark range once,
// so each bound is an exact crack and the workload is pure reads.
func convergedEngine(b *testing.B) (*Engine, [][2]int64) {
	b.Helper()
	d := NewDD1R(xrand.New(7).Perm(probeN), Options{Seed: 8})
	rng := xrand.New(9)
	ranges := make([][2]int64, probeRanges)
	for i := range ranges {
		a := rng.Int63n(probeN - probeWidth)
		ranges[i] = [2]int64{a, a + probeWidth}
		d.Query(a, a+probeWidth)
	}
	return d.Engine(), ranges
}

// BenchmarkConvergedProbe measures the fused convergence probe plus
// read-only answer — the whole hot path of a converged query minus
// locking: one cracker-index descent for both bounds and the piece scans.
func BenchmarkConvergedProbe(b *testing.B) {
	e, ranges := convergedEngine(b)
	dst := make([]int64, 0, probeWidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ranges[i%probeRanges]
		out, ok := e.TryAnswerReadOnly(r[0], r[1], dst[:0])
		if !ok || len(out) != probeWidth {
			b.Fatalf("not converged or bad count %d", len(out))
		}
	}
}

// BenchmarkConvergedMaterialize measures bulk materialization of a wide
// converged result: both bounds are exact cracks, so the answer is one
// contiguous copy of ~half the column — the path that fans large copies
// out to the worker pool.
func BenchmarkConvergedMaterialize(b *testing.B) {
	const n = 1 << 22
	const lo, hi = int64(n / 4), int64(3 * n / 4)
	d := NewCrack(xrand.New(11).Perm(n), Options{Seed: 12})
	d.Query(lo, hi) // both bounds become exact cracks
	dst := make([]int64, 0, hi-lo)
	b.SetBytes(8 * (hi - lo))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, ok := d.Engine().TryAnswerReadOnly(lo, hi, dst[:0])
		if !ok || len(out) != int(hi-lo) {
			b.Fatalf("not converged or bad count %d", len(out))
		}
	}
}
