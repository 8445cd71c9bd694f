package column

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/xrand"
)

// Kernel microbenchmarks for the physical reorganization primitives — the
// hot loops every cracking algorithm is built from. Their names are stable
// interfaces: the CI bench job gates HEAD's ns/op against the merge-base's
// by benchmark name (see cmd/benchgate), and a gated benchmark that
// disappears fails the gate.
//
// Every iteration partitions a fresh copy of the data (a partitioned piece
// would re-partition for free), with the copy outside the timed section.

var kernelSizes = []struct {
	label string
	n     int
}{
	{"n=1M", 1 << 20},
	{"n=10M", 10_000_000},
}

// kernelData returns a seeded shuffle of [0, n) — the paper's dataset —
// plus a same-length scratch slice the benchmark partitions in place. The
// scratch comes from Alloc, as every product column does, so the kernels
// crack the memory the engine cracks: huge pages where the kernel gives
// them.
func kernelData(n int) (pristine, scratch []int64) {
	return xrand.New(42).Perm(n), Alloc(n)
}

func BenchmarkCrackInTwo(b *testing.B) {
	for _, sz := range kernelSizes {
		b.Run(sz.label, func(b *testing.B) {
			pristine, scratch := kernelData(sz.n)
			pivot := int64(sz.n / 2)
			b.SetBytes(int64(8 * sz.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(scratch, pristine)
				c := &Column{Values: scratch}
				b.StartTimer()
				p := c.CrackInTwo(0, sz.n, pivot)
				if p != sz.n/2 {
					b.Fatalf("crack position %d, want %d", p, sz.n/2)
				}
			}
		})
	}
}

func BenchmarkCrackInThree(b *testing.B) {
	for _, sz := range kernelSizes {
		b.Run(sz.label, func(b *testing.B) {
			pristine, scratch := kernelData(sz.n)
			lo, hi := int64(sz.n/4), int64(3*sz.n/4)
			b.SetBytes(int64(8 * sz.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(scratch, pristine)
				c := &Column{Values: scratch}
				b.StartTimer()
				p1, p2 := c.CrackInThree(0, sz.n, lo, hi)
				if p1 != int(lo) || p2 != int(hi) {
					b.Fatalf("crack positions (%d,%d), want (%d,%d)", p1, p2, lo, hi)
				}
			}
		})
	}
}

// BenchmarkMDD1RMaterialize measures the MDD1R primitive of Fig. 5: one
// pass that partitions a piece on a random pivot while collecting the
// query's qualifying tuples.
func BenchmarkMDD1RMaterialize(b *testing.B) {
	for _, sz := range kernelSizes {
		b.Run(sz.label, func(b *testing.B) {
			pristine, scratch := kernelData(sz.n)
			pivot := int64(sz.n / 2)
			a, qb := int64(sz.n/4), int64(sz.n/4+1024)
			out := make([]int64, 0, 2048)
			b.SetBytes(int64(8 * sz.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(scratch, pristine)
				c := &Column{Values: scratch}
				b.StartTimer()
				var p int
				out, p = c.SplitAndMaterialize(0, sz.n, pivot, a, qb, out[:0])
				if p != sz.n/2 || len(out) != 1024 {
					b.Fatalf("split %d materialized %d, want %d and 1024", p, len(out), sz.n/2)
				}
			}
		})
	}
}

// BenchmarkCrackInTwoPayload covers the payload-carrying path (a second
// attribute permuted in tandem, as a sideways map cracks), which cannot
// take the values-only fast loop.
func BenchmarkCrackInTwoPayload(b *testing.B) {
	const n = 1 << 20
	pristine, scratch := kernelData(n)
	payload := make([]int64, n)
	b.Run(fmt.Sprintf("n=%dK", n>>10), func(b *testing.B) {
		b.SetBytes(8 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(scratch, pristine)
			copy(payload, pristine)
			c := NewWithPayload(scratch, payload)
			b.StartTimer()
			if p := c.CrackInTwo(0, n, n/2); p != n/2 {
				b.Fatalf("crack position %d", p)
			}
		}
	})
}

// BenchmarkParallelCrackInTwo measures the chunked parallel partition
// (PR 6) on a values-only column at each GOMAXPROCS step. procs=1 is the
// interesting floor: the caller claims every chunk itself, so it bounds
// the coordination overhead the parallel path adds over the serial
// kernel; higher steps need real cores to separate.
func BenchmarkParallelCrackInTwo(b *testing.B) {
	for _, sz := range kernelSizes {
		pristine, scratch := kernelData(sz.n)
		pivot := int64(sz.n / 2)
		for _, procs := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/procs=%d", sz.label, procs), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				b.SetBytes(int64(8 * sz.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(scratch, pristine)
					c := &Column{Values: scratch}
					b.StartTimer()
					p := c.ParallelCrackInTwo(0, sz.n, pivot)
					if p != sz.n/2 {
						b.Fatalf("crack position %d, want %d", p, sz.n/2)
					}
				}
			})
		}
	}
}
