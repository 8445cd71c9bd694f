//go:build amd64 && !purego

package column

// useAVX512 is decided once, from CPUID and XGETBV: the CPU has AVX512F
// and POPCNT, and the OS saves the opmask and ZMM registers.
var useAVX512 = hasAVX512()

// maxAsmStep caps the tuples one crackBlocksAVX512 call partitions. The
// Go runtime never preempts assembly asynchronously, so an unbounded
// call over a 10 M-tuple piece would hold off the scheduler and the GC
// for milliseconds; 64 Ki tuples take about 0.1 ms.
const maxAsmStep = 1 << 16

func hasAVX512() bool

//go:noescape
func crackBlocksAVX512(v []int64, pivot int64, j, i, n int) int

// crackVector advances crackInTwoVals's Lomuto state (j, i) eight tuples
// per step with AVX-512 and returns it; the caller's scalar loop runs
// the tail. The block step needs the run of highs v[j:i] to hold at
// least 8 tuples, so scalar steps run first until it does (the run
// never shrinks). Without AVX-512 it returns (j, i) unchanged.
func crackVector(v []int64, pivot int64, j, i int) (int, int) {
	if !useAVX512 {
		return j, i
	}
	for i-j < 8 {
		if len(v)-i < 8 {
			return j, i
		}
		// j+8-i more steps cannot grow the run past 8, and j+8 <= len(v).
		e := j + 8
		j, i = lomuto(v[:e], pivot, j, i), e
	}
	for len(v)-i >= 8 {
		n := min(len(v)-i, maxAsmStep) &^ 7
		j = crackBlocksAVX512(v, pivot, j, i, n)
		i += n
	}
	return j, i
}
