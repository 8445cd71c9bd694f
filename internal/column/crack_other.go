//go:build !amd64 || purego

package column

const useAVX512 = false

// crackVector is the vector step of crackInTwoVals; without one the
// scalar loop runs the whole piece.
func crackVector(v []int64, pivot int64, j, i int) (int, int) { return j, i }
