//go:build !linux

package column

// Alloc returns a zeroed array of n values for a column. Off Linux it is
// a plain make: there is no huge-page advice to give.
func Alloc(n int) []int64 { return make([]int64, n) }

// OnHugePages has no advice to give off Linux.
func OnHugePages([]int64) {}
