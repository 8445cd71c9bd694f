package column

import (
	"syscall"
	"unsafe"
)

// hugePage is the size of a transparent huge page on the platforms whose
// kernels back anonymous memory with them.
const hugePage = 2 << 20

// Alloc returns a zeroed array of n values for a column. On Linux it
// asks the kernel to back the array's 2 MiB-aligned interior with
// transparent huge pages, so a random access into a large column costs a
// cache miss but rarely a page walk too. Memory fresh from the kernel
// takes the advice at its first touch; memory the Go runtime reuses was
// already touched when make zeroed it, and is collapsed into huge pages
// later, if at all, by the kernel's khugepaged. The advice is a hint:
// with huge pages off ([never]) or unavailable, the array is the same, on
// 4 KiB pages.
func Alloc(n int) []int64 {
	vals := make([]int64, n)
	adviseHuge(vals)
	return vals
}

// adviseHuge asks MADV_HUGEPAGE for the whole huge pages inside vals. An
// array too small to hold one is left alone.
func adviseHuge(vals []int64) {
	if len(vals)*8 < 2*hugePage {
		return
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*8)
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := int((start+hugePage-1)&^(hugePage-1) - start)
	hi := lo + (len(b)-lo)&^(hugePage-1)
	// Advice the kernel refuses changes nothing the program can observe.
	_ = syscall.Madvise(b[lo:hi], syscall.MADV_HUGEPAGE)
}
