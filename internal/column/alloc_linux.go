package column

import (
	"bytes"
	"os"
	"syscall"
	"unsafe"
)

// hugePage is the size of a transparent huge page on the platforms whose
// kernels back anonymous memory with them.
const hugePage = 2 << 20

// madvCollapse is Linux's MADV_COLLAPSE (6.1 and later), which package
// syscall does not name.
const madvCollapse = 25

// thpEnabled is the file that names the system's transparent huge page
// mode, the bracketed one of "always madvise never". A test points it at
// a file of its own to run under a mode the host does not have.
var thpEnabled = "/sys/kernel/mm/transparent_hugepage/enabled"

// Alloc returns a zeroed array of n values for a column, on huge pages
// where the kernel gives them (see OnHugePages).
func Alloc(n int) []int64 {
	vals := make([]int64, n)
	OnHugePages(vals)
	return vals
}

// OnHugePages moves the 2 MiB-aligned interior of a column array onto
// transparent huge pages, so a random access into a large column costs a
// cache miss but rarely a page walk too. Alloc calls it on a new array,
// and an engine on the array it adopts. MADV_HUGEPAGE makes memory fresh
// from the kernel take huge pages at its first touch; MADV_COLLAPSE then
// rebuilds, synchronously, the pages that are already there: an array the
// caller wrote before handing it over, or memory the Go runtime reused.
// Without the collapse those wait for the kernel's khugepaged, if it comes
// at all. The collapse copies a written 80 MB array once (26 ms on a
// 2 vCPU Xeon) and costs microseconds on pages already huge. Both are
// hints, and a kernel before 6.1 refuses the collapse. MADV_COLLAPSE
// ignores the system's mode, so under [never] nothing is asked and the
// array stays on 4 KiB pages. An array too small to hold two huge pages
// is left alone.
func OnHugePages(vals []int64) {
	if len(vals)*8 < 2*hugePage || thpNever() {
		return
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*8)
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := int((start+hugePage-1)&^(hugePage-1) - start)
	hi := lo + (len(b)-lo)&^(hugePage-1)
	// Advice the kernel refuses changes nothing the program can observe.
	_ = syscall.Madvise(b[lo:hi], syscall.MADV_HUGEPAGE)
	_ = syscall.Madvise(b[lo:hi], madvCollapse)
}

// thpNever reports whether the system's transparent huge page mode is
// [never]. It reads the mode on every call, so a change an operator makes
// at run time holds from the next array on.
func thpNever() bool {
	mode, err := os.ReadFile(thpEnabled)
	return err == nil && bytes.Contains(mode, []byte("[never]"))
}
