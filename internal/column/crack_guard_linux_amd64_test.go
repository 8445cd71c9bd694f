package column

import (
	"os"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/xrand"
)

// TestCrackPrefetchStopsAtGuardPage cracks slices that end exactly at a
// PROT_NONE page. The kernel's prefetches reach crackAhead bytes past the
// block it partitions, into the guard page at the slice's end; a prefetch
// never faults, and the slots must match the scalar loop's.
func TestCrackPrefetchStopsAtGuardPage(t *testing.T) {
	if !useAVX512 {
		t.Skip("the AVX-512 path is off: the scalar loop prefetches nothing")
	}
	const n = 1 << 16
	page := os.Getpagesize()
	size := (n*8+page-1)/page*page + 3*page // the tuples, two spare pages, the guard
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	guard := size - page
	if err := syscall.Mprotect(mem[guard:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	v := unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), guard/8)

	rng := xrand.New(5)
	perm := rng.Perm(len(v))
	for _, c := range []struct {
		name  string
		lo    int
		pivot int64
	}{
		{"balanced", len(v) - n, int64(len(v) / 2)},
		{"1%-low", len(v) - n, int64(len(v) / 100)},
		{"99%-low", len(v) - n, int64(len(v) - len(v)/100)},
		{"below-all", len(v) - n, -1},
		{"above-all", len(v) - n, int64(len(v))},
		{"odd-start", len(v) - n + 3, int64(len(v) / 2)},
		{"page-start", page / 8, int64(len(v) / 2)},
	} {
		copy(v, perm)
		want := append([]int64(nil), v[c.lo:]...)
		wp, ws := crackInTwoScalar(want, c.pivot)
		gp, gs := crackInTwoVals(v[c.lo:], c.pivot)
		if gp != wp || gs != ws {
			t.Fatalf("%s: (split, swaps) = (%d, %d), scalar (%d, %d)", c.name, gp, gs, wp, ws)
		}
		for i, x := range want {
			if v[c.lo+i] != x {
				t.Fatalf("%s: slot %d holds %d, scalar %d", c.name, c.lo+i, v[c.lo+i], x)
			}
		}
	}
}
