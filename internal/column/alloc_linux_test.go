package column

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// TestAllocHugePages checks the advice takes effect: once a 64 MiB array
// from Alloc is written, some of the process's anonymous memory sits on
// huge pages.
func TestAllocHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("no transparent huge pages on this kernel: %v", err)
	}
	if strings.Contains(string(mode), "[never]") {
		t.Skip("transparent huge pages are [never]: columns stay on 4 KiB pages")
	}
	vals := Alloc(64 << 20 / 8)
	for i := range vals {
		vals[i] = int64(i)
	}
	if kb := anonHugePagesKB(t); kb == 0 {
		t.Fatalf("AnonHugePages is 0 kB after writing 64 MiB from Alloc (THP %s)", strings.TrimSpace(string(mode)))
	}
	runtime.KeepAlive(vals)
}

// TestOnHugePagesHonoursNever checks that OnHugePages leaves a written
// array on 4 KiB pages while the system's mode is [never], which
// MADV_COLLAPSE alone would not honour, and collapses the same array once
// the mode is [madvise]. The mode comes from a file of the test's own, so
// both halves run whatever the host's mode is.
func TestOnHugePagesHonoursNever(t *testing.T) {
	mem, err := syscall.Mmap(-1, 0, 5*hugePage, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	// Neither a first touch under [always] nor khugepaged may put the
	// array on huge pages: only OnHugePages, whose MADV_HUGEPAGE lifts this.
	if err := syscall.Madvise(mem, syscall.MADV_NOHUGEPAGE); err != nil {
		t.Skipf("MADV_NOHUGEPAGE: %v", err)
	}
	vals := unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), len(mem)/8)
	for i := range vals {
		vals[i] = int64(i)
	}

	mode := filepath.Join(t.TempDir(), "enabled")
	defer func(path string) { thpEnabled = path }(thpEnabled)
	thpEnabled = mode
	setMode := func(m string) {
		if err := os.WriteFile(mode, []byte(m), 0o600); err != nil {
			t.Fatal(err)
		}
	}

	setMode("always madvise [never]\n")
	before := anonHugePagesKB(t)
	OnHugePages(vals)
	if kb := anonHugePagesKB(t) - before; kb != 0 {
		t.Fatalf("OnHugePages put %d kB on huge pages under [never]", kb)
	}

	setMode("always [madvise] never\n")
	OnHugePages(vals)
	if kb := anonHugePagesKB(t) - before; kb == 0 {
		if err := syscall.Madvise(mem, madvCollapse); errors.Is(err, syscall.EINVAL) {
			t.Skip("MADV_COLLAPSE is refused (EINVAL): the kernel predates Linux 6.1")
		}
		t.Fatal("OnHugePages left a written array on 4 KiB pages under [madvise]")
	}
}

// anonHugePagesKB reads the process's AnonHugePages from smaps_rollup.
func anonHugePagesKB(t *testing.T) int {
	t.Helper()
	f, err := os.Open("/proc/self/smaps_rollup")
	if err != nil {
		t.Skipf("no smaps_rollup to read huge pages from: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "AnonHugePages:"); ok {
			kb, err := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(rest), " kB"))
			if err != nil {
				t.Fatalf("smaps_rollup: %q: %v", sc.Text(), err)
			}
			return kb
		}
	}
	t.Fatalf("smaps_rollup has no AnonHugePages line (err %v)", sc.Err())
	return 0
}
