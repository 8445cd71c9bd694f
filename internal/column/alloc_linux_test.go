package column

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
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
