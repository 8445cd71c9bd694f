package crackdb_test

import (
	"bufio"
	"context"
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"unsafe"

	crackdb "repro"
)

// TestAdoptedColumnHugePages checks that a column array the caller wrote
// before handing it to Open moves onto huge pages at open, or stays on
// 4 KiB pages when the system's mode is [never], and that Open still
// adopts it rather than copying it. It runs in a child process: a fresh
// heap gives the array memory no earlier test left on huge pages. The
// array is written under MADV_NOHUGEPAGE, so neither a first touch under
// [always] nor khugepaged puts it there: only the collapse at open can.
func TestAdoptedColumnHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("no transparent huge pages on this kernel: %v", err)
	}
	never := strings.Contains(string(mode), "[never]")
	if _, err := os.Stat("/proc/self/smaps"); err != nil {
		t.Skipf("no smaps to read huge pages from: %v", err)
	}
	if err := probeCollapse(); !never && errors.Is(err, syscall.EINVAL) {
		t.Skip("MADV_COLLAPSE is refused (EINVAL): the kernel predates Linux 6.1")
	}
	if os.Getenv("CRACKDB_HUGEPAGE_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestAdoptedColumnHugePages$", "-test.v")
		cmd.Env = append(os.Environ(), "CRACKDB_HUGEPAGE_CHILD=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		t.Logf("child:\n%s", out)
		return
	}

	const n = 64 << 20 / 8
	vals := make([]int64, n)
	if err := syscall.Madvise(pageInterior(vals), syscall.MADV_NOHUGEPAGE); err != nil {
		t.Skipf("MADV_NOHUGEPAGE: %v", err)
	}
	for i := range vals {
		vals[i] = int64(i * 7919 % n) // a permutation of [0, n): 7919 is odd
	}
	db, err := crackdb.Open(vals, crackdb.DD1R)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	kb := anonHugePagesKB(t, vals)
	t.Logf("AnonHugePages %d kB in the array's mappings (THP %s)", kb, strings.TrimSpace(string(mode)))
	switch {
	case never && kb != 0:
		t.Fatal("Open put the array on huge pages while the system's mode is [never]")
	case !never && kb == 0:
		t.Fatal("a written 64 MiB array is still on 4 KiB pages after Open")
	}

	if _, err := db.Query(context.Background(), crackdb.Range(n/4, n/4+1000)); err != nil {
		t.Fatal(err)
	}
	moved := false
	for i, v := range vals {
		if v != int64(i*7919%n) {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("a cracking query left the caller's slice as written: Open copied it")
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := snap.Columns[0].Parts[0].State.Values
	for i := range vals {
		if vals[i] != got[i] {
			t.Fatalf("slot %d: the caller's slice holds %d, the DB's column %d: Open copied it", i, vals[i], got[i])
		}
	}
}

// pageInterior returns the bytes of the whole pages inside vals.
func pageInterior(vals []int64) []byte {
	page := uintptr(os.Getpagesize())
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*8)
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := int((start+page-1)&^(page-1) - start)
	return b[lo : lo+(len(b)-lo)&^int(page-1)]
}

// probeCollapse asks MADV_COLLAPSE (25; package syscall lacks the name)
// for a written 4 MiB anonymous mapping and returns the kernel's answer.
func probeCollapse() error {
	b, err := syscall.Mmap(-1, 0, 4<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return err
	}
	defer syscall.Munmap(b)
	for i := range b {
		b[i] = 1
	}
	return syscall.Madvise(b, 25)
}

// anonHugePagesKB sums AnonHugePages over the mappings in
// /proc/self/smaps that overlap vals: the process total counts what other
// code put on huge pages too.
func anonHugePagesKB(t *testing.T, vals []int64) int {
	t.Helper()
	lo := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(vals))))
	hi := lo + uint64(len(vals))*8
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps to read huge pages from: %v", err)
	}
	defer f.Close()
	total, overlaps := 0, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "AnonHugePages:"); ok {
			if overlaps {
				kb, err := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(rest), " kB"))
				if err != nil {
					t.Fatalf("smaps: %q: %v", line, err)
				}
				total += kb
			}
			continue
		}
		// A mapping's header is "start-end perms ...", in hex.
		span, _, _ := strings.Cut(line, " ")
		start, end, ok := strings.Cut(span, "-")
		if !ok {
			continue
		}
		s, err1 := strconv.ParseUint(start, 16, 64)
		e, err2 := strconv.ParseUint(end, 16, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		overlaps = s < hi && lo < e
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("smaps: %v", err)
	}
	return total
}
