package snapshot

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestReadIntsAllocatesLinearly: decoding n values allocates O(n) bytes.
// readInts grows its result a chunk at a time so a lying length field
// costs bounded memory; each growth must keep the capacity it asked for,
// or every chunk copies the whole prefix again and a 10 M-value restore
// copies the column about 150 times.
func TestReadIntsAllocatesLinearly(t *testing.T) {
	const n = 32 * readChunk
	raw := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(raw[8*i:], uint64(i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := readInts(bytes.NewReader(raw), n)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n || out[n-1] != n-1 {
		t.Fatalf("decoded %d values, last %d", len(out), out[len(out)-1])
	}
	// The result's growth is geometric (at least 1.25x per step) and each
	// chunk passes through one 8-byte-per-value read buffer: about 50
	// bytes per value. Re-copying the prefix per chunk costs about 160
	// bytes per value at this n, and grows with n.
	perValue := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f bytes allocated per decoded value", perValue)
	if perValue > 64 {
		t.Fatalf("decoding %d values allocated %.1f bytes per value, want <= 64", n, perValue)
	}
}
