package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	crackdb "repro"
)

// The 64-bit FNV-1a digests of the dataset and of one node's slice of it,
// recorded before the shuffle was batched. Every node cuts its slice from
// MakeData(N, Seed) on its own, so a permutation that changed silently
// would split the cluster's data between nodes built before and after.
const (
	makeDataDigest = 0xf1a73063f9673701 // MakeData(1<<20, 7)
	sliceOfDigest  = 0xc82a24e08d6eeab9 // SliceOf(1<<20, 7, 1<<18, 3<<18)
)

func TestDatasetDigests(t *testing.T) {
	if got := digest(crackdb.MakeData(1<<20, 7)); got != makeDataDigest {
		t.Errorf("MakeData(1<<20, 7) digest %#016x, want %#016x", got, uint64(makeDataDigest))
	}
	if got := digest(SliceOf(1<<20, 7, 1<<18, 3<<18)); got != sliceOfDigest {
		t.Errorf("SliceOf(1<<20, 7, 1<<18, 3<<18) digest %#016x, want %#016x", got, uint64(sliceOfDigest))
	}
}

// digest is the FNV-1a hash of vals as little-endian 64-bit words.
func digest(vals []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}
