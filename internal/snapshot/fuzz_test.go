package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSnapshotDecode drives arbitrary bytes through the manifest decoder.
// The contract under attack: corrupted, truncated or version-bumped
// snapshot bytes must fail with an error wrapping ErrCorrupt — never
// panic, never hang, never balloon memory (lengths are read in chunks),
// and never yield state that silently re-encodes differently.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed corpus from real saved snapshots: single-part and multi-part
	// single-column manifests (one with pending queues) and table
	// manifests, then the goldens
	// (legacy v1–v3, and the row-id streams no writer emits any more),
	// each plus truncated and version-bumped variants, and plain garbage.
	encode := func(m Manifest) []byte {
		var buf bytes.Buffer
		if err := WriteManifest(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	single := encode(unnamed(shardedParts(f, 300, 1)))
	parts := encode(unnamed(shardedParts(f, 500, 3)))
	pending := encode(unnamed(pendingParts(f)))
	// Table manifests: single-part and sharded per-column part lists.
	table := encode(tableManifest(f, 300, 1))
	tableS := encode(tableManifest(f, 500, 3))
	addVariants := func(seed []byte) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:9])
		bumped := append([]byte(nil), seed...)
		bumped[7]++
		f.Add(bumped)
	}
	for _, seed := range [][]byte{single, parts, pending, table, tableS} {
		addVariants(seed)
	}
	f.Add([]byte{})
	f.Add([]byte("CRKS"))
	f.Add([]byte("not a snapshot at all, just text"))
	for _, g := range goldens {
		addVariants(readGolden(f, g.file))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		// Decoded streams must be internally coherent enough to re-encode
		// and decode back to the same manifest; semantic validation
		// (Manifest.Validate, run by every restore path) may still reject
		// them, but must not panic.
		_ = m.Validate()
		var buf bytes.Buffer
		if err := WriteManifest(&buf, m); err != nil {
			t.Fatalf("re-encode of decoded manifest failed: %v", err)
		}
		m2, err := ReadManifest(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !sameManifest(m, m2) {
			t.Fatal("round trip changed the manifest")
		}
	})
}
