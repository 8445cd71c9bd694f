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
	// Seed corpus from real saved snapshots: single-part (with and without
	// row ids) and multi-part single-column manifests and table manifests,
	// then the legacy v1–v3 goldens, each plus truncated and
	// version-bumped variants, and plain garbage.
	encode := func(m Manifest) []byte {
		var buf bytes.Buffer
		if err := WriteManifest(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	single := encode(shardedManifest(f, 300, 1, false))
	singleR := encode(shardedManifest(f, 300, 1, true))
	parts := encode(shardedManifest(f, 500, 3, false))
	partsR := encode(shardedManifest(f, 500, 4, true))
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
	for _, seed := range [][]byte{single, singleR, parts, partsR, table, tableS} {
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
		if len(m2.Parts) != len(m.Parts) {
			t.Fatalf("round trip changed part count %d -> %d", len(m.Parts), len(m2.Parts))
		}
		for i := range m.Parts {
			if len(m2.Parts[i].State.Values) != len(m.Parts[i].State.Values) ||
				len(m2.Parts[i].State.Cracks) != len(m.Parts[i].State.Cracks) {
				t.Fatalf("round trip changed part %d shape", i)
			}
		}
		if len(m2.Columns) != len(m.Columns) {
			t.Fatalf("round trip changed column count %d -> %d", len(m.Columns), len(m2.Columns))
		}
		for i := range m.Columns {
			if m2.Columns[i].Name != m.Columns[i].Name ||
				len(m2.Columns[i].Parts) != len(m.Columns[i].Parts) {
				t.Fatalf("round trip changed column %d shape", i)
			}
		}
	})
}
