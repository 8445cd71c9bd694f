package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// goldens are byte streams written by the encoders of the legacy
// versions, which no longer exist; testdata holds them so decode
// coverage of v1–v3 does not depend on a writer. Rows, pieces and
// pending were recorded when each stream was written.
var goldens = []struct {
	file                  string
	version               byte
	rows, pieces, pending int
	parts, columns        int
	rowIDs                bool
}{
	// A 5 000-row permutation of [0, 5000) cracked by 100 dd1r queries.
	{file: "v1.crks", version: 1, rows: 5000, pieces: 194, parts: 1},
	{file: "v1-rowids.crks", version: 1, rows: 2000, pieces: 101, parts: 1, rowIDs: true},
	{file: "v2-3parts.crks", version: 2, rows: 1500, pieces: 44, parts: 3},
	{file: "v3-pending.crks", version: 3, rows: 2003, pieces: 2, pending: 6, parts: 2},
	{file: "v4-table.crks", version: 4, rows: 400, pieces: 110, columns: 2},
}

func readGolden(t testing.TB, file string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// sameParts reports whether two part lists hold the same bounds and
// states (nil and empty slices compare equal).
func sameParts(a, b []Part) bool {
	return slices.EqualFunc(a, b, func(x, y Part) bool {
		return x.Lo == y.Lo && x.Hi == y.Hi &&
			slices.Equal(x.State.Values, y.State.Values) &&
			slices.Equal(x.State.RowIDs, y.State.RowIDs) &&
			(x.State.RowIDs == nil) == (y.State.RowIDs == nil) &&
			slices.Equal(x.State.Cracks, y.State.Cracks) &&
			slices.Equal(x.State.PendingInserts, y.State.PendingInserts) &&
			slices.Equal(x.State.PendingDeletes, y.State.PendingDeletes)
	})
}

func sameManifest(a, b Manifest) bool {
	return sameParts(a.Parts, b.Parts) && slices.EqualFunc(a.Columns, b.Columns, func(x, y TableColumn) bool {
		return x.Name == y.Name && sameParts(x.Parts, y.Parts)
	})
}

// TestLegacyGoldensDecode: every committed stream decodes, validates and
// matches its recorded shape, and upgrades — re-encoded, it is v4 and
// decodes to an equal manifest.
func TestLegacyGoldensDecode(t *testing.T) {
	for _, g := range goldens {
		raw := readGolden(t, g.file)
		if raw[7] != g.version {
			t.Fatalf("%s: version byte %d, want %d", g.file, raw[7], g.version)
		}
		m, err := ReadManifest(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if m.Rows() != g.rows || m.Pieces() != g.pieces || m.Pending() != g.pending ||
			len(m.Parts) != g.parts || len(m.Columns) != g.columns {
			t.Fatalf("%s: rows %d pieces %d pending %d parts %d columns %d, want %d/%d/%d/%d/%d",
				g.file, m.Rows(), m.Pieces(), m.Pending(), len(m.Parts), len(m.Columns),
				g.rows, g.pieces, g.pending, g.parts, g.columns)
		}
		if g.parts > 0 && (m.Parts[0].State.RowIDs != nil) != g.rowIDs {
			t.Fatalf("%s: row ids present = %v, want %v", g.file, m.Parts[0].State.RowIDs != nil, g.rowIDs)
		}
		var buf bytes.Buffer
		if err := WriteManifest(&buf, m); err != nil {
			t.Fatalf("%s: re-encoding: %v", g.file, err)
		}
		if got := [8]byte(buf.Bytes()); got != magicV4 {
			t.Fatalf("%s: re-encoded with magic %x, want v4", g.file, got)
		}
		up, err := ReadManifest(&buf)
		if err != nil {
			t.Fatalf("%s: decoding the upgrade: %v", g.file, err)
		}
		if !sameManifest(m, up) {
			t.Fatalf("%s: the v4 upgrade decodes to a different manifest", g.file)
		}
	}
}

// pendingFreeManifest is pendingManifest with its queues dropped: the
// multi-part form the legacy writer sent as v2.
func pendingFreeManifest(t *testing.T) Manifest {
	m := pendingManifest(t)
	for i := range m.Parts {
		m.Parts[i].State.PendingInserts = nil
		m.Parts[i].State.PendingDeletes = nil
	}
	return m
}

// TestEveryManifestFormWritesV4: single states (with and without
// pending queues), part lists with and without pending queues, and
// tables all go out as v4, the single-column forms come back as
// single-column manifests, and an empty manifest is refused.
func TestEveryManifestFormWritesV4(t *testing.T) {
	forms := []struct {
		name string
		m    Manifest
	}{
		{"single", Single(crackedState(t, 1000, false))},
		{"single_rowids", Single(crackedState(t, 1000, true))},
		{"single_pending", Single(core.SnapshotState{Values: []int64{1, 2}, PendingInserts: []int64{1}})},
		{"one_part", shardedManifest(t, 2000, 1, false)},
		{"parts", shardedManifest(t, 1500, 3, false)},
		{"pending_free_parts", pendingFreeManifest(t)},
		{"parts_pending", pendingManifest(t)},
		{"table", tableManifest(t, 300, 2)},
	}
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteManifest(&buf, f.m); err != nil {
				t.Fatal(err)
			}
			if got := [8]byte(buf.Bytes()); got != magicV4 {
				t.Fatalf("wrote magic %x, want v4", got)
			}
			got, err := ReadManifest(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.IsTable() != f.m.IsTable() || !sameManifest(got, f.m) {
				t.Fatalf("decoded to a different manifest (table=%v)", got.IsTable())
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("decoded manifest invalid: %v", err)
			}
		})
	}
	for _, empty := range []Manifest{{}, {Parts: []Part{}}, {Columns: []TableColumn{}}} {
		if err := WriteManifest(&bytes.Buffer{}, empty); err == nil {
			t.Fatalf("empty manifest %+v written", empty)
		}
	}
	unnamed := Manifest{Columns: []TableColumn{{Name: "", Parts: Single(core.SnapshotState{}).Parts}}}
	if err := WriteManifest(&bytes.Buffer{}, unnamed); err == nil {
		t.Fatal("table column without a name written")
	}
}

// TestUnnamedColumnOnlyAlone: an empty column name is the single-column
// form only when it names the stream's only column; next to another
// column it is corruption, even under a valid checksum.
func TestUnnamedColumnOnlyAlone(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteManifest(&buf, tableManifest(t, 200, 1)); err != nil {
		t.Fatal(err)
	}
	// Layout: magic, column count, then column "a": name length 1, "a".
	raw := buf.Bytes()
	if string(raw[24:25]) != "a" {
		t.Fatalf("unexpected layout: %q", raw[:25])
	}
	body := append(append([]byte(nil), raw[:16]...), make([]byte, 8)...) // name length 0
	body = append(body, raw[25:len(raw)-4]...)
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	_, err := ReadManifest(bytes.NewReader(body))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "name length 0") {
		t.Fatalf("unnamed column beside a named one: err = %v, want the name-length ErrCorrupt", err)
	}
}
