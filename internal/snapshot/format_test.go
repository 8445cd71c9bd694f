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

// goldens are byte streams written by encoders that no longer exist;
// testdata holds them so decode coverage of v1–v3, and of row ids (which
// no writer emits any more), does not depend on a writer. Rows, pieces
// and pending were recorded when each stream was written; parts are
// summed over columns.
var goldens = []struct {
	file                  string
	version               byte
	rows, pieces, pending int
	parts, columns        int
}{
	// A 5 000-row permutation of [0, 5000) cracked by 100 dd1r queries.
	{file: "v1.crks", version: 1, rows: 5000, pieces: 194, parts: 1, columns: 1},
	// A permutation of [0, 2000) cracked into 101 pieces, with row ids.
	{file: "v1-rowids.crks", version: 1, rows: 2000, pieces: 101, parts: 1, columns: 1},
	{file: "v2-3parts.crks", version: 2, rows: 1500, pieces: 44, parts: 3, columns: 1},
	{file: "v3-pending.crks", version: 3, rows: 2003, pieces: 2, pending: 6, parts: 2, columns: 1},
	{file: "v4-table.crks", version: 4, rows: 400, pieces: 110, parts: 3, columns: 2},
	// shardedParts(2000, 2) of a row-id tracking engine, with its row ids.
	{file: "v4-rowids.crks", version: 4, rows: 2000, pieces: 56, parts: 2, columns: 1},
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
func sameParts(a, b Parts) bool {
	return slices.EqualFunc(a, b, func(x, y Part) bool {
		return x.Lo == y.Lo && x.Hi == y.Hi &&
			slices.Equal(x.State.Values, y.State.Values) &&
			slices.Equal(x.State.Cracks, y.State.Cracks) &&
			slices.Equal(x.State.PendingInserts, y.State.PendingInserts) &&
			slices.Equal(x.State.PendingDeletes, y.State.PendingDeletes)
	})
}

func sameManifest(a, b Manifest) bool {
	return slices.EqualFunc(a.Columns, b.Columns, func(x, y TableColumn) bool {
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
		parts := 0
		for _, c := range m.Columns {
			parts += len(c.Parts)
		}
		if m.Rows() != g.rows || m.Pieces() != g.pieces || m.Pending() != g.pending ||
			parts != g.parts || len(m.Columns) != g.columns {
			t.Fatalf("%s: rows %d pieces %d pending %d parts %d columns %d, want %d/%d/%d/%d/%d",
				g.file, m.Rows(), m.Pieces(), m.Pending(), parts, len(m.Columns),
				g.rows, g.pieces, g.pending, g.parts, g.columns)
		}
		if g.columns == 1 && m.Columns[0].Name != "" {
			t.Fatalf("%s: single column named %q, want unnamed", g.file, m.Columns[0].Name)
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

// TestRowIDPayloadSkipped: a legacy stream's row ids are read past, under
// the checksum, and a payload cut short is corruption like any other
// truncation.
func TestRowIDPayloadSkipped(t *testing.T) {
	raw := readGolden(t, "v4-rowids.crks")
	// Layout: magic, column count, name length, part count, bounds, then
	// part 0's length (1 000), row-id flag, values and row ids.
	const flagAt = 8 + 8 + 8 + 8 + 16 + 8
	if n := binary.LittleEndian.Uint64(raw[flagAt-8:]); n != 1000 || raw[flagAt] != 1 {
		t.Fatalf("unexpected layout: part 0 length %d, row-id flag %d", n, raw[flagAt])
	}
	idsAt := flagAt + 1 + 8*1000
	for _, cut := range []int{idsAt + 1, idsAt + 2000, idsAt + 3999} {
		_, err := ReadManifest(bytes.NewReader(raw[:cut]))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "reading row ids") {
			t.Fatalf("cut at %d inside the row ids: err = %v, want the row-id ErrCorrupt", cut, err)
		}
	}
	flipped := append([]byte(nil), raw...)
	flipped[idsAt+10] ^= 0x01
	if _, err := ReadManifest(bytes.NewReader(flipped)); !errors.Is(err, ErrCorrupt) ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("flipped row-id byte: err = %v, want a checksum ErrCorrupt", err)
	}
}

// pendingFreeParts is pendingParts with its queues dropped: the
// multi-part form the legacy writer sent as v2.
func pendingFreeParts(t *testing.T) Parts {
	m := pendingParts(t)
	for i := range m {
		m[i].State.PendingInserts = nil
		m[i].State.PendingDeletes = nil
	}
	return m
}

// TestEveryManifestFormWritesV4: single states (with and without
// pending queues), part lists with and without pending queues, and
// tables all go out as v4 and come back equal, and what no reader
// accepts is refused: no columns, a column with no parts, the unnamed
// column beside a named one.
func TestEveryManifestFormWritesV4(t *testing.T) {
	forms := []struct {
		name string
		m    Manifest
	}{
		{"single", Single(crackedState(t, 1000, false))},
		{"single_rowids", Single(crackedState(t, 1000, true))},
		{"single_pending", Single(core.SnapshotState{Values: []int64{1, 2}, PendingInserts: []int64{1}})},
		{"one_part", unnamed(shardedParts(t, 2000, 1))},
		{"parts", unnamed(shardedParts(t, 1500, 3))},
		{"pending_free_parts", unnamed(pendingFreeParts(t))},
		{"parts_pending", unnamed(pendingParts(t))},
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
			if !sameManifest(got, f.m) {
				t.Fatal("decoded to a different manifest")
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("decoded manifest invalid: %v", err)
			}
		})
	}
	one := shardedParts(t, 50, 1)
	for name, bad := range map[string]Manifest{
		"no columns":           {},
		"empty columns":        {Columns: []TableColumn{}},
		"column with no parts": {Columns: []TableColumn{{Name: "a"}}},
		"unnamed beside named": {Columns: []TableColumn{{Parts: one}, {Name: "a", Parts: one}}},
	} {
		if err := WriteManifest(&bytes.Buffer{}, bad); err == nil {
			t.Fatalf("%s: written", name)
		}
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
