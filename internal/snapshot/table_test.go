package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// tableManifest builds a realistic two-column table manifest: each
// column its own permutation of [0, n), value-range partitioned into k
// parts and cracked — exactly the shape Shared.Snapshot captures for a
// sharded table.
func tableManifest(t testing.TB, n int64, k int) Manifest {
	t.Helper()
	m := Manifest{Columns: []TableColumn{
		{Name: "a", Parts: shardedParts(t, n, k)},
		{Name: "b", Parts: shardedParts(t, n, 1)},
	}}
	if err := m.Validate(); err != nil {
		t.Fatalf("built table manifest invalid: %v", err)
	}
	return m
}

func TestTableManifestRoundTrip(t *testing.T) {
	m := tableManifest(t, 500, 3)
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(got.Columns) != len(m.Columns) {
		t.Fatalf("decoded %d columns, want %d", len(got.Columns), len(m.Columns))
	}
	for i, c := range m.Columns {
		d := got.Columns[i]
		if d.Name != c.Name || len(d.Parts) != len(c.Parts) {
			t.Fatalf("column %d: name %q parts %d, want %q/%d", i, d.Name, len(d.Parts), c.Name, len(c.Parts))
		}
		for j := range c.Parts {
			w, g := c.Parts[j].State, d.Parts[j].State
			if len(g.Values) != len(w.Values) || len(g.Cracks) != len(w.Cracks) ||
				g.Pending() != w.Pending() {
				t.Fatalf("column %q part %d shape changed across the wire", c.Name, j)
			}
		}
	}
	if m.Rows() != got.Rows() || m.Pieces() != got.Pieces() {
		t.Fatalf("rows/pieces changed: %d/%d -> %d/%d", m.Rows(), m.Pieces(), got.Rows(), got.Pieces())
	}
	// The single-column accessor feeds restore paths; both columns must
	// come back addressable.
	for _, name := range []string{"a", "b"} {
		col, ok := got.Column(name)
		if !ok || len(col) == 0 {
			t.Fatalf("column %q missing after round trip", name)
		}
	}
}

// TestTableManifestCorrupt attacks the encoded table stream: any
// truncation must surface an error wrapping ErrCorrupt (the sentinel the
// facade re-exports as ErrSnapshotCorrupt) — never a panic, never a
// silently short manifest.
func TestTableManifestCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteManifest(&buf, tableManifest(t, 400, 2)); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for cut := 1; cut < 16; cut++ {
		trunc := enc[:len(enc)*cut/16]
		if _, err := ReadManifest(bytes.NewReader(trunc)); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", cut, 16)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d/%d: error does not wrap ErrCorrupt: %v", cut, 16, err)
		}
	}
	// A decoded-then-mangled manifest must fail semantic validation: no
	// columns, out-of-order or duplicate column names, and the unnamed
	// column beside a named one are all structural corruption.
	m := tableManifest(t, 100, 1)
	a, b := m.Columns[0], m.Columns[1]
	for name, bad := range map[string]Manifest{
		"no columns":           {},
		"out of order":         {Columns: []TableColumn{b, a}},
		"duplicate":            {Columns: []TableColumn{a, a}},
		"unnamed beside named": {Columns: []TableColumn{{Parts: a.Parts}, b}},
	} {
		if err := bad.Validate(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v does not wrap ErrCorrupt", name, err)
		}
	}
}
