package snapshot

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// crackedState builds a realistic snapshot: a cracked index after a batch
// of queries. With tandem the index carries a payload, as a sideways map
// does, and cracks through the tandem kernels; the captured state never
// carries the payload.
func crackedState(t testing.TB, n int, tandem bool) core.SnapshotState {
	t.Helper()
	values := xrand.New(1).Perm(n)
	opt := core.Options{Seed: 2}
	if tandem {
		opt.Payload = slices.Clone(values)
	}
	ix := core.NewCrack(values, opt)
	rng := xrand.New(3)
	for i := 0; i < 50; i++ {
		a := rng.Int63n(int64(n) - 10)
		ix.Query(a, a+10)
	}
	return ix.Engine().Snapshot()
}

// roundTrip encodes m and decodes it back.
func roundTrip(t *testing.T, m Manifest) Manifest {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSnapshotRoundTrip: a captured state round-trips exactly, also when
// the index carried a tandem payload — it never reaches the stream, whose
// row-id flag stays 0.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tandem := range []bool{false, true} {
		st := crackedState(t, 5000, tandem)
		var buf bytes.Buffer
		if err := WriteManifest(&buf, Single(st)); err != nil {
			t.Fatal(err)
		}
		// Layout: magic, column count, name length, part count, bounds,
		// length, then the row-id flag.
		if flag := buf.Bytes()[56]; flag != 0 {
			t.Fatalf("tandem=%v: row-id flag %d written, want 0", tandem, flag)
		}
		m, err := ReadManifest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Columns) != 1 || m.Columns[0].Name != "" || len(m.Columns[0].Parts) != 1 {
			t.Fatalf("single state decoded to %d columns", len(m.Columns))
		}
		got := m.Columns[0].Parts[0].State
		if !slices.Equal(got.Values, st.Values) || !slices.Equal(got.Cracks, st.Cracks) {
			t.Fatalf("round trip changed the state: %d/%d values, %d/%d cracks",
				len(got.Values), len(st.Values), len(got.Cracks), len(st.Cracks))
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("round-tripped snapshot invalid: %v", err)
		}
	}
}

func TestRestoreResumesAdaptation(t *testing.T) {
	const n = 20000
	st := crackedState(t, n, false)
	ix, err := core.Restore(st, "dd1r", core.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().Cracks; got != len(st.Cracks) {
		t.Fatalf("restored index has %d cracks, snapshot had %d", got, len(st.Cracks))
	}
	// A query inside an already-cracked region must be cheap immediately.
	before := ix.Stats().Touched
	ix.Query(st.Cracks[0].Key, st.Cracks[1].Key)
	if d := ix.Stats().Touched - before; d > int64(n)/2 {
		t.Fatalf("restored index rescanned %d tuples; adaptation was lost", d)
	}
	// And results stay correct.
	res := ix.Query(100, 300)
	if res.Count() != 200 {
		t.Fatalf("count = %d, want 200", res.Count())
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	st := crackedState(t, 1000, false)
	// Corrupt a crack's position so a value lands on the wrong side.
	bad := st
	bad.Cracks = append([]core.CrackEntry(nil), st.Cracks...)
	if len(bad.Cracks) < 2 {
		t.Skip("need at least 2 cracks")
	}
	bad.Cracks[0], bad.Cracks[1] = core.CrackEntry{Key: bad.Cracks[1].Key, Pos: bad.Cracks[1].Pos},
		core.CrackEntry{Key: bad.Cracks[0].Key, Pos: bad.Cracks[0].Pos}
	if _, err := core.Restore(bad, "crack", core.Options{}); err == nil {
		t.Fatal("unordered cracks accepted")
	}

	bad2 := st
	bad2.Cracks = append([]core.CrackEntry(nil), st.Cracks...)
	bad2.Cracks[0].Pos = len(st.Values) // every value now "violates" it
	if _, err := core.Restore(bad2, "crack", core.Options{}); err == nil {
		t.Fatal("invariant-violating crack accepted")
	}
}

func TestReadRejectsCorruptStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteManifest(&buf, Single(crackedState(t, 500, false))); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a byte in the middle: checksum must catch it.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0xff
	if _, err := ReadManifest(bytes.NewReader(flipped)); err == nil {
		t.Fatal("bit flip not detected")
	}

	// Truncate: must error, not hang or panic.
	for _, cut := range []int{1, 8, 9, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadManifest(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// Wrong magic.
	garbage := append([]byte("NOTASNAP"), raw[8:]...)
	if _, err := ReadManifest(bytes.NewReader(garbage)); err == nil {
		t.Fatal("wrong magic accepted")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := crackedState(t, 2000, false)
	path := filepath.Join(dir, "index.crks")
	if err := SaveManifestFile(path, Single(st)); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 2000 || got.Pieces() != len(st.Cracks)+1 {
		t.Fatal("file round trip lost data")
	}
	if _, err := LoadManifestFile(filepath.Join(dir, "missing.crks")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestEmptySnapshot(t *testing.T) {
	m := roundTrip(t, Single(core.SnapshotState{}))
	if len(m.Columns) != 1 || len(m.Columns[0].Parts) != 1 {
		t.Fatalf("empty state decoded to %d columns", len(m.Columns))
	}
	got := m.Columns[0].Parts[0].State
	if len(got.Values) != 0 || len(got.Cracks) != 0 {
		t.Fatal("empty snapshot round trip wrong")
	}
}
