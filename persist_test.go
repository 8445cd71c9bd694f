package crackdb_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	crackdb "repro"
)

func TestFacadeSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	db, err := crackdb.Open(crackdb.MakeData(20_000, 1), crackdb.Crack, crackdb.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 30; i++ {
		if _, err := db.Query(ctx, crackdb.Range(i*600, i*600+100)); err != nil {
			t.Fatal(err)
		}
	}
	cracksBefore := db.Stats().Cracks
	path := filepath.Join(dir, "ix.crks")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	// Restore under a different (stochastic) algorithm: the crack state is
	// algorithm-agnostic.
	restored, err := crackdb.OpenSnapshotFile(path, crackdb.DD1R, crackdb.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stats().Cracks != cracksBefore {
		t.Fatalf("restored cracks = %d, want %d", restored.Stats().Cracks, cracksBefore)
	}
	count := func() int {
		res, err := restored.Query(ctx, crackdb.Range(600, 700))
		if err != nil {
			t.Fatal(err)
		}
		return res.Count()
	}
	if got := count(); got != 100 {
		t.Fatalf("restored query count = %d", got)
	}
	// Updates still work after restore.
	if err := restored.Insert(650); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 101 {
		t.Fatalf("count after insert = %d", got)
	}
}

func TestFacadeSnapshotRejectsPendingUpdates(t *testing.T) {
	db, err := crackdb.Open(crackdb.MakeData(1_000, 4), crackdb.Crack)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(5); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SnapshotStrict(); !errors.Is(err, crackdb.ErrPendingUpdates) {
		t.Fatalf("snapshot with pending updates: err = %v", err)
	}
	// Merges the insert.
	if _, err := db.Query(context.Background(), crackdb.Range(0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SnapshotStrict(); err != nil {
		t.Fatalf("snapshot after merge failed: %v", err)
	}
}

func TestFacadeSnapshotRejectsHybrids(t *testing.T) {
	db, err := crackdb.Open(crackdb.MakeData(1_000, 5), crackdb.AICS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Snapshot(); !errors.Is(err, crackdb.ErrSnapshotUnsupported) {
		t.Fatalf("hybrid snapshot: err = %v", err)
	}
}

// TestDBSnapshotFileRoundTrip saves whole-DB snapshots from every
// single-column mode and reopens them from disk across modes, including
// a different shard count.
func TestDBSnapshotFileRoundTrip(t *testing.T) {
	const n = 15_000
	ctx := context.Background()
	dir := t.TempDir()
	for _, src := range []struct {
		name string
		mode crackdb.Concurrency
	}{
		{"single", crackdb.Single},
		{"shared", crackdb.Shared},
		{"sharded-6", crackdb.Sharded(6)},
	} {
		db, err := crackdb.Open(crackdb.MakeData(n, 91), crackdb.DD1R,
			crackdb.WithSeed(92), crackdb.WithConcurrency(src.mode))
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 40; i++ {
			if _, err := db.Query(ctx, crackdb.Range(i*300, i*300+80)); err != nil {
				t.Fatal(err)
			}
		}
		piecesBefore := db.Stats().Pieces
		path := filepath.Join(dir, src.name+".crks")
		if err := db.SaveSnapshot(path); err != nil {
			t.Fatalf("%s: save: %v", src.name, err)
		}
		for _, tgt := range []struct {
			name string
			mode crackdb.Concurrency
		}{
			{"single", crackdb.Single},
			{"sharded-6", crackdb.Sharded(6)},
			{"sharded-2", crackdb.Sharded(2)},
		} {
			restored, err := crackdb.OpenSnapshotFile(path, crackdb.DD1R,
				crackdb.WithSeed(93), crackdb.WithConcurrency(tgt.mode))
			if err != nil {
				t.Fatalf("%s->%s: open: %v", src.name, tgt.name, err)
			}
			if restored.Rows() != n {
				t.Fatalf("%s->%s: rows=%d", src.name, tgt.name, restored.Rows())
			}
			// No adaptation lost in the file round trip (modulo the
			// zero-size edge pieces clamping drops).
			if got := restored.Stats().Pieces; got < piecesBefore-12 {
				t.Fatalf("%s->%s: pieces=%d, before save %d", src.name, tgt.name, got, piecesBefore)
			}
			res, err := restored.Query(ctx, crackdb.Range(600, 680))
			if err != nil || res.Count() != 80 {
				t.Fatalf("%s->%s: count=%d err=%v", src.name, tgt.name, res.Count(), err)
			}
		}
	}
}

// TestOpenSnapshotFileRejectsCorruption proves the facade surfaces the
// corruption sentinel for damaged files, in every target mode.
func TestOpenSnapshotFileRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	db, err := crackdb.Open(crackdb.MakeData(3_000, 94), crackdb.Crack,
		crackdb.WithConcurrency(crackdb.Sharded(3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(context.Background(), crackdb.Range(100, 900)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "db.crks")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.crks")
	for name, mutate := range map[string]func([]byte) []byte{
		"bit flip":  func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)*2/3] },
		"version bump": func(b []byte) []byte {
			b[7] = 9
			return b
		},
	} {
		if err := os.WriteFile(bad, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []crackdb.Concurrency{crackdb.Single, crackdb.Sharded(3)} {
			_, err := crackdb.OpenSnapshotFile(bad, crackdb.Crack, crackdb.WithConcurrency(mode))
			if !errors.Is(err, crackdb.ErrSnapshotCorrupt) {
				t.Fatalf("%s (%v): err = %v, want ErrSnapshotCorrupt", name, mode, err)
			}
		}
	}
}

func TestFacadeColumnFiles(t *testing.T) {
	dir := t.TempDir()
	vals := crackdb.MakeData(500, 6)
	for _, binary := range []bool{true, false} {
		path := filepath.Join(dir, "col")
		if err := crackdb.SaveColumn(path, vals, binary); err != nil {
			t.Fatal(err)
		}
		got, err := crackdb.LoadColumn(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 500 {
			t.Fatalf("loaded %d values", len(got))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("value %d mismatch (binary=%v)", i, binary)
			}
		}
	}
	// Loaded columns feed straight into Open.
	db, err := crackdb.Open(vals, crackdb.MDD1R)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := db.Query(context.Background(), crackdb.Range(0, 100)); err != nil || res.Count() != 100 {
		t.Fatal("query over loaded column failed")
	}
}

// TestShardedRestoreKeepsPartBounds: snapshot → restore into the same
// Sharded(k) → snapshot keeps every column's part bounds, on a column DB
// and on a table alike — whether the restored column was queried (rebuilt
// from its parts) or not (re-emitted as captured).
func TestShardedRestoreKeepsPartBounds(t *testing.T) {
	ctx := context.Background()
	const n = 30_000
	opts := []crackdb.Option{crackdb.WithSeed(5), crackdb.WithConcurrency(crackdb.Sharded(3))}
	col, err := crackdb.Open(crackdb.MakeData(n, 1), crackdb.DD1R, opts...)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := crackdb.OpenTable(map[string][]int64{
		"a": crackdb.MakeData(n, 1),
		"b": crackdb.MakeData(n, 2),
	}, crackdb.DD1R, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// bounds lists each column's interior part bounds ("" for a column DB).
	bounds := func(snap crackdb.DBSnapshot) map[string][]int64 {
		cols := map[string][]crackdb.SnapshotPart{"": snap.Parts}
		if snap.IsTable() {
			cols = map[string][]crackdb.SnapshotPart{}
			for _, c := range snap.Columns {
				cols[c.Name] = c.Parts
			}
		}
		out := map[string][]int64{}
		for name, parts := range cols {
			for _, p := range parts[1:] {
				out[name] = append(out[name], p.Lo)
			}
		}
		return out
	}
	for _, tc := range []struct {
		db *crackdb.DB
		// cols are queried before the snapshot; only the first is queried
		// again after the restore, so a table's second column stays cold.
		cols []string
	}{{col, []string{""}}, {tbl, []string{"a", "b"}}} {
		for _, c := range tc.cols {
			for i := int64(0); i < 40; i++ {
				if _, err := tc.db.Query(ctx, crackdb.Range(i*700, i*700+300).On(c)); err != nil {
					t.Fatal(err)
				}
			}
		}
		snap, err := tc.db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := bounds(snap)
		restored, err := crackdb.OpenSnapshot(snap, crackdb.DD1R, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := restored.Query(ctx, crackdb.Range(100, 200).On(tc.cols[0]))
		if err != nil || res.Count() != 100 {
			t.Fatalf("%s: restored query count = %d, err = %v", tc.db.Name(), res.Count(), err)
		}
		again, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		got := bounds(again)
		for _, name := range tc.cols {
			if w := want[name]; len(w) != 2 || !slices.Equal(got[name], w) {
				t.Fatalf("%s column %q: part bounds %v after restore, want %v (3 parts)",
					tc.db.Name(), name, got[name], w)
			}
		}
	}
}
