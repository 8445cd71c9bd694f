package crackdb_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	crackdb "repro"
	"repro/internal/snapshot"
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

// TestFacadeSnapshotRejectsHybrids: a snapshot saved to a file or a
// store cannot be reopened as the sorted baseline or a partition/merge
// hybrid. Those specs have no engine to restore into, so the file and
// store entry points refuse them just as OpenSnapshot does.
func TestFacadeSnapshotRejectsHybrids(t *testing.T) {
	db, err := crackdb.Open(crackdb.MakeData(1_000, 5), crackdb.Crack)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.crks")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	store := crackdb.NewMemSnapshotStore()
	if err := store.Save("db", snap); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"sort", "aicc", "aics", "aicc1r", "aics1r"} {
		if _, err := crackdb.OpenSnapshotFile(path, spec); !errors.Is(err, crackdb.ErrUnknownAlgorithm) {
			t.Errorf("OpenSnapshotFile(%q): err = %v, want ErrUnknownAlgorithm", spec, err)
		}
		if _, err := crackdb.OpenSnapshotFrom(store, "db", spec); !errors.Is(err, crackdb.ErrUnknownAlgorithm) {
			t.Errorf("OpenSnapshotFrom(%q): err = %v, want ErrUnknownAlgorithm", spec, err)
		}
	}
	// The file itself is intact: it reopens under a served spec.
	if _, err := crackdb.OpenSnapshotFile(path, crackdb.Crack); err != nil {
		t.Fatalf("OpenSnapshotFile(crack): %v", err)
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
		out := map[string][]int64{}
		for _, c := range snap.Columns {
			for _, p := range c.Parts[1:] {
				out[c.Name] = append(out[c.Name], p.Lo)
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

// permutationOracle checks the DB's answers over [0, n) against the
// closed form of a permutation of [0, n): count hi-lo, sum of lo..hi-1.
func permutationOracle(t *testing.T, db *crackdb.DB, n int64) {
	t.Helper()
	ctx := context.Background()
	for lo := int64(-7); lo < n+7; lo += 37 {
		hi := lo + 1 + (lo+7)%53
		agg, err := db.QueryAggregate(ctx, crackdb.Range(lo, hi))
		a, b := max(lo, 0), min(hi, n)
		if err != nil || int64(agg.Count) != max(b-a, 0) || agg.Sum != sumRange(a, b) {
			t.Fatalf("[%d, %d): count %d sum %d err %v, want %d/%d", lo, hi, agg.Count, agg.Sum, err, max(b-a, 0), sumRange(a, b))
		}
	}
}

// rowIDGolden is a two-part v4 stream whose parts carry row ids, written
// before row ids left the snapshot: a permutation of [0, 2000).
var rowIDGolden = filepath.Join("internal", "snapshot", "testdata", "v4-rowids.crks")

// TestRowIDGoldenRestoresInEveryMode: a snapshot whose shards carry row
// ids restores in every mode, re-cuts included — the row ids are dropped
// on decode, so nothing shard-local is left to refuse a merge over.
func TestRowIDGoldenRestoresInEveryMode(t *testing.T) {
	for _, mode := range []crackdb.Concurrency{crackdb.Single, crackdb.Shared, crackdb.Sharded(2), crackdb.Sharded(3)} {
		t.Run(mode.String(), func(t *testing.T) {
			db, err := crackdb.OpenSnapshotFile(rowIDGolden, crackdb.DD1R, crackdb.WithConcurrency(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if db.Rows() != 2000 || db.Stats().Cracks == 0 {
				t.Fatalf("restored %d rows with %d cracks, want 2000 rows, warm", db.Rows(), db.Stats().Cracks)
			}
			permutationOracle(t, db, 2000)
		})
	}
}

// TestLegacyRowIDSnapshotCracksLikePlainColumn: a legacy stream with row
// ids restores to the same column as the stream without them, so the
// same queries do the same physical work — no API reads a restored
// column's row ids, so none may cost anything.
func TestLegacyRowIDSnapshotCracksLikePlainColumn(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("internal", "snapshot", "testdata", "v1-rowids.crks"))
	if err != nil {
		t.Fatal(err)
	}
	// v1 layout: magic, length n, row-id flag, n values, n row ids,
	// cracks, CRC32. The stripped twin drops the row ids on the wire.
	n := int(binary.LittleEndian.Uint64(raw[8:16]))
	if n != 2000 || raw[16] != 1 {
		t.Fatalf("v1-rowids.crks: length %d, row-id flag %d; want 2000 with row ids", n, raw[16])
	}
	body := append(append(slices.Clone(raw[:16]), 0), raw[17:17+8*n]...)
	body = append(body, raw[17+12*n:len(raw)-4]...)
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	withIDs, err := crackdb.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := crackdb.ReadSnapshot(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []crackdb.Concurrency{crackdb.Single, crackdb.Shared, crackdb.Sharded(2)} {
		t.Run(mode.String(), func(t *testing.T) {
			var stats [2]crackdb.Stats
			for i, snap := range []crackdb.DBSnapshot{withIDs, stripped} {
				db, err := crackdb.OpenSnapshot(snap, crackdb.DD1R, crackdb.WithSeed(5), crackdb.WithConcurrency(mode))
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				for q := 0; q < 300; q++ {
					lo := rng.Int63n(2000 - 3)
					res, err := db.Query(context.Background(), crackdb.Range(lo, lo+3))
					if err != nil || res.Count() != 3 {
						t.Fatalf("[%d, %d): count %d err %v", lo, lo+3, res.Count(), err)
					}
				}
				stats[i] = db.Stats()
				db.Close()
			}
			a, b := stats[0], stats[1]
			if a.Touched != b.Touched || a.Swaps != b.Swaps || a.Cracks != b.Cracks {
				t.Fatalf("row-id stream touched/swaps/cracks %d/%d/%d, stripped %d/%d/%d",
					a.Touched, a.Swaps, a.Cracks, b.Touched, b.Swaps, b.Cracks)
			}
		})
	}
}

// TestColumnDBSnapshotIsUnnamedColumn: a column DB's manifest is one
// column named "", and a manifest built that way by hand writes,
// validates and restores like a captured one.
func TestColumnDBSnapshotIsUnnamedColumn(t *testing.T) {
	const n = 5_000
	for _, tc := range []struct {
		mode  crackdb.Concurrency
		parts int
	}{{crackdb.Single, 1}, {crackdb.Shared, 1}, {crackdb.Sharded(2), 2}} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			opts := []crackdb.Option{crackdb.WithSeed(4), crackdb.WithConcurrency(tc.mode)}
			db, err := crackdb.Open(crackdb.MakeData(n, 3), crackdb.DD1R, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			permutationOracle(t, db, n)
			snap, err := db.Snapshot()
			if err != nil || len(snap.Columns) != 1 || snap.Columns[0].Name != "" || len(snap.Columns[0].Parts) != tc.parts {
				t.Fatalf("Snapshot() = %d columns (err %v), want one unnamed column of %d parts", len(snap.Columns), err, tc.parts)
			}
			hand := crackdb.DBSnapshot{Columns: []snapshot.TableColumn{{Name: "", Parts: snap.Columns[0].Parts}}}
			if err := hand.Validate(); err != nil {
				t.Fatalf("hand-built manifest invalid: %v", err)
			}
			var buf bytes.Buffer
			if err := crackdb.WriteSnapshot(&buf, hand); err != nil {
				t.Fatalf("hand-built manifest not written: %v", err)
			}
			decoded, err := crackdb.ReadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []crackdb.DBSnapshot{hand, decoded} {
				restored, err := crackdb.OpenSnapshot(m, crackdb.DD1R, opts...)
				if err != nil {
					t.Fatalf("hand-built manifest not restored: %v", err)
				}
				resnap, err := restored.Snapshot()
				if err != nil || restored.Columns() != nil || resnap.Pieces() != snap.Pieces() {
					t.Fatalf("restored columns %q, %d pieces (err %v); want a column DB with %d",
						restored.Columns(), resnap.Pieces(), err, snap.Pieces())
				}
				permutationOracle(t, restored, n)
				restored.Close()
			}
		})
	}
}

// TestReopenKeepsOpenOptions: DB.Reopen restores a snapshot with the
// algorithm, mode and tuning the DB was opened with — the rebuild the
// serving layer does on a live restore or retain.
func TestReopenKeepsOpenOptions(t *testing.T) {
	ctx := context.Background()
	db, err := crackdb.Open(crackdb.MakeData(20_000, 3), crackdb.DD1R, crackdb.WithSeed(4),
		crackdb.WithConcurrency(crackdb.Sharded(3)), crackdb.WithGroupCommit(16, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for lo := int64(0); lo < 20_000; lo += 1_000 {
		if _, err := db.Query(ctx, crackdb.Range(lo, lo+300)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert(30_000); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re, err := db.Reopen(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Mode() != db.Mode() || re.Name() != db.Name() || re.Rows() != db.Rows() {
		t.Fatalf("reopened %s %q %d rows, want %s %q %d rows",
			re.Mode(), re.Name(), re.Rows(), db.Mode(), db.Name(), db.Rows())
	}
	if _, ok := re.GroupCommitStats(); !ok {
		t.Fatal("reopened DB lost group commit")
	}
	if got, want := re.Stats().Pieces, snap.Pieces(); got < want {
		t.Fatalf("reopened DB has %d pieces, the snapshot %d", got, want)
	}
	agg, err := re.QueryAggregate(ctx, crackdb.Range(100, 30_001))
	if err != nil || agg.Count != 19_900+1 || agg.Sum != (100+19_999)*19_900/2+30_000 {
		t.Fatalf("reopened aggregate %+v (err %v)", agg, err)
	}
}
