package crackdb_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	crackdb "repro"
)

// goldenShapes are the DB shapes whose WriteSnapshot streams are pinned
// byte for byte under testdata/: golden is the pinned file's stem, cols
// the columns the fixed workload drives ("" for a column DB). Single and
// Shared run one physical algorithm, so a Single shape must write its
// Shared twin's bytes.
var goldenShapes = []struct {
	name, golden string
	open         func() (*crackdb.DB, error)
	cols         []string
}{
	{"column-single", "column-shared", goldenColumn(crackdb.Single), []string{""}},
	{"column-shared", "column-shared", goldenColumn(crackdb.Shared), []string{""}},
	{"column-sharded-2", "column-sharded-2", goldenColumn(crackdb.Sharded(2)), []string{""}},
	{"table-single", "table-shared", goldenTable(crackdb.Single), []string{"a", "b"}},
	{"table-shared", "table-shared", goldenTable(crackdb.Shared), []string{"a", "b"}},
}

const goldenRows = 2_000

func goldenColumn(mode crackdb.Concurrency) func() (*crackdb.DB, error) {
	return func() (*crackdb.DB, error) {
		return crackdb.Open(crackdb.MakeData(goldenRows, 61), crackdb.DD1R,
			crackdb.WithSeed(62), crackdb.WithConcurrency(mode))
	}
}

func goldenTable(mode crackdb.Concurrency) func() (*crackdb.DB, error) {
	return func() (*crackdb.DB, error) {
		return crackdb.OpenTable(map[string][]int64{
			"a": crackdb.MakeData(goldenRows, 63),
			"b": crackdb.MakeData(goldenRows, 64),
		}, crackdb.DD1R, crackdb.WithSeed(65), crackdb.WithConcurrency(mode))
	}
}

// goldenWorkload runs the fixed query sequence on every column, then
// leaves inserts and deletes queued on the first one (one more insert is
// merged by a covering query).
func goldenWorkload(t *testing.T, db *crackdb.DB, cols []string) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(66))
	for _, col := range cols {
		for i := 0; i < 40; i++ {
			lo := rng.Int63n(goldenRows)
			if _, err := db.Query(ctx, crackdb.Range(lo, lo+1+rng.Int63n(200)).On(col)); err != nil {
				t.Fatal(err)
			}
		}
	}
	first := cols[0]
	if _, err := db.ApplyBatchOn(ctx, first, []int64{2_500, 2_001, 2_003, 2_003}, []int64{17, 1_234}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(ctx, crackdb.Range(2_400, 2_600).On(first)); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotBytesGolden pins the snapshot bytes of column DBs in every
// mode and of two-column Single and Shared tables after a fixed workload:
// how a DB holds its columns, and whether it locks them, must not change
// what it writes.
func TestSnapshotBytesGolden(t *testing.T) {
	for _, g := range goldenShapes {
		t.Run(g.name, func(t *testing.T) {
			db, err := g.open()
			if err != nil {
				t.Fatal(err)
			}
			goldenWorkload(t, db, g.cols)
			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := crackdb.WriteSnapshot(&got, snap); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden-"+g.golden+".crks"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("snapshot stream differs from its golden: %d bytes, want %d", got.Len(), len(want))
			}
		})
	}
}
