package crackdb_test

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	crackdb "repro"
)

// equivHandles opens the same dataset behind every execution mode the DB
// offers, plus the Scan baseline as a cracking-free reference.
func equivHandles(t *testing.T, n int64) map[string]*crackdb.DB {
	t.Helper()
	handles := make(map[string]*crackdb.DB)
	open := func(name, algo string, opts ...crackdb.Option) {
		db, err := crackdb.Open(crackdb.MakeData(n, 51), algo,
			append(opts, crackdb.WithSeed(52))...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		handles[name] = db
	}
	open("single", crackdb.DD1R)
	open("shared", crackdb.MDD1R, crackdb.WithConcurrency(crackdb.Shared))
	open("sharded", crackdb.Crack, crackdb.WithConcurrency(crackdb.Sharded(5)))
	open("scan", crackdb.Scan)
	openTable := func(name string, mode crackdb.Concurrency) {
		db, err := crackdb.OpenTable(map[string][]int64{"v": crackdb.MakeData(n, 51)},
			crackdb.PMDD1R, crackdb.WithSeed(52), crackdb.WithConcurrency(mode))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		handles[name] = db
	}
	openTable("table", crackdb.Shared)
	openTable("table-single", crackdb.Single)
	openTable("table-sharded", crackdb.Sharded(3))
	return handles
}

// randomPredicate builds a random predicate over the domain [0, n) and
// returns, alongside it, the sorted distinct values of [0, n) it selects —
// the closed-form oracle MakeData's permutation affords.
func randomPredicate(rng *rand.Rand, n int64) (crackdb.Predicate, []int64) {
	numRanges := 1
	switch rng.Intn(3) {
	case 1:
		numRanges = 2
	case 2:
		numRanges = 3
	}
	p := crackdb.Predicate{}
	var bounds [][2]int64
	for i := 0; i < numRanges; i++ {
		lo := rng.Int63n(n + 100) // may poke past the domain edge
		width := 1 + rng.Int63n(200)
		q := crackdb.Range(lo, lo+width)
		if rng.Intn(4) == 0 {
			q = crackdb.Between(lo, lo+width) // inclusive flavor
			width++
		}
		if i == 0 {
			p = q
		} else {
			p = p.Or(q)
		}
		bounds = append(bounds, [2]int64{lo, lo + width})
	}
	hit := make(map[int64]bool)
	for _, b := range bounds {
		for v := b[0]; v < b[1] && v < n; v++ {
			if v >= 0 {
				hit[v] = true
			}
		}
	}
	want := make([]int64, 0, len(hit))
	for v := range hit {
		want = append(want, v)
	}
	slices.Sort(want)
	return p, want
}

// TestCrossModeEquivalence is the cross-mode property test: the same
// predicate workload must produce identical answers through Single,
// Shared, Sharded and Table execution and the Scan baseline — cracking,
// sharding and locking strategies may reorganize differently, but never
// answer differently.
func TestCrossModeEquivalence(t *testing.T) {
	const n = 30_000
	const queries = 120
	ctx := context.Background()
	handles := equivHandles(t, n)
	rng := rand.New(rand.NewSource(53))
	for q := 0; q < queries; q++ {
		p, want := randomPredicate(rng, n)
		for name, db := range handles {
			res, err := db.Query(ctx, p)
			if err != nil {
				t.Fatalf("q%d %s on %s: %v", q, p, name, err)
			}
			got := res.Owned()
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("q%d %s on %s: %d values, want %d (first diff around %v)",
					q, p, name, len(got), len(want), firstDiff(got, want))
			}
			agg, err := db.QueryAggregate(ctx, p)
			if err != nil || agg.Count != len(want) {
				t.Fatalf("q%d %s on %s: aggregate count=%d err=%v", q, p, name, agg.Count, err)
			}
		}
	}
}

// TestCrossModeEquivalenceConcurrent replays the same property under
// concurrent traffic on the goroutine-safe modes; with -race (CI runs the
// facade package under the race detector) it doubles as the data-race
// variant of the equivalence suite.
func TestCrossModeEquivalenceConcurrent(t *testing.T) {
	const n = 20_000
	ctx := context.Background()
	handles := equivHandles(t, n)
	delete(handles, "single") // not goroutine-safe by contract
	delete(handles, "table-single")
	delete(handles, "scan")
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(60 + int64(g)))
			for q := 0; q < 40; q++ {
				p, want := randomPredicate(rng, n)
				for name, db := range handles {
					res, err := db.Query(ctx, p)
					if err != nil {
						errs <- name + ": " + err.Error()
						return
					}
					got := res.Owned()
					slices.Sort(got)
					if !slices.Equal(got, want) {
						errs <- name + ": wrong answer for " + p.String()
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// nonzeroPieces reads the DB's piece-size profile with zero-size edge
// pieces dropped: snapshotting clamps the informationless domain-edge
// cracks (positions 0/len), so profiles compare modulo empty pieces.
func nonzeroPieces(t *testing.T, db *crackdb.DB) []int {
	t.Helper()
	sizes, err := db.PieceSizes()
	if err != nil {
		t.Fatal(err)
	}
	out := sizes[:0:0]
	for _, s := range sizes {
		if s > 0 {
			out = append(out, s)
		}
	}
	return out
}

// TestRestoreEquivalence is the restore-equivalence property test: for
// each algorithm and each source mode, snapshot mid-workload, restore
// into every target layout (same mode, cross mode, and a re-sharded
// count), and require
//
//   - the restored piece-size profile to equal the source's exactly for
//     layout-preserving restores (Single/Shared/Sharded(k) all flatten to
//     the same storage order), and to never lose refinement for
//     re-sharded ones;
//   - the remainder of the workload to produce answers identical to the
//     uninterrupted DB's on every restored handle;
//   - for the deterministic algorithm (crack) restored into the same
//     mode, the final piece profile after the full workload to be
//     byte-identical to the uninterrupted DB's — the interruption is
//     physically invisible.
//
// The "shared-holes" source merges a few hundred inserts and deletes that
// cancel out before the capture, so its column holds holes at capture
// time and the oracle still holds.
func TestRestoreEquivalence(t *testing.T) {
	const n = 20_000
	const warmQ, contQ = 60, 60
	ctx := context.Background()

	sources := []struct {
		name  string
		mode  crackdb.Concurrency
		holes bool
	}{
		{"single", crackdb.Single, false},
		{"shared", crackdb.Shared, false},
		{"sharded-5", crackdb.Sharded(5), false},
		{"shared-holes", crackdb.Shared, true},
	}
	targets := []struct {
		name string
		mode crackdb.Concurrency
	}{
		{"single", crackdb.Single},
		{"shared", crackdb.Shared},
		{"sharded-5", crackdb.Sharded(5)},
		{"sharded-3", crackdb.Sharded(3)}, // re-cut along new bounds
		{"sharded-8", crackdb.Sharded(8)},
	}
	for _, algo := range []string{crackdb.Crack, crackdb.DD1R, crackdb.MDD1R} {
		for _, src := range sources {
			t.Run(algo+"/"+src.name, func(t *testing.T) {
				open := func(mode crackdb.Concurrency) *crackdb.DB {
					db, err := crackdb.Open(crackdb.MakeData(n, 81), algo,
						crackdb.WithSeed(82), crackdb.WithConcurrency(mode))
					if err != nil {
						t.Fatal(err)
					}
					return db
				}
				db, twin := open(src.mode), open(src.mode)
				rng := rand.New(rand.NewSource(83))
				warm := make([]crackdb.Predicate, warmQ)
				for i := range warm {
					warm[i], _ = randomPredicate(rng, n)
				}
				cont := make([]crackdb.Predicate, contQ)
				wants := make([][]int64, contQ)
				for i := range cont {
					cont[i], wants[i] = randomPredicate(rng, n)
				}
				run := func(h *crackdb.DB, ps []crackdb.Predicate) {
					for _, p := range ps {
						if _, err := h.Query(ctx, p); err != nil {
							t.Fatal(err)
						}
					}
				}
				run(db, warm)
				run(twin, warm)
				if src.holes {
					for _, h := range []*crackdb.DB{db, twin} {
						churn(t, h, n, 150)
					}
				}

				snap, err := db.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				profAtSnap := nonzeroPieces(t, db)

				for _, tgt := range targets {
					restored, err := crackdb.OpenSnapshot(snap, algo,
						crackdb.WithSeed(82), crackdb.WithConcurrency(tgt.mode))
					if err != nil {
						t.Fatalf("->%s: %v", tgt.name, err)
					}
					prof := nonzeroPieces(t, restored)
					sameLayout := tgt.name == src.name || tgt.mode == crackdb.Single || tgt.mode == crackdb.Shared
					if sameLayout {
						// Flattening shards preserves the storage-order
						// profile exactly (boundaries were already cuts).
						if !slices.Equal(prof, profAtSnap) {
							t.Fatalf("->%s: piece profile %v, want %v", tgt.name, prof, profAtSnap)
						}
					} else if len(prof) < len(profAtSnap) {
						t.Fatalf("->%s: %d pieces after re-shard, source had %d; refinement lost",
							tgt.name, len(prof), len(profAtSnap))
					}
					// The continuation answers byte-identically to the
					// uninterrupted twin (both checked against the oracle).
					for i, p := range cont {
						res, err := restored.Query(ctx, p)
						if err != nil {
							t.Fatalf("->%s: cont %d: %v", tgt.name, i, err)
						}
						got := res.Owned()
						slices.Sort(got)
						if !slices.Equal(got, wants[i]) {
							t.Fatalf("->%s: cont %d (%s): %d values, want %d",
								tgt.name, i, p, len(got), len(wants[i]))
						}
					}
					// Deterministic continuation: crack restored into its
					// own layout must end physically identical to the twin.
					if algo == crackdb.Crack && tgt.mode == src.mode {
						run(twin, cont)
						twinProf := nonzeroPieces(t, twin)
						finalProf := nonzeroPieces(t, restored)
						if !slices.Equal(finalProf, twinProf) {
							t.Fatalf("->%s: final profile diverged from uninterrupted twin:\n%v\nvs\n%v",
								tgt.name, finalProf, twinProf)
						}
					}
				}
			})
		}
	}
}

// churn merges k inserts of random values of [0, n), each deleted again
// right after it merged, into db: the multiset ends where it started, and
// the column ends with holes.
func churn(t *testing.T, db *crackdb.DB, n int64, k int) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(84))
	for i := 0; i < k; i++ {
		v := rng.Int63n(n)
		for _, write := range []func(int64) error{db.Insert, db.Delete} {
			if err := write(v); err != nil {
				t.Fatal(err)
			}
			if _, err := db.QueryAggregate(ctx, crackdb.Range(v, v+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.PendingUpdates() != 0 {
		t.Fatalf("%d updates still pending after churn", db.PendingUpdates())
	}
}

// TestRestoreEquivalenceTable extends the restore-equivalence property
// to table databases: snapshot a table mid-workload — pending writes and
// all — and restore the manifest into every table layout (Single,
// Shared, Sharded(k), and a re-sharded count). Every restored handle
// must answer the remainder of the workload identically to an
// uninterrupted twin, per column, and layout-preserving restores must
// keep each column's refinement.
func TestRestoreEquivalenceTable(t *testing.T) {
	const n = 20_000
	const warmQ, contQ = 40, 40
	ctx := context.Background()
	cols := []string{"a", "b"}

	sources := []struct {
		name string
		mode crackdb.Concurrency
	}{
		{"single", crackdb.Single},
		{"shared", crackdb.Shared},
		{"sharded-4", crackdb.Sharded(4)},
	}
	targets := []struct {
		name string
		mode crackdb.Concurrency
	}{
		{"single", crackdb.Single},
		{"shared", crackdb.Shared},
		{"sharded-4", crackdb.Sharded(4)},
		{"sharded-2", crackdb.Sharded(2)}, // re-cut along new bounds
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			open := func(mode crackdb.Concurrency) *crackdb.DB {
				db, err := crackdb.OpenTable(map[string][]int64{
					"a": crackdb.MakeData(n, 81),
					"b": crackdb.MakeData(n, 91),
				}, crackdb.DD1R, crackdb.WithSeed(82), crackdb.WithConcurrency(mode))
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			db, twin := open(src.mode), open(src.mode)

			rng := rand.New(rand.NewSource(83))
			type colPred struct {
				col string
				p   crackdb.Predicate
			}
			mkQueries := func(k int) []colPred {
				qs := make([]colPred, k)
				for i := range qs {
					p, _ := randomPredicate(rng, n)
					qs[i] = colPred{col: cols[i%len(cols)], p: p.On(cols[i%len(cols)])}
				}
				return qs
			}
			warm, cont := mkQueries(warmQ), mkQueries(contQ)
			run := func(h *crackdb.DB, qs []colPred) [][]int64 {
				out := make([][]int64, len(qs))
				for i, q := range qs {
					res, err := h.Query(ctx, q.p)
					if err != nil {
						t.Fatal(err)
					}
					out[i] = res.Owned()
					slices.Sort(out[i])
				}
				return out
			}
			run(db, warm)
			run(twin, warm)

			// Writes on both handles, left pending so the capture carries
			// them: inserts beyond the warm predicates' reach plus in-domain
			// deletes, on both columns.
			for _, h := range []*crackdb.DB{db, twin} {
				for i := int64(0); i < 10; i++ {
					if err := h.InsertOn("a", n+50_000+i); err != nil {
						t.Fatal(err)
					}
					if err := h.DeleteOn("b", i*7); err != nil {
						t.Fatal(err)
					}
				}
			}
			if db.PendingUpdates() == 0 {
				t.Fatal("writes did not stay pending; the capture would not exercise pending state")
			}

			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if len(snap.Columns) != len(db.Columns()) {
				t.Fatalf("table DB snapshot has %d columns, want %d", len(snap.Columns), len(db.Columns()))
			}
			if snap.Pending() == 0 {
				t.Fatal("manifest lost the pending writes")
			}
			profAtSnap := nonzeroPieces(t, db)

			// The twin runs the continuation once; every restored handle
			// must match it answer for answer.
			wants := run(twin, cont)

			for _, tgt := range targets {
				restored, err := crackdb.OpenSnapshot(snap, crackdb.DD1R,
					crackdb.WithSeed(82), crackdb.WithConcurrency(tgt.mode))
				if err != nil {
					t.Fatalf("->%s: %v", tgt.name, err)
				}
				if got := restored.Rows(); got != db.Rows() {
					t.Fatalf("->%s: %d rows, want %d", tgt.name, got, db.Rows())
				}
				prof := nonzeroPieces(t, restored)
				if len(prof) < len(profAtSnap) {
					t.Fatalf("->%s: %d pieces restored, source had %d; refinement lost",
						tgt.name, len(prof), len(profAtSnap))
				}
				got := run(restored, cont)
				for i := range cont {
					if !slices.Equal(got[i], wants[i]) {
						t.Fatalf("->%s: cont %d (%s on %s): %d values, want %d (first diff %v)",
							tgt.name, i, cont[i].p, cont[i].col, len(got[i]), len(wants[i]),
							firstDiff(got[i], wants[i]))
					}
				}
				// The restored handle captures and restores again — the
				// manifest round-trips through a second generation.
				if resnap, err := restored.Snapshot(); err != nil {
					t.Fatalf("->%s: re-snapshot: %v", tgt.name, err)
				} else if len(resnap.Columns) != len(snap.Columns) || resnap.Rows() != snap.Rows() {
					t.Fatalf("->%s: re-snapshot rows=%d columns=%d, want %d/%d",
						tgt.name, resnap.Rows(), len(resnap.Columns), snap.Rows(), len(snap.Columns))
				}
			}
		})
	}
}

func firstDiff(a, b []int64) [2]int64 {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return [2]int64{a[i], b[i]}
		}
	}
	return [2]int64{-1, -1}
}
