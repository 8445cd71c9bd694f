package crackdb_test

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	crackdb "repro"
)

// modeOp is one step of a seeded single-client sequence: it drives db and
// returns how many value ranges the executor answered for it and a
// checksum of the answer.
type modeOp func(t *testing.T, db *crackdb.DB) (ranges int, sum int64)

// modeOps draws a seeded mix over the domain [0, n) on column col:
// fresh and repeated (converged) ranges through Query, QueryAppend and
// QueryAggregate, Or predicates and QueryBatch calls that include an empty
// range, and, when writes is set, Insert, Delete and ApplyBatch.
func modeOps(seed int64, n int64, count int, col string, writes bool) []modeOp {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	var seen [][2]int64
	next := func() crackdb.Predicate {
		if len(seen) > 0 && rng.Intn(3) == 0 {
			r := seen[rng.Intn(len(seen))]
			return crackdb.Range(r[0], r[1]).On(col)
		}
		lo := rng.Int63n(n)
		r := [2]int64{lo, lo + 1 + rng.Int63n(300)}
		seen = append(seen, r)
		return crackdb.Range(r[0], r[1]).On(col)
	}
	// disjoint returns two non-adjacent ranges around an empty one.
	disjoint := func() (p, empty, q crackdb.Predicate) {
		lo := rng.Int63n(n / 2)
		hi := lo + 1 + rng.Int63n(200)
		lo2 := hi + 1 + rng.Int63n(500)
		return crackdb.Range(lo, hi).On(col), crackdb.Range(hi, hi).On(col),
			crackdb.Range(lo2, lo2+1+rng.Int63n(200)).On(col)
	}
	sum := func(vs []int64) (s int64) {
		for _, v := range vs {
			s += v
		}
		return s
	}
	kinds := 6
	if writes {
		kinds = 9
	}
	ops := make([]modeOp, count)
	for i := range ops {
		switch rng.Intn(kinds) {
		case 0, 1:
			p := next()
			ops[i] = func(t *testing.T, db *crackdb.DB) (int, int64) {
				res, err := db.Query(ctx, p)
				if err != nil {
					t.Fatal(err)
				}
				return 1, res.Sum()
			}
		case 2:
			p := next()
			ops[i] = func(t *testing.T, db *crackdb.DB) (int, int64) {
				out, err := db.QueryAppend(ctx, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				return 1, sum(out)
			}
		case 3:
			p := next()
			ops[i] = func(t *testing.T, db *crackdb.DB) (int, int64) {
				agg, err := db.QueryAggregate(ctx, p)
				if err != nil {
					t.Fatal(err)
				}
				return 1, agg.Sum
			}
		case 4:
			p, empty, q := disjoint()
			or := p.Or(empty).Or(q)
			aggregate := rng.Intn(2) == 0
			ops[i] = func(t *testing.T, db *crackdb.DB) (int, int64) {
				if aggregate {
					agg, err := db.QueryAggregate(ctx, or)
					if err != nil {
						t.Fatal(err)
					}
					return 2, agg.Sum
				}
				res, err := db.Query(ctx, or)
				if err != nil {
					t.Fatal(err)
				}
				return 2, res.Sum()
			}
		case 5:
			p, empty, q := disjoint()
			r := next()
			ops[i] = func(t *testing.T, db *crackdb.DB) (int, int64) {
				out, err := db.QueryBatch(ctx, []crackdb.Predicate{r, p.Or(q), empty})
				if err != nil {
					t.Fatal(err)
				}
				var s int64
				for _, res := range out {
					s += res.Sum()
				}
				return 3, s
			}
		case 6:
			v := rng.Int63n(n)
			ops[i] = func(t *testing.T, db *crackdb.DB) (int, int64) {
				if err := db.InsertOn(col, v); err != nil {
					t.Fatal(err)
				}
				return 0, 0
			}
		case 7:
			v := rng.Int63n(n)
			ops[i] = func(t *testing.T, db *crackdb.DB) (int, int64) {
				if err := db.DeleteOn(col, v); err != nil {
					t.Fatal(err)
				}
				return 0, 0
			}
		case 8:
			ins := []int64{rng.Int63n(n), rng.Int63n(n), rng.Int63n(n)}
			del := []int64{rng.Int63n(n), ins[0]}
			ops[i] = func(t *testing.T, db *crackdb.DB) (int, int64) {
				if _, err := db.ApplyBatchOn(ctx, col, ins, del); err != nil {
					t.Fatal(err)
				}
				return 0, 0
			}
		}
	}
	return ops
}

// TestOneAlgorithmEveryMode runs one seeded single-client sequence through
// Single and Shared for every served algorithm: both modes probe a query
// for convergence first and crack only when it refuses, so they must make
// the same cracks, count the same paths and write the same snapshot.
func TestOneAlgorithmEveryMode(t *testing.T) {
	const n = 20_000
	ops := modeOps(71, n, 400, "", true)
	for _, spec := range crackdb.Algorithms() {
		t.Run(spec, func(t *testing.T) {
			type run struct {
				sums          []int64
				stats         crackdb.Stats
				reads, writes int64
				pieces        []int
				snap          []byte
			}
			var runs [2]run
			for m, mode := range []crackdb.Concurrency{crackdb.Single, crackdb.Shared} {
				db, err := crackdb.Open(crackdb.MakeData(n, 72), spec, crackdb.WithSeed(73),
					crackdb.WithConcurrency(mode))
				if err != nil {
					t.Fatal(err)
				}
				r := &runs[m]
				for _, op := range ops {
					_, s := op(t, db)
					r.sums = append(r.sums, s)
				}
				r.stats = db.Stats()
				r.reads, r.writes = db.PathStats()
				if r.pieces, err = db.PieceSizes(); err != nil {
					t.Fatal(err)
				}
				snap, err := db.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := crackdb.WriteSnapshot(&buf, snap); err != nil {
					t.Fatal(err)
				}
				r.snap = buf.Bytes()
			}
			single, shared := runs[0], runs[1]
			if !slices.Equal(single.sums, shared.sums) {
				t.Fatal("Single and Shared answer differently")
			}
			if single.stats != shared.stats {
				t.Fatalf("Stats: Single %+v, Shared %+v", single.stats, shared.stats)
			}
			if single.reads != shared.reads || single.writes != shared.writes {
				t.Fatalf("PathStats: Single (%d, %d), Shared (%d, %d)",
					single.reads, single.writes, shared.reads, shared.writes)
			}
			if !slices.Equal(single.pieces, shared.pieces) {
				t.Fatalf("PieceSizes: Single %d pieces, Shared %d", len(single.pieces), len(shared.pieces))
			}
			if !bytes.Equal(single.snap, shared.snap) {
				t.Fatalf("snapshot: Single %d bytes, Shared %d", len(single.snap), len(shared.snap))
			}
		})
	}
}

// TestEveryAnswerCounted checks that Stats().Queries and the two path
// counters each count every value range answered exactly once, in Single
// and Shared mode, on a column DB and on a two-column table: converged
// and reorganizing ranges, aggregates, and Or predicates and batches whose
// empty range answers nothing.
func TestEveryAnswerCounted(t *testing.T) {
	const n = 20_000
	shapes := []struct {
		name string
		open func(crackdb.Concurrency) (*crackdb.DB, error)
		cols []string
	}{
		{"column", func(mode crackdb.Concurrency) (*crackdb.DB, error) {
			return crackdb.Open(crackdb.MakeData(n, 74), crackdb.DD1R, crackdb.WithSeed(75),
				crackdb.WithConcurrency(mode))
		}, []string{""}},
		{"table", func(mode crackdb.Concurrency) (*crackdb.DB, error) {
			return crackdb.OpenTable(map[string][]int64{
				"a": crackdb.MakeData(n, 76), "b": crackdb.MakeData(n, 77),
			}, crackdb.DD1R, crackdb.WithSeed(78), crackdb.WithConcurrency(mode))
		}, []string{"a", "b"}},
	}
	for _, sh := range shapes {
		for _, mode := range []crackdb.Concurrency{crackdb.Single, crackdb.Shared} {
			t.Run(sh.name+"/"+mode.String(), func(t *testing.T) {
				db, err := sh.open(mode)
				if err != nil {
					t.Fatal(err)
				}
				answered := 0
				for i, col := range sh.cols {
					for _, op := range modeOps(79+int64(i), n, 300, col, false) {
						k, _ := op(t, db)
						answered += k
					}
				}
				reads, writes := db.PathStats()
				if q := db.Stats().Queries; q != int64(answered) || reads+writes != int64(answered) {
					t.Fatalf("%d ranges answered: Stats().Queries = %d, PathStats = (%d reads, %d writes)",
						answered, q, reads, writes)
				}
				if reads == 0 || writes == 0 {
					t.Fatalf("PathStats = (%d reads, %d writes); the mix must take both paths", reads, writes)
				}
			})
		}
	}
}
