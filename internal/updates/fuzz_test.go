package updates

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// FuzzPendingInterleave drives an updatable index with arbitrary
// interleavings of single and bulk inserts, deletes and range queries,
// checking every answer against a multiset reference model. The
// properties under attack are the pending-queue bookkeeping — in
// particular the annihilation rule (a delete whose target exists only
// as a pending insert must cancel it, not resurrect it at merge time)
// and its bulk-path twin in DeleteMany — and the holes merges leave in
// the column: every query path, the exclusive one and the read-only one,
// reads across them, and none may ever return the hole canary.
//
// Program encoding: byte 0 picks the engine (crack, dd1r, mdd1r,
// pmdd1r-10); after it each 3-byte chunk is one operation. Its first
// byte picks the op (insert, delete, bulk insert, bulk delete, query) and
// the query width; bytes 1-2 pick the value, deliberately overflowing the
// initial domain so out-of-column inserts and misses are exercised.
func FuzzPendingInterleave(f *testing.F) {
	// The annihilation regression as a seed: insert-then-delete of a
	// value the column never held, then a covering query.
	f.Add([]byte{0, 0, 77, 2, 1, 77, 2, 4, 70, 2})
	// Bulk flavors of the same, plus duplicate-heavy traffic.
	f.Add([]byte{0, 2, 10, 0, 3, 10, 0, 4, 0, 0, 0, 10, 0, 0, 10, 0, 1, 10, 0, 4, 5, 0})
	f.Add([]byte{0, 4, 0, 1, 1, 200, 0, 0, 200, 0, 4, 190, 0, 3, 200, 0, 2, 100, 1})
	// Deletes and inserts merged by wide queries on every engine, so
	// holes sit between the bounds of later queries.
	for engine := byte(1); engine < 4; engine++ {
		f.Add([]byte{engine, 4, 0, 1, 1, 44, 0, 0, 100, 0, 0xf4, 0, 0, 1, 45, 0, 0, 46, 0, 0xf4, 10, 0, 0x34, 30, 0})
	}

	specs := []string{"crack", "dd1r", "mdd1r", "pmdd1r-10"}
	f.Fuzz(func(t *testing.T, prog []byte) {
		const n = 512
		const domain = 1200 // values beyond the initial permutation's [0, 512)
		if len(prog) == 0 {
			return
		}
		spec := specs[int(prog[0])%len(specs)]
		prog = prog[1:]
		inner, err := core.Build(xrand.New(11).Perm(n), spec, core.Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		u, ok := Wrap(inner)
		if !ok {
			t.Fatalf("Wrap rejected %s", spec)
		}
		model := make([]int, domain) // multiset: count per value
		for v := 0; v < n; v++ {
			model[v] = 1
		}
		modelInsert := func(v int64) { model[v]++ }
		modelDelete := func(v int64) {
			// A delete of an absent value queues, merges, finds nothing and
			// is dropped — a no-op in multiset terms.
			if model[v] > 0 {
				model[v]--
			}
		}
		want := func(a, b int64) (count int, sum int64) {
			for v := a; v < b; v++ {
				count += model[v]
				sum += v * int64(model[v])
			}
			return count, sum
		}
		check := func(path string, a, b int64, vals []int64) {
			var sum int64
			for _, v := range vals {
				if v == holeCanary {
					t.Fatalf("%s %s [%d, %d) returned a hole", spec, path, a, b)
				}
				sum += v
			}
			if wantC, wantS := want(a, b); len(vals) != wantC || sum != wantS {
				t.Fatalf("%s %s [%d, %d): got (%d, %d), model says (%d, %d)",
					spec, path, a, b, len(vals), sum, wantC, wantS)
			}
		}
		query := func(a, b int64) {
			check("query", a, b, u.Query(a, b).Materialize(nil))
			// The bounds may be converged now: the read-only paths must
			// agree, holes or not.
			if vals, ok := u.TryAnswerReadOnly(a, b, nil); ok {
				check("read-only query", a, b, vals)
			}
			if c, s, ok := u.TryAnswerReadOnlyAggregate(a, b); ok {
				if wantC, wantS := want(a, b); c != wantC || s != wantS {
					t.Fatalf("%s read-only aggregate [%d, %d): got (%d, %d), model says (%d, %d)",
						spec, a, b, c, s, wantC, wantS)
				}
			}
		}

		for i := 0; i+2 < len(prog) && i < 3*200; i += 3 {
			op := prog[i]
			v := (int64(prog[i+1]) | int64(prog[i+2])<<8) % domain
			switch op % 5 {
			case 0:
				u.Insert(v)
				modelInsert(v)
			case 1:
				u.Delete(v)
				modelDelete(v)
			case 2:
				vs := []int64{v, (v + 1) % domain, v} // duplicate on purpose
				u.InsertMany(vs)
				for _, x := range vs {
					modelInsert(x)
				}
			case 3:
				vs := []int64{v, v, (v + 3) % domain}
				u.DeleteMany(vs)
				for _, x := range vs {
					modelDelete(x)
				}
			case 4:
				width := int64(op>>4) + 1
				a := v % n
				query(a, min(a+width*13, domain))
			}
		}
		// Final sweep: the whole domain merges everything still pending;
		// counts, sums and crack invariants must all hold.
		query(0, domain)
		if u.Pending() != 0 {
			t.Fatalf("%d updates still pending after a full-domain query", u.Pending())
		}
		e := u.Engine()
		checkPieces(t, e.Column(), e.CrackerIndex())
		// The snapshot is dense: exactly the model's values, no holes, and
		// cracks that validate against them.
		st := e.Snapshot()
		if err := st.Validate(); err != nil {
			t.Fatalf("%s snapshot: %v", spec, err)
		}
		got := make([]int, domain)
		for _, v := range st.Values {
			if v < 0 || v >= domain {
				t.Fatalf("%s snapshot holds %d", spec, v)
			}
			got[v]++
		}
		if !slices.Equal(got, model) {
			t.Fatalf("%s snapshot holds a different multiset than the model", spec)
		}
	})
}
