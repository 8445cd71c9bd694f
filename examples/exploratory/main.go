// Exploratory analysis: the paper's motivating scenario.
//
// A scientist explores a dataset region by region — the "sequential"
// workload of Fig. 2/7 — the pathological case for original database
// cracking: every query re-scans the huge unindexed remainder. Stochastic
// cracking answers the same exploration orders of magnitude cheaper while
// keeping cracking's instant-availability property (no offline build).
//
// This example reproduces the paper's headline comparison (Fig. 9) at a
// laptop-friendly scale, printing cumulative cost after each decade of
// queries for original cracking, stochastic cracking and a plain scan —
// all through the same crackdb.DB front door; only the algorithm string
// changes. The full-sort curve is a figure-harness baseline:
// `go run ./cmd/crackbench -experiment fig2` draws it.
//
//	go run ./examples/exploratory
package main

import (
	"context"
	"fmt"
	"time"

	crackdb "repro"
)

const (
	n = 2_000_000
	q = 1_000
)

func runExploration(algo string) (time.Duration, int64) {
	ctx := context.Background()
	db, err := crackdb.Open(crackdb.MakeData(n, 1), algo, crackdb.WithSeed(3))
	if err != nil {
		panic(err)
	}
	// The sequential workload: consecutive queries ask for consecutive
	// ranges, scanning the value domain bottom to top.
	gen, err := crackdb.NewWorkload("sequential", crackdb.WorkloadParams{N: n, Q: q, S: 10, Seed: 3})
	if err != nil {
		panic(err)
	}
	var total time.Duration
	for i := 0; i < q; i++ {
		lo, hi := gen.Next()
		t0 := time.Now()
		res, err := db.Query(ctx, crackdb.Range(lo, hi))
		if err != nil {
			panic(err)
		}
		total += time.Since(t0)
		if res.Count() == 0 && hi > lo {
			_ = res // ranges at the domain edge can legitimately be empty
		}
	}
	return total, db.Stats().Touched
}

func main() {
	fmt.Printf("exploring %d tuples with %d consecutive range queries (sequential workload)\n\n", n, q)
	fmt.Printf("%-22s %14s %16s\n", "algorithm", "total time", "tuples touched")
	for _, algo := range []string{crackdb.Crack, crackdb.DD1R, crackdb.PMDD1R, crackdb.Scan} {
		total, touched := runExploration(algo)
		fmt.Printf("%-22s %14v %16d\n", algo, total.Round(time.Microsecond), touched)
	}
	fmt.Println(`
What to look for (paper Fig. 9):
  - crack: touches ~N tuples per query; the exploration never gets faster.
  - dd1r / pmdd1r-10: random auxiliary cracks break the big piece early;
    total cost collapses by orders of magnitude.
  - scan: the no-index baseline every adaptive method must beat.
  - sort (crackbench -experiment fig2): fast overall, but the *first*
    query pays the entire sort - the burst adaptive indexing avoids.`)
}
