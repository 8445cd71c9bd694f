// Updates: adaptive indexing under a live insert/delete stream.
//
// Cracking does not stop the world for maintenance. Updates queue as
// pending and are merged lazily — each query merges exactly the pending
// values that fall inside its range, in the spirit of the Ripple
// reorganization of the paper's reference [17]: a merge moves one tuple
// per piece it crosses on the way to the nearest empty slot, instead of
// rewriting the array (reproducing Fig. 15's setup: 10 random inserts
// arriving with every 10 queries).
//
// The same DB.Insert/DB.Delete calls work in every concurrency mode — a
// sharded database routes each value to the shard owning its range.
//
//	go run ./examples/updates
package main

import (
	"context"
	"fmt"
	"time"

	crackdb "repro"
)

const (
	n = 2_000_000
	q = 2_000
)

func main() {
	ctx := context.Background()
	db, err := crackdb.Open(crackdb.MakeData(n, 5), crackdb.PMDD1R, crackdb.WithSeed(5))
	if err != nil {
		panic(err)
	}
	queries, err := crackdb.NewWorkload("sequential", crackdb.WorkloadParams{N: n, Q: q, S: 1000, Seed: 5})
	if err != nil {
		panic(err)
	}
	inserts, err := crackdb.NewWorkload("random", crackdb.WorkloadParams{N: n, Q: q, S: 1, Seed: 99})
	if err != nil {
		panic(err)
	}

	var total time.Duration
	var inserted, matched int
	for i := 0; i < q; i++ {
		// Fig. 15's high-frequency low-volume stream: 10 random inserts
		// with every 10th query.
		if i%10 == 0 {
			for k := 0; k < 10; k++ {
				v, _ := inserts.Next()
				if err := db.Insert(v); err != nil {
					panic(err)
				}
				inserted++
			}
		}
		lo, hi := queries.Next()
		t0 := time.Now()
		res, err := db.Query(ctx, crackdb.Range(lo, hi))
		if err != nil {
			panic(err)
		}
		total += time.Since(t0)
		// On permutation data every value is unique, so any count above
		// the range width is a merged insert showing up in results.
		if extra := res.Count() - int(hi-lo); extra > 0 {
			matched += extra
		}
		if (i+1)%400 == 0 {
			fmt.Printf("after %5d queries: cumulative %8v, %5d inserts queued, %4d still pending\n",
				i+1, total.Round(time.Millisecond), inserted, db.PendingUpdates())
		}
	}

	st := db.Stats()
	fmt.Printf("\n%d inserts arrived; %d merged on demand, %d never touched by a query\n",
		inserted, inserted-db.PendingUpdates(), db.PendingUpdates())
	fmt.Printf("%d of them were returned by queries whose range covered them\n", matched)
	fmt.Printf("index state: %d pieces, %d tuples touched in total\n", st.Pieces, st.Touched)
	fmt.Println("\npaper shape (Fig. 15): the update stream does not disturb stochastic")
	fmt.Println("cracking's robustness - cumulative cost stays flat, because each merge")
	fmt.Println("moves a few tuples next to its piece rather than rebuilding anything.")
}
