// Multi-column selection and projection: cracking at the attribute level.
//
// Cracking is applied per attribute (paper §2): a query reorganizes only
// the column its predicate touches. Projected attributes are
// reconstructed either late (via row ids, one random access per result
// tuple) or through sideways cracker maps (after [18]): the projected
// attribute's values physically travel with the selection attribute
// during cracking, so projection becomes a contiguous copy.
//
// The example models a tiny telescope catalog — right ascension,
// brightness, object id — first serving concurrent strip counts through
// the unified DB front door (predicates scoped with On, per-column
// executors), then running the astronomy query the paper's SkyServer
// discussion motivates — "brightness of all objects in this strip of the
// sky" — through both reconstruction strategies.
//
//	go run ./examples/multicolumn
package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	crackdb "repro"
)

const n = 2_000_000

func catalog() map[string][]int64 {
	// ra is a shuffled dense domain standing in for right-ascension;
	// brightness and id are derived so results are easy to eyeball.
	ra := crackdb.MakeData(n, 21)
	brightness := make([]int64, n)
	objID := make([]int64, n)
	for i, v := range ra {
		brightness[i] = 1000 + v%500
		objID[i] = int64(i)
	}
	return map[string][]int64{"ra": ra, "brightness": brightness, "obj_id": objID}
}

var strips = []struct{ lo, hi int64 }{
	{100_000, 101_000},
	{100_200, 100_800}, // refining inside the previous strip
	{1_500_000, 1_502_000},
}

func main() {
	ctx := context.Background()

	// Part 1: the unified front door. A Shared table gives every selection
	// column its own adaptive executor; concurrent observers count strips
	// in parallel, and only the columns their predicates name are ever
	// indexed.
	db, err := crackdb.OpenTable(catalog(), crackdb.DD1R,
		crackdb.WithSeed(3), crackdb.WithConcurrency(crackdb.Shared))
	if err != nil {
		panic(err)
	}
	fmt.Printf("catalog: %d rows, columns %v\n\n", db.Rows(), db.Columns())
	var wg sync.WaitGroup
	counts := make([]int, len(strips))
	for i, s := range strips {
		wg.Add(1)
		go func(i int, lo, hi int64) {
			defer wg.Done()
			agg, err := db.QueryAggregate(ctx, crackdb.Range(lo, hi).On("ra"))
			if err != nil {
				panic(err)
			}
			counts[i] = agg.Count
		}(i, s.lo, s.hi)
	}
	wg.Wait()
	for i, s := range strips {
		fmt.Printf("strip [%7d,%7d): %5d objects (counted concurrently)\n", s.lo, s.hi, counts[i])
	}

	// Part 2: projection, two ways. Projection is single-threaded, so it
	// runs on a Single-mode table; the selection column is cracked as a
	// side effect either way.
	tbl, err := crackdb.OpenTable(catalog(), crackdb.DD1R, crackdb.WithSeed(3))
	if err != nil {
		panic(err)
	}
	fmt.Println()
	for _, s := range strips {
		strip := crackdb.Range(s.lo, s.hi).On("ra")
		t0 := time.Now()
		late, err := tbl.SelectProject(ctx, strip, "brightness")
		if err != nil {
			panic(err)
		}
		dLate := time.Since(t0)

		t0 = time.Now()
		side, err := tbl.SelectProjectSideways(ctx, strip, "brightness")
		if err != nil {
			panic(err)
		}
		dSide := time.Since(t0)

		var sumLate, sumSide int64
		for _, v := range late {
			sumLate += v
		}
		for _, v := range side {
			sumSide += v
		}
		if sumLate != sumSide || len(late) != len(side) {
			panic("reconstruction strategies disagree")
		}
		fmt.Printf("strip [%7d,%7d): %5d objects, mean brightness %d\n",
			s.lo, s.hi, len(late), sumLate/int64(len(late)))
		fmt.Printf("   late (row-id) reconstruction: %10v\n", dLate)
		fmt.Printf("   sideways cracker map:         %10v\n", dSide)
	}

	st := tbl.Stats()
	fmt.Printf("\ntable state: %d cracks across indexes and maps, %d tuples touched\n",
		st.Cracks, st.Touched)
	fmt.Println("\nonly the 'ra' index and the (ra->brightness) map were ever built or")
	fmt.Println("reorganized; 'obj_id' and unqueried attribute pairs cost nothing (§2:")
	fmt.Println("non-queried columns remain non-indexed).")
}
