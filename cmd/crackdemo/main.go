// Command crackdemo is a live view of database cracking: it runs a query
// sequence over a small column and prints how the cracker column's piece
// structure evolves — Fig. 1 of the paper, animated in text. Crack
// positions are drawn as '|' between tuples.
//
// Usage:
//
//	crackdemo                                  # defaults: crack, random, 10 queries
//	crackdemo -algo dd1r -workload sequential -n 64 -q 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/colload"
	"repro/internal/core"
	"repro/internal/dberr"
	"repro/internal/workload"
)

func main() {
	var (
		algo     = flag.String("algo", "crack", "algorithm (core specs, e.g. crack, dd1r, mdd1r, pmdd1r-10)")
		wl       = flag.String("workload", "random", "workload pattern")
		n        = flag.Int64("n", 48, "column size (keep small: the demo prints every tuple)")
		q        = flag.Int("q", 10, "number of queries")
		seed     = flag.Uint64("seed", 7, "random seed")
		showVals = flag.Bool("values", true, "print column contents each step")
		file     = flag.String("file", "", "load the column from a file (text or CRKC binary) instead of generating it")
	)
	flag.Parse()

	var data []int64
	if *file != "" {
		var err error
		data, err = colload.LoadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crackdemo:", err)
			os.Exit(2)
		}
		*n = int64(len(data))
	} else {
		data = bench.MakeData(*n, *seed)
	}
	ix, err := core.Build(data, *algo, core.Options{Seed: *seed, CrackSize: 4, ProgressiveSize: 8})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crackdemo:", err)
		if errors.Is(err, dberr.ErrUnknownAlgorithm) {
			fmt.Fprintln(os.Stderr, "crackdemo: known algorithms:", strings.Join(core.Algorithms(), " "))
		}
		os.Exit(2)
	}
	eng, ok := ix.(interface{ Engine() *core.Engine })
	if !ok {
		fmt.Fprintf(os.Stderr, "crackdemo: %s does not expose its physical layout\n", *algo)
		os.Exit(2)
	}
	gen, err := workload.New(*wl, workload.Params{N: *n, Q: *q, S: maxI64(*n/10, 2), Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crackdemo:", err)
		os.Exit(2)
	}

	fmt.Printf("cracking a column of %d tuples with %s under the %q workload\n\n", *n, ix.Name(), gen.Name())
	if *showVals {
		fmt.Println("start:")
		printColumn(eng.Engine())
		fmt.Println()
	}
	for i := 0; i < *q; i++ {
		lo, hi := gen.Next()
		res := ix.Query(lo, hi)
		st := ix.Stats()
		fmt.Printf("Q%-3d select [%3d,%3d) -> %3d tuples   pieces=%-3d touched(total)=%d\n",
			i+1, lo, hi, res.Count(), st.Pieces, st.Touched)
		if *showVals {
			printColumn(eng.Engine())
		}
	}
	fmt.Printf("\nfinal state: %d pieces after %d queries\n", ix.Stats().Pieces, *q)
}

// printColumn renders the column with '|' at crack positions.
func printColumn(e *core.Engine) {
	col := e.Column()
	boundaries := make(map[int]bool)
	e.CrackerIndex().Ascend(func(_ int64, pos, _ int) bool {
		boundaries[pos] = true
		return true
	})
	var b strings.Builder
	for i, v := range col.Values {
		if boundaries[i] {
			b.WriteString("| ")
		}
		fmt.Fprintf(&b, "%d ", v)
	}
	fmt.Printf("     [ %s]\n", b.String())
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
