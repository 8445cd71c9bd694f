// Command crackcli is an interactive shell for an adaptive database: load
// or generate a column, run predicate queries against any algorithm in
// any concurrency mode, watch the index adapt, and persist the earned
// state. It speaks the public crackdb DB API end to end — the same front
// door applications use.
//
// Usage:
//
//	crackcli -n 1000000 -algo dd1r
//	crackcli -file column.txt -algo pmdd1r-10 -mode shared
//	crackcli -n 4000000 -algo crack -mode sharded -shards 8
//
// Commands (one per line on stdin):
//
//	q <lo> <hi>        query the half-open range [lo, hi)
//	between <lo> <hi>  query the inclusive range [lo, hi]
//	or <lo> <hi> <lo> <hi> ...  query a union of half-open ranges
//	agg <lo> <hi>      count/sum [lo, hi) without materializing
//	insert <v>         queue an insertion (merged on demand)
//	delete <v>         queue a deletion (merged on demand)
//	stats              print physical-cost counters
//	pieces             print the piece-size summary and histogram
//	save <path>        snapshot the index state
//	help               list commands
//	quit               exit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	crackdb "repro"
	"repro/internal/stats"
)

func main() {
	var (
		algo   = flag.String("algo", "dd1r", "cracking algorithm")
		n      = flag.Int64("n", 1_000_000, "generated column size (ignored with -file)")
		seed   = flag.Uint64("seed", 42, "random seed")
		file   = flag.String("file", "", "load the column from a file")
		load   = flag.String("snapshot", "", "resume from a snapshot file")
		mode   = flag.String("mode", "single", "concurrency mode: single, shared, sharded")
		shards = flag.Int("shards", 8, "shard count for -mode sharded")
	)
	flag.Parse()

	db, err := openDB(*algo, *n, *seed, *file, *load, *mode, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crackcli:", err)
		os.Exit(2)
	}
	ctx := context.Background()
	fmt.Printf("crackcli: %s (%s) over %d tuples; type 'help' for commands\n",
		db.Name(), db.Mode(), db.Rows())

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "q", "query", "between", "or":
			p, err := parsePredicate(fields)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			t0 := time.Now()
			res, err := db.Query(ctx, p)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			dt := time.Since(t0)
			fmt.Printf("%d rows, sum %d, in %v (pieces now: %d)\n",
				res.Count(), res.Sum(), dt, db.Stats().Pieces)
		case "agg":
			p, err := parsePredicate(append([]string{"q"}, fields[1:]...))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			t0 := time.Now()
			agg, err := db.QueryAggregate(ctx, p)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("count %d, sum %d, in %v\n", agg.Count, agg.Sum, time.Since(t0))
		case "insert", "delete":
			if len(fields) != 2 {
				fmt.Println("error: usage:", fields[0], "<v>")
				continue
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if fields[0] == "insert" {
				err = db.Insert(v)
			} else {
				err = db.Delete(v)
			}
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("queued; %d updates pending\n", db.PendingUpdates())
		case "stats":
			s := db.Stats()
			fmt.Printf("queries=%d touched=%d swaps=%d cracks=%d pieces=%d pending-updates=%d\n",
				s.Queries, s.Touched, s.Swaps, s.Cracks, s.Pieces, db.PendingUpdates())
		case "pieces":
			sizes, err := db.PieceSizes()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			total := 0
			for _, s := range sizes {
				total += s
			}
			fmt.Println(stats.FromSizes(sizes, total))
			fmt.Print(stats.HistogramSizes(sizes))
		case "save":
			if len(fields) != 2 {
				fmt.Println("error: usage: save <path>")
				continue
			}
			if err := db.SaveSnapshot(fields[1]); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("saved to", fields[1])
		case "help":
			fmt.Println("q <lo> <hi> | between <lo> <hi> | or <lo> <hi> [<lo> <hi>...] | agg <lo> <hi> | insert <v> | delete <v> | stats | pieces | save <path> | quit")
		case "quit", "exit":
			return
		default:
			fmt.Printf("error: unknown command %q (try 'help')\n", fields[0])
		}
	}
}

func openDB(algo string, n int64, seed uint64, file, snap, mode string, shards int) (*crackdb.DB, error) {
	opts := []crackdb.Option{crackdb.WithSeed(seed)}
	switch mode {
	case "single":
		opts = append(opts, crackdb.WithConcurrency(crackdb.Single))
	case "shared":
		opts = append(opts, crackdb.WithConcurrency(crackdb.Shared))
	case "sharded":
		opts = append(opts, crackdb.WithConcurrency(crackdb.Sharded(shards)))
	default:
		return nil, fmt.Errorf("unknown -mode %q (single, shared, sharded)", mode)
	}
	switch {
	case snap != "":
		return crackdb.OpenSnapshotFile(snap, algo, opts...)
	case file != "":
		vals, err := crackdb.LoadColumn(file)
		if err != nil {
			return nil, err
		}
		return crackdb.Open(vals, algo, opts...)
	default:
		return crackdb.Open(crackdb.MakeData(n, seed), algo, opts...)
	}
}

// parsePredicate turns "q lo hi", "between lo hi" or "or lo hi lo hi ..."
// into a Predicate.
func parsePredicate(fields []string) (crackdb.Predicate, error) {
	var zero crackdb.Predicate
	nums := make([]int64, 0, len(fields)-1)
	for _, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return zero, err
		}
		nums = append(nums, v)
	}
	if len(nums) < 2 || len(nums)%2 != 0 {
		return zero, fmt.Errorf("usage: %s <lo> <hi> [<lo> <hi>...]", fields[0])
	}
	if fields[0] != "or" && len(nums) != 2 {
		return zero, fmt.Errorf("usage: %s <lo> <hi>", fields[0])
	}
	mk := crackdb.Range
	if fields[0] == "between" {
		mk = crackdb.Between
	}
	p := mk(nums[0], nums[1])
	for i := 2; i < len(nums); i += 2 {
		p = p.Or(mk(nums[i], nums[i+1]))
	}
	return p, nil
}
