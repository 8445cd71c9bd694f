package table

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dberr"
	"repro/internal/exec"
	"repro/internal/xrand"
)

func TestSharedTableConcurrentColumns(t *testing.T) {
	const n = 20_000
	a := xrand.New(31).Perm(n)
	b := make([]int64, n)
	for i, v := range a {
		b[i] = v * 2
	}
	tbl, err := New(map[string][]int64{"a": a, "b": b}, "dd1r", exec.Mode{Kind: exec.ModeShared}, core.Options{Seed: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ca, err := tbl.Column("a")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				lo := int64((g*977 + i*131) % (n - 200))
				// Even goroutines hit column a, odd ones column b: both
				// columns crack concurrently, independently.
				if g%2 == 0 {
					vals, err := ca.QueryAppendCtx(ctx, lo, lo+100, nil)
					if err != nil || len(vals) != 100 {
						errs <- "column a query wrong"
						return
					}
				} else {
					cb, err := tbl.Column("b")
					if err != nil {
						errs <- err.Error()
						return
					}
					c, sum, err := cb.QueryAggregateCtx(ctx, 2*lo, 2*lo+200)
					if err != nil || c != 100 {
						errs <- "column b aggregate wrong"
						return
					}
					var want int64
					for v := 2 * lo; v < 2*lo+200; v += 2 {
						want += v
					}
					if sum != want {
						errs <- "column b sum wrong"
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

	out, err := ca.QueryBatchInto(ctx, []exec.Range{{Lo: 10, Hi: 20}, {Lo: 500, Hi: 600}}, new(exec.BatchBuffer))
	if err != nil || len(out[0]) != 10 || len(out[1]) != 100 {
		t.Fatalf("batch: err=%v sizes=(%d,%d)", err, len(out[0]), len(out[1]))
	}
	if tbl.Stats().Queries == 0 || tbl.Stats().Cracks == 0 {
		t.Fatal("no work recorded")
	}
	if tbl.Rows() != n || len(tbl.Columns()) != 2 {
		t.Fatal("table shape lost")
	}
}

func TestSharedTableErrors(t *testing.T) {
	tbl, err := New(map[string][]int64{"a": {1, 2, 3}}, "crack", exec.Mode{Kind: exec.ModeShared}, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Column("nope"); !errors.Is(err, dberr.ErrUnknownColumn) {
		t.Fatalf("unknown column error = %v", err)
	}
	if len(tbl.cols) != 1 {
		t.Fatalf("unknown column grew the slot map to %d slots", len(tbl.cols))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := tbl.Column("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.View(ctx, 0, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query error = %v", err)
	}
}
