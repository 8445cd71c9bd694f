package exec

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

func TestExecutorCanceledContext(t *testing.T) {
	ix, err := core.Build(xrand.New(71).Perm(10_000), "crack", core.Options{Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	x := New(ix)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.QueryAppendCtx(ctx, 0, 100, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("query error = %v", err)
	}
	if _, _, err := x.QueryAggregateCtx(ctx, 0, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate error = %v", err)
	}
	if _, err := x.QueryBatchInto(ctx, []Range{{0, 10}}, new(BatchBuffer)); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v", err)
	}
	// A live context serves normally afterwards; the aborted calls left no
	// partial state behind.
	out, err := x.QueryAppendCtx(context.Background(), 0, 100, nil)
	if err != nil || len(out) != 100 {
		t.Fatalf("post-cancel query: len=%d err=%v", len(out), err)
	}
}

// TestExecutorBatchCancelBetweenRanges cancels the context from inside
// the batch's exclusive pass — deterministically mid-batch, by hooking
// the first query through an index wrapper — and checks the remaining
// ranges are abandoned.
func TestExecutorBatchCancelBetweenRanges(t *testing.T) {
	ix, err := core.Build(xrand.New(73).Perm(10_000), "crack", core.Options{Seed: 74})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hooked := &cancelAfterFirstQuery{Index: ix, cancel: cancel}
	x := New(hooked)
	ranges := []Range{{0, 10}, {100, 200}, {300, 400}, {500, 600}}
	if _, err := x.QueryBatchInto(ctx, ranges, new(BatchBuffer)); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v", err)
	}
	if hooked.queries != 1 {
		t.Fatalf("ran %d ranges after cancellation, want 1", hooked.queries)
	}
}

// cancelAfterFirstQuery cancels its context as a side effect of the first
// Query, simulating a caller giving up while a batch holds the write
// lock. It deliberately hides the probe surface so every range takes the
// exclusive path.
type cancelAfterFirstQuery struct {
	Index
	cancel  context.CancelFunc
	queries int
}

func (c *cancelAfterFirstQuery) Query(a, b int64) core.Result {
	c.queries++
	c.cancel()
	return c.Index.Query(a, b)
}

func TestShardedCanceledContext(t *testing.T) {
	s, err := NewSharded(xrand.New(75).Perm(40_000), "crack", 4, core.Options{Seed: 76})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryCtx(ctx, 0, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("query error = %v", err)
	}
	if _, _, err := s.QueryAggregateCtx(ctx, 0, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate error = %v", err)
	}
	if _, err := s.QueryBatchInto(ctx, []Range{{0, 10}, {20, 30}}, new(BatchBuffer)); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v", err)
	}
	out, err := s.QueryCtx(context.Background(), 0, 1000)
	if err != nil || len(out) != 1000 {
		t.Fatalf("post-cancel query: len=%d err=%v", len(out), err)
	}
}

func TestShardedUpdatesRouteByValue(t *testing.T) {
	s, err := NewSharded(xrand.New(77).Perm(40_000), "dd1r", 4, core.Options{Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Prime some cracks, then update values living in different shards.
	if _, err := s.QueryCtx(ctx, 0, 40_000); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{100, 15_000, 39_000} {
		if err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(20_000); err != nil {
		t.Fatal(err)
	}
	if p := s.Pending(); p != 4 {
		t.Fatalf("pending = %d", p)
	}
	out, err := s.QueryCtx(ctx, 0, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	// 40000 originals + 3 inserts - 1 delete.
	if len(out) != 40_002 {
		t.Fatalf("post-update count = %d", len(out))
	}
	if p := s.Pending(); p != 0 {
		t.Fatalf("pending after merge = %d", p)
	}
	// The sorted baseline cannot take updates even when sharded.
	srt, err := NewSharded(xrand.New(79).Perm(1000), "sort", 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srt.Insert(5); err == nil {
		t.Fatal("sharded sort accepted an insert")
	}
}
