package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/updates"
	"repro/internal/xrand"
)

func newUpdatableExec(t *testing.T, n int, seed uint64) *Executor {
	t.Helper()
	ix, err := core.Build(xrand.New(seed).Perm(n), "dd1r", core.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return New(updatable(ix))
}

// TestApplyOpsMatchesSerialUpdates: a batch applied through ApplyOps must
// leave the index answering exactly like the same updates applied one by
// one — the multiset of inserts and deletes is what matters.
func TestApplyOpsMatchesSerialUpdates(t *testing.T) {
	const n = 20000
	batched := newUpdatableExec(t, n, 3)
	serial := newUpdatableExec(t, n, 3)

	rng := xrand.New(9)
	var ops []Op
	for i := 0; i < 500; i++ {
		ops = append(ops, Op{Value: n + rng.Int63n(5000)})               // inserts above the domain
		ops = append(ops, Op{Value: rng.Int63n(n), Delete: true})        // deletes inside it
		ops = append(ops, Op{Value: n + rng.Int63n(5000), Delete: true}) // deletes that may miss
	}
	if _, _, err := batched.ApplyOps(ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		var err error
		if op.Delete {
			err = serial.Delete(op.Value)
		} else {
			err = serial.Insert(op.Value)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		a := rng.Int63n(n + 5000)
		b := a + 1 + rng.Int63n(2000)
		gc, gs := aggregate(batched, a, b)
		wc, ws := aggregate(serial, a, b)
		if gc != wc || gs != ws {
			t.Fatalf("query [%d,%d): batched (%d,%d) != serial (%d,%d)", a, b, gc, gs, wc, ws)
		}
	}
}

// TestBatcherNoLostNoDoubledAcks is the group-commit equivalence
// property: concurrent writers insert distinct values through the
// batcher while readers query; after every ack, each acknowledged value
// is visible exactly once.
func TestBatcherNoLostNoDoubledAcks(t *testing.T) {
	const (
		n       = 30000
		writers = 8
		perW    = 300
	)
	x := newUpdatableExec(t, n, 5)
	b := NewBatcher(x, BatcherOptions{BatchSize: 64, MaxWait: 100 * time.Microsecond})
	defer b.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	var acked atomic.Int64
	stop := make(chan struct{})
	// Readers keep the executor's read/write paths busy during the storm.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := rng.Int63n(n)
				aggregate(x, a, a+1+rng.Int63n(500))
			}
		}(uint64(100 + r))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Distinct values above the base domain: n + writer*perW + i.
				v := int64(n + w*perW + i)
				if _, err := b.Enqueue(ctx, []Op{{Value: v}}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				acked.Add(1)
				// An acknowledged insert must be visible to a query issued
				// after the ack — count exactly 1.
				if c, _ := aggregate(x, v, v+1); c != 1 {
					t.Errorf("acked value %d: count = %d, want 1", v, c)
					return
				}
			}
		}(w)
	}
	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitWriters := func() {
		for acked.Load() < writers*perW {
			select {
			case <-done:
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}
	waitWriters()
	close(stop)
	<-done
	if t.Failed() {
		return
	}
	// Global check: every acked value present exactly once, none doubled.
	c, s := aggregate(x, n, n+writers*perW)
	wantC := writers * perW
	var wantS int64
	for v := int64(n); v < int64(n+writers*perW); v++ {
		wantS += v
	}
	if c != wantC || s != wantS {
		t.Fatalf("acked range: got (%d,%d), want (%d,%d)", c, s, wantC, wantS)
	}
	st := b.Stats()
	if st.Flushes == 0 || st.Ops != int64(writers*perW) {
		t.Fatalf("stats: flushes=%d ops=%d, want ops=%d", st.Flushes, st.Ops, writers*perW)
	}
	if st.Flushes >= st.Ops {
		t.Logf("no grouping happened (flushes=%d ops=%d) — legal but worth knowing", st.Flushes, st.Ops)
	}
}

// TestBatcherAcksSurviveSnapshotCapture: an acked insert must ride a
// snapshot taken any time after the ack — Exclusive drains the batcher's
// in-flight flush because both take the same lock.
func TestBatcherAcksSurviveSnapshotCapture(t *testing.T) {
	const n = 10000
	x := newUpdatableExec(t, n, 11)
	b := NewBatcher(x, BatcherOptions{BatchSize: 32, MaxWait: 50 * time.Microsecond})
	defer b.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var acked atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := int64(n + w*200 + i)
				if _, err := b.Enqueue(ctx, []Op{{Value: v}}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				acked.Add(1)
			}
		}(w)
	}
	// Concurrent snapshot-like captures: each must observe at least the
	// acks counted before the capture began (pending + merged together).
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := acked.Load()
				var got int64
				x.Exclusive(func(inner Index) {
					u := inner.(*updates.Index)
					ins, _ := u.PendingSnapshot()
					got = int64(len(ins)) + u.Merged()
				})
				if got < before {
					t.Errorf("capture saw %d inserts, %d were acked before it", got, before)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	go func() {
		for acked.Load() < 800 && !t.Failed() {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	wg.Wait()
}

// TestBatcherShardedRouting: one enqueued batch spanning shard boundaries
// lands each value on the owning shard.
func TestBatcherShardedRouting(t *testing.T) {
	const n = 40000
	s, err := NewSharded(xrand.New(17).Perm(n), "dd1r", 4, core.Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(s, BatcherOptions{BatchSize: 256, MaxWait: time.Millisecond})
	defer b.Close()

	var ops []Op
	for v := int64(0); v < 1000; v++ {
		ops = append(ops, Op{Value: n + v})
	}
	tm, err := b.Enqueue(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Queue < 0 || tm.Apply <= 0 {
		t.Fatalf("timings = %+v, want positive apply", tm)
	}
	if got := s.Pending(); got != 1000 {
		t.Fatalf("pending = %d, want 1000", got)
	}
	c, _, err := s.QueryAggregateCtx(context.Background(), n, n+1000)
	if err != nil || c != 1000 {
		t.Fatalf("count = %d (err %v), want 1000", c, err)
	}
}

// slowApplier delays every flush, so enqueues pile up in the queue while
// a flush is in progress — the deterministic way to have requests queued
// at Close time now that the collector flushes opportunistically.
type slowApplier struct {
	inner Applier
	delay time.Duration
}

func (s *slowApplier) ApplyOps(ops []Op) (time.Duration, time.Duration, error) {
	time.Sleep(s.delay)
	return s.inner.ApplyOps(ops)
}

// TestBatcherCloseFlushesQueued: requests already admitted when Close is
// called still get real acks; requests after Close fail cleanly.
func TestBatcherCloseFlushesQueued(t *testing.T) {
	const n = 5000
	x := newUpdatableExec(t, n, 23)
	// Each flush takes ~20ms, so the 16 enqueues below queue up behind the
	// first one and are provably served by the close-path drain.
	b := NewBatcher(&slowApplier{inner: x, delay: 20 * time.Millisecond},
		BatcherOptions{BatchSize: 1 << 20, MaxWait: time.Hour, Queue: 64})

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Enqueue(ctx, []Op{{Value: int64(n + i)}})
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the enqueues land
	b.Close()
	wg.Wait()
	okAcks := 0
	for _, err := range errs {
		if err == nil {
			okAcks++
		} else if !errors.Is(err, ErrBatcherClosed) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	// Every ack must be present in the index; no ErrBatcherClosed write may be.
	c, _ := aggregate(x, n, n+16)
	if c != okAcks {
		t.Fatalf("index holds %d of the writes, %d were acked", c, okAcks)
	}
	if _, err := b.Enqueue(ctx, []Op{{Value: 1}}); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("enqueue after close: err = %v, want ErrBatcherClosed", err)
	}
	b.Close() // idempotent
}

// TestBatcherEnqueueHonorsContext: a canceled context rejects admission
// without side effects.
func TestBatcherEnqueueHonorsContext(t *testing.T) {
	x := newUpdatableExec(t, 1000, 29)
	b := NewBatcher(x, BatcherOptions{})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Enqueue(ctx, []Op{{Value: 5000}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c, _ := aggregate(x, 5000, 5001); c != 0 {
		t.Fatal("rejected write reached the index")
	}
}
