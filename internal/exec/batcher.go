package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBatcherClosed is returned by Batcher.Enqueue after Close: the
// request was not enqueued and the write was not applied, so retrying
// against a fresh handle is safe.
var ErrBatcherClosed = errors.New("exec: batcher closed")

// Timings decomposes one acknowledged write's latency into the three
// stages of the group-commit path:
//
//	Queue — enqueue until the collector sealed the flush holding the op
//	        (waiting in the admission queue plus the gather window);
//	Flush — the sealed batch waiting for the exclusive section(s);
//	Apply — holding the exclusive section(s), merging the batch.
//
// Flush and Apply are per-flush and therefore shared by every op the
// flush carried; Queue is per-request. Their sum is the served part of
// the caller's wall time.
type Timings struct {
	Queue time.Duration
	Flush time.Duration
	Apply time.Duration
}

// Applier is the surface a Batcher drains into: one call applies a whole
// batch of updates under the target's exclusive section(s). *Executor
// and *Sharded implement it.
type Applier interface {
	ApplyOps(ops []Op) (lockWait, apply time.Duration, err error)
}

// BatcherOptions tunes a Batcher. The zero value selects the defaults.
type BatcherOptions struct {
	// BatchSize is the number of ops at which the collector stops
	// gathering and flushes early. Default 128.
	BatchSize int
	// MaxWait is the hard upper bound on how long the first op of a batch
	// may gather company before the collector flushes regardless. The
	// collector batches opportunistically — it flushes as soon as the
	// queue momentarily drains, so an uncontended write never lingers —
	// and MaxWait only bites when the queue streams continuously without
	// ever reaching BatchSize. Default 200µs.
	MaxWait time.Duration
	// Queue is the admission queue depth in requests; a full queue makes
	// Enqueue block (honoring its context) rather than drop. Default
	// 4×BatchSize.
	Queue int
}

// Resolved returns o with every zero field set to its default: the
// tunables a Batcher built from o runs with.
func (o BatcherOptions) Resolved() BatcherOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = 128
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 200 * time.Microsecond
	}
	if o.Queue <= 0 {
		o.Queue = 4 * o.BatchSize
	}
	return o
}

// BatcherStats is a Batcher's observable state, served by /v1/stats and
// /debug/metrics.
type BatcherStats struct {
	Enqueued int64 // requests accepted into the queue
	Ops      int64 // individual updates applied through flushes
	Flushes  int64 // group commits (exclusive apply sections entered)
	MaxBatch int64 // largest single flush, in ops
	QueueNS  int64 // summed per-request queue stage
	FlushNS  int64 // summed per-flush lock-wait stage
	ApplyNS  int64 // summed per-flush apply stage

	BatchSize int           // effective tunables, defaults resolved
	MaxWait   time.Duration //
}

// Batcher is the group-commit write path: writers enqueue batches of
// updates and block for an ack, while a single collector goroutine
// drains the queue and applies each gathered batch through one
// Applier.ApplyOps call — one exclusive-lock handshake per flush instead
// of one per value, which is what keeps the write path from convoying
// under concurrent writers (Alvarez et al., arXiv:1404.2034, make the
// same argument for batch-coordinated reorganization).
//
// The no-lost-ack contract: Enqueue acknowledges a write only after the
// flush containing it returned from ApplyOps, so an acknowledged write
// is durable in the index (visible to any later query, captured by any
// later snapshot) exactly once, and an error means the write was never
// enqueued. There is no path that acknowledges without applying, and no
// path that applies twice.
type Batcher struct {
	target Applier
	opt    BatcherOptions
	ch     chan *batchReq
	quit   chan struct{} // closed by Close: stop admitting
	done   chan struct{} // closed by the collector after the final flush
	once   sync.Once

	enqueued atomic.Int64
	ops      atomic.Int64
	flushes  atomic.Int64
	maxBatch atomic.Int64
	queueNS  atomic.Int64
	flushNS  atomic.Int64
	applyNS  atomic.Int64
}

type batchReq struct {
	ops  []Op
	enq  time.Time
	resp chan batchResp // buffered(1); the collector never blocks on it
}

type batchResp struct {
	t   Timings
	err error
}

// NewBatcher starts a group-commit collector in front of target and
// returns its handle. Close it to stop the collector goroutine.
func NewBatcher(target Applier, opt BatcherOptions) *Batcher {
	opt = opt.Resolved()
	b := &Batcher{
		target: target,
		opt:    opt,
		ch:     make(chan *batchReq, opt.Queue),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go b.collect()
	return b
}

// Enqueue hands a batch of updates to the collector and blocks until the
// flush containing them was applied, returning the decomposed stage
// timings. The context governs admission only — it is honored while the
// bounded queue is full and checked up front, so a request that misses
// its deadline is rejected without side effects. Once admitted, the
// write WILL be applied and Enqueue waits for that ack regardless of the
// context: returning early would break the acked-exactly-once contract.
func (b *Batcher) Enqueue(ctx context.Context, ops []Op) (Timings, error) {
	if len(ops) == 0 {
		return Timings{}, nil
	}
	if err := ctx.Err(); err != nil {
		return Timings{}, err
	}
	r := &batchReq{ops: ops, enq: time.Now(), resp: make(chan batchResp, 1)}
	select {
	case b.ch <- r:
		b.enqueued.Add(1)
	case <-b.quit:
		return Timings{}, ErrBatcherClosed
	case <-ctx.Done():
		return Timings{}, ctx.Err()
	}
	select {
	case res := <-r.resp:
		return res.t, res.err
	case <-b.done:
		// The collector drains the queue before closing done, so a
		// response may have raced in; prefer it — it is a real ack.
		select {
		case res := <-r.resp:
			return res.t, res.err
		default:
			return Timings{}, ErrBatcherClosed
		}
	}
}

// Close stops admitting writes, flushes everything already queued (those
// writers still get real acks) and waits for the collector to exit.
// Close is idempotent and safe to call concurrently with Enqueue.
func (b *Batcher) Close() {
	b.once.Do(func() { close(b.quit) })
	<-b.done
}

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Enqueued:  b.enqueued.Load(),
		Ops:       b.ops.Load(),
		Flushes:   b.flushes.Load(),
		MaxBatch:  b.maxBatch.Load(),
		QueueNS:   b.queueNS.Load(),
		FlushNS:   b.flushNS.Load(),
		ApplyNS:   b.applyNS.Load(),
		BatchSize: b.opt.BatchSize,
		MaxWait:   b.opt.MaxWait,
	}
}

// collect is the collector goroutine: wait for a first request, greedily
// gather whatever else is already queued, then flush the whole batch
// through one ApplyOps call and ack every waiter.
//
// Batching is opportunistic, not timed: the collector flushes the moment
// the queue momentarily drains, so a lone write pays no gather delay,
// while a busy exclusive section makes batches form by itself — every op
// that arrives during the previous flush rides the next one. A timed
// gather window would instead put its wait on every flush's critical
// path and cap throughput near 1/MaxWait flushes per second (Go timers
// cannot even resolve a few hundred microseconds reliably under load);
// MaxWait survives only as the hard bound on a continuously trickling
// queue that never reaches BatchSize.
func (b *Batcher) collect() {
	defer close(b.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	var (
		reqs  []*batchReq
		nops  int
		batch []Op
	)
	flush := func() {
		if len(reqs) == 0 {
			return
		}
		sealed := time.Now()
		batch = batch[:0]
		for _, r := range reqs {
			batch = append(batch, r.ops...)
		}
		lockWait, apply, err := b.target.ApplyOps(batch)
		b.flushes.Add(1)
		b.ops.Add(int64(len(batch)))
		if n := int64(len(batch)); n > b.maxBatch.Load() {
			b.maxBatch.Store(n) // single writer: the collector itself
		}
		b.flushNS.Add(int64(lockWait))
		b.applyNS.Add(int64(apply))
		for _, r := range reqs {
			q := sealed.Sub(r.enq)
			b.queueNS.Add(int64(q))
			r.resp <- batchResp{t: Timings{Queue: q, Flush: lockWait, Apply: apply}, err: err}
		}
		reqs = reqs[:0]
		nops = 0
	}

	for {
		select {
		case r := <-b.ch:
			reqs = append(reqs, r)
			nops = len(r.ops)
		case <-b.quit:
			// Closing: serve what is already queued, then exit. Enqueue
			// selects on quit, so the queue can only shrink here.
			for {
				select {
				case r := <-b.ch:
					reqs = append(reqs, r)
					nops += len(r.ops)
				default:
					flush()
					return
				}
			}
		}
		timer.Reset(b.opt.MaxWait)
	gather:
		for nops < b.opt.BatchSize {
			select {
			case r := <-b.ch:
				reqs = append(reqs, r)
				nops += len(r.ops)
			case <-timer.C:
				break gather
			default:
				// Queue drained: flush now rather than linger.
				break gather
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		flush()
	}
}
