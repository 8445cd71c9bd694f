package main

import (
	"bytes"
	"time"

	crackdb "repro"
	"repro/internal/cindex"
	"repro/internal/column"
	"repro/internal/exec"
	"repro/internal/updates"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// The probes measure what the ladder's reads cannot: write-path stages,
// payload-size slopes, snapshots, and the kernels and cracker index called
// directly. They are the same for every workload; those that need a layer
// warm run on its rung right after the ladder's passes, continuing with the
// rung's client so its model still predicts every read.

// writeProbe warms t on the probe's ops, then replays its block once with
// every op timed, and returns the client's write latency samples. warmed, if
// not nil, runs between the two.
func (tr *tracer) writeProbe(t target, c *client, parent int, layer string, warmed func()) (writes []int64) {
	id := tr.log.begin(parent, layer, "write-probe")
	c.every, c.spans = 1<<30, nil
	c.run(t, tr.probeWarm, 1)
	if warmed != nil {
		warmed()
	}
	c.resetSamples()
	c.every = 1
	c.run(t, tr.probeBlock, 1)
	tr.log.end(id, map[string]int64{"ops": int64(len(tr.probeBlock))})
	return c.writeLat
}

func (tr *tracer) probes(r rung, t target, c *client, parent int) error {
	switch t := t.(type) {
	case *updatesTarget:
		tr.rippleProbe(t.u)
		pt := &peakTarget{updatesTarget: t}
		var merged0 int64
		tr.writeProbe(pt, c, parent, r.name, func() { merged0, pt.peak = t.u.Merged(), 0 })
		covering := len(tr.probeBlock) / 10 * 2 // the two centred reads of every 10-op cycle
		tr.metrics["updates.merged_per_covering_query"] = float64(t.u.Merged()-merged0) / float64(covering)
		tr.metrics["updates.pending_peak"] = float64(pt.peak)
	case *execTarget:
		at := &applyTarget{execTarget: t}
		tr.writeProbe(at, c, parent, r.name, func() { at.lockWait, at.apply = nil, nil })
		tr.metrics["exec.lockwait_us_p50"] = percentileNS(at.lockWait, 0.5) / 1e3
		tr.metrics["exec.apply_us_p50"] = percentileNS(at.apply, 0.5) / 1e3
		bt := &batchTarget{execTarget: t, b: exec.NewBatcher(t.x, exec.BatcherOptions{})}
		tr.writeProbe(bt, c, parent, r.name, func() { bt.queue = nil })
		bt.b.Close()
		st := bt.b.Stats()
		tr.metrics["exec.batcher_queue_us_p50"] = percentileNS(bt.queue, 0.5) / 1e3
		tr.metrics["exec.batcher_ops_per_flush"] = float64(st.Ops) / float64(max(st.Flushes, 1))
	case *dbTarget:
		switch r.name {
		case "crackdb.single":
			return tr.snapshotProbe(t.db, c, parent)
		case "crackdb.shared":
			tr.metrics["crackdb.open_ms"] = t.open.Seconds() * 1e3
			c.every, c.spans = 1<<30, nil
			m0, a0 := mallocs(), c.attempted
			c.run(t, tr.block, 1)
			tr.metrics["crackdb.allocs_per_query"] = float64(mallocs()-m0) / float64(max(c.attempted-a0, 1))
			writes := tr.writeProbe(t, c, parent, r.name, nil)
			tr.metrics["crackdb.write_p50_us"] = percentileNS(writes, 0.5) / 1e3
			tr.metrics["crackdb.write_p99_us"] = percentileNS(writes, 0.99) / 1e3
		}
	case *clientTarget:
		switch r.name {
		case "server":
			tr.metrics["server.us_per_1k_values"] = tr.slopeProbe(t, c, parent, r.name)
			return tr.serverProbe(t, c)
		case "cluster":
			tr.metrics["cluster.us_per_1k_values"] = tr.slopeProbe(t, c, parent, r.name)
		}
	}
	return nil
}

// peakTarget watches the pending queue's depth after every write.
type peakTarget struct {
	*updatesTarget
	peak int
}

func (t *peakTarget) note() { t.peak = max(t.peak, t.u.Pending()) }
func (t *peakTarget) insert(v int64) error {
	defer t.note()
	return t.updatesTarget.insert(v)
}
func (t *peakTarget) remove(v int64) error {
	defer t.note()
	return t.updatesTarget.remove(v)
}

// applyTarget writes through Executor.ApplyOps, which reports how long the
// batch waited for the exclusive section and how long it held it.
type applyTarget struct {
	*execTarget
	lockWait, apply []int64
}

func (t *applyTarget) write(o exec.Op) error {
	w, a, err := t.x.ApplyOps([]exec.Op{o})
	t.lockWait, t.apply = append(t.lockWait, int64(w)), append(t.apply, int64(a))
	return err
}
func (t *applyTarget) insert(v int64) error { return t.write(exec.Op{Value: v}) }
func (t *applyTarget) remove(v int64) error { return t.write(exec.Op{Value: v, Delete: true}) }

// batchTarget writes through the group-commit batcher in front of the same
// executor.
type batchTarget struct {
	*execTarget
	b     *exec.Batcher
	queue []int64
}

func (t *batchTarget) write(o exec.Op) error {
	tm, err := t.b.Enqueue(bg, []exec.Op{o})
	t.queue = append(t.queue, int64(tm.Queue))
	return err
}
func (t *batchTarget) insert(v int64) error { return t.write(exec.Op{Value: v}) }
func (t *batchTarget) remove(v int64) error { return t.write(exec.Op{Value: v, Delete: true}) }

// rippleProbe times the two merge primitives directly on the warm engine.
// Each inserted value is deleted again, so the column is left as found.
func (tr *tracer) rippleProbe(u *updates.Index) {
	e := u.Engine()
	e.AbandonProgressivePartitions()
	col, idx := e.Column(), e.CrackerIndex()
	rng := xrand.New(tr.cfg.seed + 0x71)
	var ins, del []int64
	for i := 0; i < 200; i++ {
		v := rng.Int63n(tr.cfg.n)
		t0 := time.Now()
		updates.RippleInsert(col, idx, v)
		t1 := time.Now()
		ok := updates.RippleDelete(col, idx, v)
		t2 := time.Now()
		ins, del = append(ins, int64(t1.Sub(t0))), append(del, int64(t2.Sub(t1)))
		tr.attempts++
		if !ok {
			tr.failures++
			tr.fails.report("%s updates: RippleDelete(%d) found nothing after RippleInsert", tr.w.Name, v)
		}
	}
	// Means, not medians: a ripple walks every crack above the value, so
	// where only half the domain is cracked (mixed_rw's client 0) the
	// median value costs nothing.
	tr.metrics["updates.ripple_insert_us"] = meanNS(ins) / 1e3
	tr.metrics["updates.ripple_delete_us"] = meanNS(del) / 1e3
}

// groupCommitProbe is the write ladder's last rung: the Shared DB again,
// opened WithGroupCommit. Reads do not pass through the batcher, so it has
// no place on the read ladder.
func (tr *tracer) groupCommitProbe() error {
	id := tr.log.begin(1, "crackdb.groupcommit", "rung")
	defer tr.log.end(id, nil)
	t, err := tr.fresh("crackdb.groupcommit", id)
	if err != nil {
		return err
	}
	defer t.close()
	c := tr.newClient("crackdb.groupcommit")
	defer tr.collect(c)
	writes := tr.writeProbe(t, c, id, "crackdb.groupcommit", nil)
	tr.metrics["crackdb.groupcommit_write_us_p50"] = percentileNS(writes, 0.5) / 1e3
	return nil
}

// snapshotProbe captures the warm DB to bytes and reopens it, as a
// MemStore round trip does, and checks the reopened DB still answers.
func (tr *tracer) snapshotProbe(db *crackdb.DB, c *client, parent int) error {
	id := tr.log.begin(parent, "snapshot", "save+restore")
	var buf bytes.Buffer
	t0 := time.Now()
	snap, err := db.Snapshot()
	if err == nil {
		err = crackdb.WriteSnapshot(&buf, snap)
	}
	if err != nil {
		return err
	}
	size := buf.Len()
	t1 := time.Now()
	back, err := crackdb.ReadSnapshot(&buf)
	if err != nil {
		return err
	}
	restored, err := crackdb.OpenSnapshot(back, algorithm, crackdb.WithSeed(tr.cfg.seed))
	if err != nil {
		return err
	}
	t2 := time.Now()
	tr.log.end(id, map[string]int64{"bytes": int64(size)})
	tr.metrics["snapshot.save_ms"] = t1.Sub(t0).Seconds() * 1e3
	tr.metrics["snapshot.restore_ms"] = t2.Sub(t1).Seconds() * 1e3
	tr.metrics["snapshot.bytes_per_row"] = float64(size) / float64(db.Rows())

	// The restored DB must answer as the original would: the rung's client
	// carries on against it (the original is closed right after).
	rt := &dbTarget{db: restored}
	c.every, c.spans = 1<<30, nil
	c.run(rt, tr.block[:min(len(tr.block), 100)], 1)
	rt.close()
	return nil
}

// slopeRanges is the slope and aggregate probes' range set at one width.
func (tr *tracer) slopeRanges(width int64) []op {
	return materialise(workload.Random(workload.Params{N: tr.cfg.n, Q: 200, S: width, Seed: tr.cfg.seed + 0x51}), 200)
}

// slopeProbe measures what a response's values cost on a wire rung: the same
// number of requests at width 10 and at width 1000, and the difference per
// thousand values.
func (tr *tracer) slopeProbe(t target, c *client, parent int, layer string) (usPer1k float64) {
	id := tr.log.begin(parent, layer, "slope-probe")
	mean := func(width int64) float64 {
		ops := tr.slopeRanges(width)
		c.every = 1 << 30
		c.run(t, ops, 1) // converge the ranges first
		c.resetSamples()
		c.every = 1
		c.run(t, ops, 2)
		return meanNS(c.readLat)
	}
	narrow, wide := mean(pointWidth), mean(scanWidth)
	tr.log.end(id, map[string]int64{"narrow_ns": int64(narrow), "wide_ns": int64(wide)})
	return (wide - narrow) / float64(scanWidth-pointWidth) // ns per value = us per 1k values
}

// serverProbe asks the server rung for aggregates — the same ranges as the
// wide slope requests, answered without a value payload — and reads its
// admission counters.
func (tr *tracer) serverProbe(t *clientTarget, c *client) error {
	ops := tr.slopeRanges(scanWidth)
	var lat []int64
	for _, o := range ops {
		t0 := time.Now()
		res, err := t.c.Aggregate(bg, o.lo, o.hi)
		lat = append(lat, int64(time.Since(t0)))
		count, sum := permOracle(o.lo, o.hi, tr.cfg.n)
		xc, xs := c.model.within(o.lo, o.hi)
		tr.attempts++
		if err != nil || int64(res.Count) != count+xc || res.Sum != sum+xs {
			tr.failures++
			tr.fails.report("%s server aggregate [%d,%d): got %d/%d err=%v", tr.w.Name, o.lo, o.hi, res.Count, res.Sum, err)
		}
	}
	tr.metrics["server.aggregate_us"] = meanNS(lat) / 1e3
	st, err := t.c.Stats(bg)
	if err != nil {
		return err
	}
	tr.metrics["server.rejected_ratio"] = float64(st.AdmissionRejects) / float64(max(st.QueriesServed+st.AdmissionRejects, 1))
	return nil
}

// kernelProbe calls the column kernels directly on the full, uncracked
// column; on a permutation the split positions are known in advance.
func (tr *tracer) kernelProbe() {
	id := tr.log.begin(1, "column", "kernel-probe")
	defer tr.log.end(id, nil)
	n := len(tr.data)
	pivot, a, b := int64(n/2), int64(n/3), int64(2*n/3)
	ma, mb := pivot-scanWidth/2, pivot+scanWidth/2 // materialised range of the split/scan kernels
	out := make([]int64, 0, 2*scanWidth)
	kernels := []struct {
		metric string
		run    func(col *column.Column) bool
	}{
		{"column.crack2_ns_per_tuple", func(col *column.Column) bool { return col.CrackInTwo(0, n, pivot) == int(pivot) }},
		{"column.crack3_ns_per_tuple", func(col *column.Column) bool {
			p1, p2 := col.CrackInThree(0, n, a, b)
			return p1 == int(a) && p2 == int(b)
		}},
		{"column.split_materialize_ns_per_tuple", func(col *column.Column) bool {
			got, p := col.SplitAndMaterialize(0, n, pivot, ma, mb, out[:0])
			return p == int(pivot) && int64(len(got)) == min(mb, int64(n))-max(ma, 0)
		}},
		{"column.scan_ns_per_tuple", func(col *column.Column) bool {
			return int64(len(col.ScanMaterialize(0, n, ma, mb, out[:0]))) == min(mb, int64(n))-max(ma, 0)
		}},
		{"column.parallel_crack2_ns_per_tuple", func(col *column.Column) bool { return col.ParallelCrackInTwo(0, n, pivot) == int(pivot) }},
	}
	for _, k := range kernels {
		var ns []float64
		for rep := 0; rep < 3; rep++ {
			copy(tr.scratch, tr.data)
			col := column.New(tr.scratch)
			t0 := time.Now()
			ok := k.run(col)
			ns = append(ns, float64(time.Since(t0))/float64(n))
			tr.attempts++
			if !ok {
				tr.failures++
				tr.fails.report("%s %s: wrong split position or result size", tr.w.Name, k.metric)
			}
		}
		tr.metrics[k.metric] = median(ns)
	}
}

// cindexProbe times the cracker index on a tree as large as the one the core
// rung ended with.
func (tr *tracer) cindexProbe() {
	id := tr.log.begin(1, "cindex", "tree-probe")
	k := int(max(tr.counts["core.cracks"], 16))
	defer tr.log.end(id, map[string]int64{"cracks": int64(k)})
	rng := xrand.New(tr.cfg.seed + 0xc1)
	keys := make([]int64, k)
	for i := range keys {
		keys[i] = rng.Int63n(tr.cfg.n)
	}
	var tree cindex.Tree
	t0 := time.Now()
	for _, key := range keys {
		tree.Insert(key, int(key)) // on a sorted permutation value v sits at position v
	}
	tr.metrics["cindex.insert_ns"] = float64(time.Since(t0)) / float64(k)
	n := int(tr.cfg.n)
	var sink int
	t0 = time.Now()
	for _, key := range keys {
		lo, hi, _ := tree.PieceFor(key+1, n)
		sink += hi - lo
	}
	tr.metrics["cindex.piecefor_ns"] = float64(time.Since(t0)) / float64(k)
	t0 = time.Now()
	for _, key := range keys {
		tree.RangeShift(key, 1)
		tree.RangeShift(key, -1)
	}
	tr.metrics["cindex.rangeshift_ns"] = float64(time.Since(t0)) / float64(2*k)
	tr.attempts++
	if sink <= 0 {
		tr.failures++
		tr.fails.report("%s cindex: PieceFor returned empty pieces", tr.w.Name)
	}
}
