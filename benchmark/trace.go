package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	crackdb "repro"
)

// span is one traced interval, as written to out/trace-<workload>.jsonl.
// Spans of one run share the workload name; parent 0 is the run itself.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Workload string           `json:"workload"`
	Layer    string           `json:"layer"`
	Op       string           `json:"op"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// opSpan is the compact in-memory form of a per-operation span; there are
// hundreds of thousands of them, so they are expanded only when written.
type opSpan struct {
	parent     int
	kind       opKind
	start, end int64
	values     int
}

// spanLog keeps every span in memory until the run ends.
type spanLog struct {
	workload string
	epoch    time.Time
	spans    []span
	ops      []opSpan
}

func newSpanLog(workload string) *spanLog {
	l := &spanLog{workload: workload, epoch: time.Now()}
	l.spans = append(l.spans, span{ID: 1, Workload: workload, Layer: "benchmark", Op: "run"})
	return l
}

// begin opens a span under parent and returns its id; end closes it.
func (l *spanLog) begin(parent int, layer, op string) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Workload: l.workload, Layer: layer, Op: op,
		StartNS: int64(time.Since(l.epoch)),
	})
	return id
}

func (l *spanLog) end(id int, counts map[string]int64) {
	s := &l.spans[id-1]
	s.EndNS = int64(time.Since(l.epoch))
	s.Counts = counts
}

func (l *spanLog) op(parent int, kind opKind, start, end time.Time, values int) {
	l.ops = append(l.ops, opSpan{
		parent: parent, kind: kind,
		start: int64(start.Sub(l.epoch)), end: int64(end.Sub(l.epoch)), values: values,
	})
}

var opNames = [...]string{opRead: "query", opInsert: "insert", opDelete: "delete"}

// write stores the spans as JSON lines: structural spans first, then the
// per-operation spans, whose layer is their parent pass's.
func (l *spanLog) write(path string) error {
	l.end(1, map[string]int64{"spans": int64(len(l.spans) + len(l.ops))})
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	for i, o := range l.ops {
		if _, err := fmt.Fprintf(w,
			`{"id":%d,"parent":%d,"workload":%q,"layer":%q,"op":%q,"start_ns":%d,"end_ns":%d,"counts":{"values":%d}}`+"\n",
			len(l.spans)+i+1, o.parent, l.workload, l.spans[o.parent-1].Layer, opNames[o.kind], o.start, o.end, o.values); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer carries one traced run's state through the ladder and the probes.
type tracer struct {
	cfg     config
	w       workloadSpec
	log     *spanLog
	fails   *failLog
	data    []int64
	scratch []int64
	warm    []op
	block   []op
	budget  time.Duration // timed passes per rung
	// The write probe's ops: the mixed_rw cycle in miniature, one client
	// owning the whole domain.
	probeWarm, probeBlock []op

	rungNS   map[string]float64 // mean read latency per rung, median over passes
	metrics  map[string]float64
	counts   map[string]int64
	attempts int64
	failures int64
}

// Passes per rung: at least one, and no more than these however fast the
// rung is — past that the median no longer moves.
const (
	maxWarmPasses = 11
	maxColdPasses = 4
)

// runTraced climbs the whole ladder on the workload's own ops with one
// client, then runs the fixed probes, and reports every per-layer metric.
// Nothing end to end is taken from this run.
func runTraced(cfg config, w workloadSpec) (*result, error) {
	w = cfg.scaled(w)
	tr := &tracer{
		cfg: cfg, w: w, log: newSpanLog(w.Name), fails: &failLog{w: cfg.log},
		data:    crackdb.MakeData(cfg.n, cfg.seed),
		budget:  time.Duration(cfg.seconds / 30 * float64(time.Second)),
		rungNS:  map[string]float64{},
		metrics: map[string]float64{},
		counts:  map[string]int64{},
	}
	tr.scratch = make([]int64, len(tr.data))
	tr.warm, tr.block = w.gen(genParams{n: cfg.n, seed: cfg.seed, q: w.q, client: 0, clients: w.clients})
	tr.probeWarm, tr.probeBlock = genMixed(genParams{n: cfg.n, seed: cfg.seed + 0x5eed, q: 1000, client: 0, clients: 1})

	for _, r := range ladder {
		if err := tr.climb(r); err != nil {
			return nil, fmt.Errorf("%s: rung %s: %w", w.Name, r.name, err)
		}
	}
	for _, r := range ladder {
		if r.self == "" {
			continue
		}
		self := tr.rungNS[r.name] - tr.rungNS[r.below]
		if r.wire {
			self /= 1e3
		}
		tr.metrics[r.self] = self
	}
	tr.metrics["core.ns_per_query"] = tr.rungNS["core"]
	tr.metrics["cluster.us_per_1k_values"] -= tr.metrics["server.us_per_1k_values"]
	tr.metrics["cluster.split_query_ratio"] = splitRatio(tr.block, cfg.n/2)
	if err := tr.groupCommitProbe(); err != nil {
		return nil, err
	}
	tr.kernelProbe()
	tr.cindexProbe()

	if cfg.outDir != "" {
		if err := tr.log.write(filepath.Join(cfg.outDir, "trace-"+w.Name+".jsonl")); err != nil {
			return nil, err
		}
	}
	res := &result{Workload: w.Name, Seed: cfg.seed, Attempted: tr.attempts, Failed: tr.failures,
		Metrics: map[string]measured{}, Counts: tr.counts}
	for _, m := range perLayer {
		v, ok := tr.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: traced run produced no %s", w.Name, m.Name)
		}
		res.Metrics[m.Name] = measured{Value: v, Of: summary{Median: v, Q1: v, Q3: v, N: 1}}
	}
	return res, nil
}

// newClient is a fresh single client for one stack.
func (tr *tracer) newClient(where string) *client {
	return &client{where: tr.w.Name + "/" + where, n: tr.cfg.n, every: 1, inject: tr.cfg.inject, fails: tr.fails}
}

func (tr *tracer) collect(c *client) {
	tr.attempts += c.attempted
	tr.failures += c.failed
}

// fresh builds rung name over a fresh copy of the data. Every build uses the
// run's seed for the algorithm too, so a cold rung's passes — and the same
// pass on the rung below — crack at the same pivots.
func (tr *tracer) fresh(name string, parent int) (target, error) {
	id := tr.log.begin(parent, name, "build")
	defer tr.log.end(id, nil)
	copy(tr.scratch, tr.data)
	return buildRung(name, stack{values: tr.scratch, n: tr.cfg.n, dataSeed: tr.cfg.seed, algoSeed: tr.cfg.seed})
}

// pass replays the block once and returns the wall time per op. With traced
// set every op is timed, and with keep also kept as a span (a rung's first
// pass: more would only repeat it); otherwise only the whole pass is timed.
func (tr *tracer) pass(t target, c *client, parent int, layer string, traced, keep bool) (perOpNS float64) {
	c.resetSamples()
	c.every, c.spans = 1<<30, nil
	if traced {
		c.every = 1
		c.span = tr.log.begin(parent, layer, "pass")
		if keep {
			c.spans = tr.log
		}
	}
	before := c.attempted
	start := time.Now()
	c.run(t, tr.block, 1)
	wall := time.Since(start)
	if traced {
		tr.log.end(c.span, map[string]int64{"ops": c.attempted - before, "failed_total": c.failed})
	}
	return float64(wall) / float64(max(c.attempted-before, 1))
}

// climb measures one rung: build it (cold workloads: once per pass), warm
// it, replay the block in traced passes until the rung's budget is used,
// and run the probes that need this rung warm. On the workload's own top
// rung untraced passes alternate with the traced ones; their difference is
// the tracing overhead.
func (tr *tracer) climb(r rung) error {
	rungSpan := tr.log.begin(1, r.name, "rung")
	top := r.name == tr.w.rung
	var readNS, tracedNS, plainNS []float64
	var t target
	var c *client
	maxPasses := maxWarmPasses
	if tr.w.cold {
		maxPasses = maxColdPasses
	}
	begin := time.Now()
	for p := 0; p < maxPasses && (p == 0 || time.Since(begin) < tr.budget); p++ {
		if p == 0 || tr.w.cold {
			if t != nil {
				t.close()
				tr.collect(c)
			}
			var err error
			if t, err = tr.fresh(r.name, rungSpan); err != nil {
				return err
			}
			c = tr.newClient(r.name)
			if !tr.w.cold {
				id := tr.log.begin(rungSpan, r.name, "warm")
				c.every = 1 << 30
				c.run(t, tr.warm, 1)
				tr.log.end(id, map[string]int64{"ops": c.attempted})
				begin = time.Now() // the budget buys timed passes, not warm-up
			}
		}
		var base layerCounts
		if p == 0 {
			base = countsOf(t)
		}
		tracedNS = append(tracedNS, tr.pass(t, c, rungSpan, r.name, true, p == 0))
		readNS = append(readNS, meanNS(c.readLat))
		if p == 0 {
			tr.firstPassCounts(t, c, base)
		}
		if top {
			if tr.w.cold {
				t.close()
				tr.collect(c)
				var err error
				if t, err = tr.fresh(r.name, rungSpan); err != nil {
					return err
				}
				c = tr.newClient(r.name)
			}
			plainNS = append(plainNS, tr.pass(t, c, rungSpan, r.name, false, false))
		}
	}
	tr.rungNS[r.name] = median(readNS)
	if top {
		tr.metrics["trace_overhead_pct"] = (median(tracedNS) - median(plainNS)) / median(plainNS) * 100
	}
	err := tr.probes(r, t, c, rungSpan)
	t.close()
	tr.collect(c)
	tr.log.end(rungSpan, map[string]int64{"passes": int64(len(readNS))})
	return err
}

// layerCounts are the counters a layer keeps itself.
type layerCounts struct {
	touched, swaps, queries int64
	cracks                  int
	reads, writes           int64 // exec: queries answered under the shared / the exclusive lock
}

func countsOf(t target) (lc layerCounts) {
	switch t := t.(type) {
	case *coreTarget:
		st := t.ix.Stats()
		lc.touched, lc.swaps, lc.queries, lc.cracks = st.Touched, st.Swaps, st.Queries, st.Cracks
	case *execTarget:
		lc.reads, lc.writes = t.x.PathStats()
	}
	return lc
}

// firstPassCounts reports the layers' own counters over the first traced
// pass — a fixed stretch of the op sequence, so the core counts repeat
// exactly for a seed — and the cold first query.
func (tr *tracer) firstPassCounts(t target, c *client, base layerCounts) {
	now := countsOf(t)
	switch t.(type) {
	case *coreTarget:
		touched, swaps, queries := now.touched-base.touched, now.swaps-base.swaps, now.queries-base.queries
		tr.counts["core.touched"], tr.counts["core.swaps"] = touched, swaps
		tr.counts["core.queries"], tr.counts["core.cracks"] = queries, int64(now.cracks)
		tr.metrics["core.touched_per_query"] = float64(touched) / float64(max(queries, 1))
		tr.metrics["core.swaps_per_query"] = float64(swaps) / float64(max(queries, 1))
		tr.metrics["core.cracks"] = float64(now.cracks)
		// The first op a fresh core index saw — the cold pass's query 1,
		// or the warm-up's — is the paper's first-query cost.
		tr.metrics["core.first_query_ms"] = c.firstOp.Seconds() * 1e3
	case *execTarget:
		reads, writes := now.reads-base.reads, now.writes-base.writes
		tr.metrics["exec.shared_path_ratio"] = float64(reads) / float64(max(reads+writes, 1))
	}
}

func splitRatio(block []op, boundary int64) float64 {
	var reads, split int
	for _, o := range block {
		if o.kind != opRead {
			continue
		}
		reads++
		if o.lo < boundary && o.hi > boundary {
			split++
		}
	}
	return float64(split) / float64(max(reads, 1))
}
