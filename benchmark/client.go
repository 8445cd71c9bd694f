package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// failLog prints the first failures with their op index and keeps quiet
// after that; the counts live on the clients.
type failLog struct {
	mu      sync.Mutex
	w       io.Writer
	printed int
}

const maxPrintedFailures = 10

func (l *failLog) report(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.printed < maxPrintedFailures {
		fmt.Fprintf(l.w, "FAIL "+format+"\n", args...)
	}
	l.printed++
}

// client is one closed-loop caller: it issues its next op only after the
// previous one returned, checks every answer against the oracle, and keeps
// its latency samples.
type client struct {
	id     int
	where  string // workload/rung, for failure messages
	n      int64  // size of the base permutation
	model  extras
	buf    []int64
	every  int // sample every k-th op's latency; 1 = all
	inject int // tests only: misread every inject-th answer

	readLat, writeLat []int64 // ns; reset by the caller between repetitions
	attempted, failed int64
	opIndex           int64
	firstOp           time.Duration // latency of the very first op this client issued

	fails *failLog
	spans *spanLog // nil unless tracing
	span  int      // parent span for op spans
}

func (c *client) fail(o op, format string, args ...any) {
	c.failed++
	c.fails.report("%s client=%d op=%d kind=%d [%d,%d): %s",
		c.where, c.id, c.opIndex, o.kind, o.lo, o.hi, fmt.Sprintf(format, args...))
}

// run replays ops passes times against t. Writes are skipped on rungs that
// take none.
func (c *client) run(t target, ops []op, passes int) {
	for p := 0; p < passes; p++ {
		for i, o := range ops {
			timed := c.every <= 1 || i%c.every == 0 || c.opIndex == 0
			var start time.Time
			if timed {
				start = time.Now()
			}
			var err error
			switch o.kind {
			case opRead:
				c.buf, err = t.query(o.lo, o.hi, c.buf[:0])
			case opInsert:
				err = t.insert(o.lo)
			case opDelete:
				err = t.remove(o.lo)
			}
			if errors.Is(err, errReadOnly) {
				continue
			}
			if timed {
				end := time.Now()
				d := end.Sub(start)
				if c.opIndex == 0 {
					c.firstOp = d
				}
				if o.kind == opRead {
					c.readLat = append(c.readLat, int64(d))
				} else {
					c.writeLat = append(c.writeLat, int64(d))
				}
				if c.spans != nil {
					c.spans.op(c.span, o.kind, start, end, len(c.buf))
				}
			}
			c.check(o, err)
			c.opIndex++
		}
	}
}

// check compares one completed op with the model. An error, a refusal (429
// arrives as an error) and a mismatch all count as failed.
func (c *client) check(o op, err error) {
	c.attempted++
	if err != nil {
		c.fail(o, "error: %v", err)
		return
	}
	switch o.kind {
	case opInsert:
		c.model.add(o.lo)
	case opDelete:
		if !c.model.remove(o.lo) {
			c.fail(o, "benchmark deleted a value it never inserted")
		}
	case opRead:
		c.checkRead(o, c.buf)
	}
}

func (c *client) checkRead(o op, vals []int64) {
	var sum int64
	for _, v := range vals {
		sum += v
	}
	if c.inject > 0 && c.attempted%int64(c.inject) == 0 {
		sum++
	}
	wantCount, wantSum := permOracle(o.lo, o.hi, c.n)
	xc, xs := c.model.within(o.lo, o.hi)
	wantCount, wantSum = wantCount+xc, wantSum+xs
	if int64(len(vals)) != wantCount || sum != wantSum {
		c.fail(o, "got count=%d sum=%d, oracle count=%d sum=%d", len(vals), sum, wantCount, wantSum)
	}
}

// verifyRegion reads the client's whole region once: with the per-read
// checks it proves every acknowledged write was applied exactly once.
func (c *client) verifyRegion(t target, lo, hi int64) {
	vals, err := t.query(lo, hi, nil)
	o := op{kind: opRead, lo: lo, hi: hi}
	c.attempted++
	if err != nil {
		c.fail(o, "error: %v", err)
		return
	}
	c.checkRead(o, vals)
}

func (c *client) resetSamples() {
	c.readLat, c.writeLat = c.readLat[:0], c.writeLat[:0]
}

// runClients starts every client on its block at once and returns the wall
// and process CPU time from the start signal to the last client's return.
func runClients(t target, clients []*client, blocks [][]op, passes int) (wall, cpu time.Duration) {
	var wg sync.WaitGroup
	startGate := make(chan struct{})
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, ops []op) {
			defer wg.Done()
			<-startGate
			c.run(t, ops, passes)
		}(c, blocks[i])
	}
	cpu0 := cpuTime()
	begin := time.Now()
	close(startGate)
	wg.Wait()
	return time.Since(begin), cpuTime() - cpu0
}
