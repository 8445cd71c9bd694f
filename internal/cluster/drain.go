package cluster

// Planned handoff: Drain empties a live node of every range it serves —
// multi-range, unlike Migrate's donor-edge moves — so a rolling restart
// is a routing-table operation, not an incident. Ranges with another
// serving replica are simple handoffs (drop the drained node from the
// set); ranges where the drained node holds the only usable copy are
// migrated — captured from the drained node itself (it is live; that is
// the point of draining rather than crashing) and restored warm into
// the least-loaded surviving node, merged with whatever that node
// already serves.

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/server"
)

// DrainMove is one range's journey out of a drained node.
type DrainMove struct {
	Lo int64  `json:"lo"`
	Hi int64  `json:"hi"`
	To string `json:"to"`
	// Mode is "handoff" when another replica already served the range
	// (To names the new preferred replica), "migrate" when the range had
	// to be copied into To.
	Mode string `json:"mode"`
	// Pieces reports the restored refinement for migrate moves —
	// non-zero means the handoff was warm.
	Pieces int `json:"pieces,omitempty"`
}

// DrainResponse reports a completed drain.
type DrainResponse struct {
	Backend   string      `json:"backend"`
	Moves     []DrainMove `json:"moves"`
	ElapsedMS int64       `json:"elapsed_ms"`
}

// dropFromRoutes plans a drain: remove d from every route's replica
// set. Routes keeping at least one live, probe-healthy replica are
// complete as returned; routes where d was the only usable copy are
// listed in migrate, and the caller must re-home them before the plan
// is valid. Pure — no locks, no I/O — so invariants can be fuzzed.
func dropFromRoutes(routes []route, d *node) (next []route, migrate []int) {
	next = make([]route, len(routes))
	for i := range routes {
		next[i] = routes[i]
		if !routes[i].has(d) {
			continue
		}
		keep := make([]*node, 0, len(routes[i].replicas))
		for _, n := range routes[i].replicas {
			if n != d {
				keep = append(keep, n)
			}
		}
		next[i].replicas = keep
		usable := false
		for _, n := range keep {
			if n.live() && n.healthy.Load() {
				usable = true
				break
			}
		}
		if !usable {
			migrate = append(migrate, i)
		}
	}
	return next, migrate
}

// pickDrainTarget chooses where sole-copy ranges go: the live, healthy,
// not-drained node (other than d) serving the fewest ranges in the
// planned table. Nil when no node qualifies.
func (c *Coordinator) pickDrainTarget(next []route, d *node) *node {
	counts := map[*node]int{}
	for i := range next {
		for _, n := range next[i].replicas {
			counts[n]++
		}
	}
	c.nodesMu.Lock()
	nodes := append([]*node(nil), c.nodes...)
	c.nodesMu.Unlock()
	var best *node
	for _, n := range nodes {
		if n == d || !n.live() || !n.healthy.Load() {
			continue
		}
		if best == nil || counts[n] < counts[best] {
			best = n
		}
	}
	return best
}

// Drain migrates every range served by the backend at backendURL out of
// it: handoff where a live replica remains, warm migrate into the
// least-loaded survivor where the drained node held the only usable
// copy. The node is live throughout (drain is for planned shutdowns);
// updates are frozen for the window, queries keep flowing. On success
// the node serves no ranges, is marked drained, and its own /healthz
// reports draining.
func (c *Coordinator) Drain(ctx context.Context, backendURL string) (DrainResponse, error) {
	c.migMu.Lock()
	defer c.migMu.Unlock()
	start := time.Now()
	d := c.findNode(backendURL)
	if d == nil {
		return DrainResponse{}, fmt.Errorf("cluster: drain: unknown backend %s", backendURL)
	}
	if d.drained.Load() {
		return DrainResponse{}, fmt.Errorf("cluster: drain: %s is already drained", backendURL)
	}
	routes := *c.routes.Load()

	// Freeze updates for the whole plan-capture-swap window, exactly
	// like a migration — an update landing on d after its capture would
	// be lost with the node.
	c.updMu.Lock()
	defer c.updMu.Unlock()

	next, migrateIdx := dropFromRoutes(routes, d)
	var moves []DrainMove
	var receivers []*node
	if len(migrateIdx) > 0 {
		target := c.pickDrainTarget(next, d)
		if target == nil {
			return DrainResponse{}, fmt.Errorf("cluster: drain: no surviving node can take %s's sole-copy ranges", backendURL)
		}
		// Copy the moving ranges from d, and the target's own ranges from
		// the target — /v1/restore replaces its whole state, so everything
		// it must serve afterwards goes in one transfer.
		var copies []rangeCopy
		for _, i := range migrateIdx {
			copies = append(copies, rangeCopy{src: d, lo: routes[i].lo, hi: routes[i].hi})
		}
		for i := range next {
			if next[i].has(target) {
				copies = append(copies, rangeCopy{src: target, lo: next[i].lo, hi: next[i].hi})
			}
		}
		restored, err := c.transfer(ctx, target, copies)
		if err != nil {
			return DrainResponse{}, fmt.Errorf("cluster: drain: %w", err)
		}
		receivers = []*node{target}
		for _, i := range migrateIdx {
			next[i].replicas = []*node{target}
			moves = append(moves, DrainMove{
				Lo: next[i].lo, Hi: next[i].hi, To: target.URL(),
				Mode: "migrate", Pieces: restored.Pieces,
			})
		}
	}
	for i := range routes {
		if !routes[i].has(d) || contains(migrateIdx, i) {
			continue
		}
		to := next[i].replicas[0]
		if s := firstServing(next[i].replicas); s != nil {
			to = s
		}
		moves = append(moves, DrainMove{
			Lo: next[i].lo, Hi: next[i].hi, To: to.URL(), Mode: "handoff",
		})
	}
	if err := c.install(ctx, next, receivers...); err != nil {
		return DrainResponse{}, fmt.Errorf("cluster: drain would break routing: %w", err)
	}
	d.drained.Store(true)
	d.jmu.Lock()
	d.journal = nil
	d.jmu.Unlock()
	c.drains.Add(1)
	// Best-effort bookkeeping: flip the node's own draining flag so its
	// /healthz tells operators it is safe to stop.
	_, _ = d.Backend.Drain(ctx)
	return DrainResponse{
		Backend: backendURL, Moves: moves, ElapsedMS: time.Since(start).Milliseconds(),
	}, nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	backend, ok := backendParam(w, r)
	if !ok {
		return
	}
	resp, err := c.Drain(r.Context(), backend)
	if err != nil {
		status, code := http.StatusBadGateway, "drain_failed"
		if d := c.findNode(backend); d == nil {
			status, code = http.StatusBadRequest, "bad_request"
		}
		server.WriteError(w, status, code, err.Error())
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}
