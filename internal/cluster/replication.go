package cluster

// Replication: every route's replicas hold identical copies of its
// range, updates ack against the whole live set, and a replica that
// misses an acked op leaves the read set until catch-up proves it holds
// everything it acked for.
//
// The no-lost-ack argument, in full:
//
//   - An update is acknowledged iff at least one live replica applied
//     it AND every live replica that did not apply it provably did not
//     (connection refused, fast-reject status, open circuit — see
//     client.ProvablyNotApplied). Those misses are journaled on the
//     missing replica, which is marked out of the read set in the same
//     critical section.
//   - An ambiguous failure (timeout mid-request, connection reset) may
//     or may not have reached the replica's index, so neither "journal
//     it" nor "ignore it" is safe — replaying could double-apply, and
//     skipping could lose it. The replica is marked for resync: catch-up
//     discards its state entirely and re-seeds it from a live peer's
//     snapshot, which by construction holds exactly the acked history.
//   - If NO replica acks, the op is not acknowledged and nothing is
//     journaled — the client saw the failure, and journaling would
//     double-apply the op when the client retries. When every failure
//     was provably-not-applied the caller gets a retryable 503.
//   - Catch-up replays the journal (or re-seeds) with updates frozen
//     (updMu write side), so nothing can slip between the last replayed
//     op and the replica rejoining the read set.
//
// Reads never consult an out replica, so the invariant clients observe
// is simple: anything acked is readable, on every replica serving
// reads, immediately.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster/client"
	"repro/internal/server"
)

// journalOp is one acked update a replica provably missed.
type journalOp struct {
	insert bool
	values []int64
}

// maxJournalOps bounds the per-replica journal. Past it, replaying is
// slower than re-seeding anyway; the replica flips to resync and the
// log is dropped.
const maxJournalOps = 4096

// addJournal records an acked op this replica provably missed and takes
// the replica out of the read set, in one critical section — the moment
// a replica's state diverges from the acked history is the moment reads
// stop seeing it.
func (n *node) addJournal(insert bool, values []int64) {
	n.jmu.Lock()
	defer n.jmu.Unlock()
	n.out.Store(true)
	if n.resync.Load() {
		return // a full re-seed supersedes the op log
	}
	if len(n.journal) >= maxJournalOps {
		n.resync.Store(true)
		n.journal = nil
		return
	}
	n.journal = append(n.journal, journalOp{insert: insert, values: append([]int64(nil), values...)})
}

func (n *node) journalLen() int {
	n.jmu.Lock()
	defer n.jmu.Unlock()
	return len(n.journal)
}

// applyReplicated applies one update batch to every replica of rt,
// enforcing the ack rule above. Caller holds updMu.RLock. Returns the
// max pending depth among the replicas that acked.
func (c *Coordinator) applyReplicated(ctx context.Context, rt *route, vals []int64, insert bool) (int, error) {
	var missed []*node  // provably did not apply (incl. already-out replicas)
	var suspect []*node // ambiguous failure: may or may not have applied
	okCount, pending := 0, 0
	var lastErr error
	for _, n := range rt.replicas {
		if n.drained.Load() {
			continue // a drained node never rejoins this route
		}
		if n.out.Load() {
			missed = append(missed, n)
			continue
		}
		var p int
		var err error
		if insert {
			p, err = n.Insert(ctx, vals...)
		} else {
			p, err = n.Delete(ctx, vals...)
		}
		if err == nil {
			okCount++
			if p > pending {
				pending = p
			}
			continue
		}
		lastErr = fmt.Errorf("replica %s: %w", n.URL(), err)
		if client.ProvablyNotApplied(err) {
			missed = append(missed, n)
		} else {
			suspect = append(suspect, n)
		}
	}
	// A suspect replica may hold a half-applied op the acked history
	// doesn't — journal replay can't reconcile that, only a full
	// re-seed can. Out of the read set either way.
	for _, n := range suspect {
		n.resync.Store(true)
		n.out.Store(true)
	}
	if okCount == 0 {
		// Not acknowledged. The provably-missed replicas are consistent
		// with that (they did not apply it), so nothing is journaled —
		// journaling here would double-apply the op when the client
		// retries after the error we are about to return.
		if lastErr == nil {
			lastErr = errors.New("no live replicas")
		}
		if len(suspect) == 0 {
			return 0, &rangeUnavailableError{lo: rt.lo, hi: rt.hi, cause: lastErr}
		}
		return 0, lastErr
	}
	for _, n := range missed {
		n.addJournal(insert, vals)
	}
	return pending, nil
}

// catchUp brings an out replica back into the read set: with updates
// frozen, replay its journal (or re-seed it from a live peer when the
// journal is insufficient), then clear the exclusion. Any failure
// leaves the replica out with resync set, so the next attempt re-seeds.
func (c *Coordinator) catchUp(ctx context.Context, n *node) error {
	defer n.recovering.Store(false)
	c.migMu.Lock()
	defer c.migMu.Unlock()
	if n.drained.Load() || !n.out.Load() {
		return nil // raced with another catch-up, or a drain took the ranges away
	}
	// We are here because the node is believed back (probe passed or an
	// operator asked); drop any breaker state left from the outage so the
	// catch-up traffic itself is not rejected.
	n.Backend.ResetCircuit()
	// Freeze updates: an op acked while we replay would be missed by
	// both the drained journal and the replayed state.
	c.updMu.Lock()
	defer c.updMu.Unlock()
	n.jmu.Lock()
	ops := n.journal
	n.journal = nil
	resync := n.resync.Load()
	n.jmu.Unlock()
	var err error
	if resync {
		err = c.reseed(ctx, n)
	} else if err = replayJournal(ctx, n, ops); err != nil {
		// A partial replay is fine to overwrite wholesale.
		err = c.reseed(ctx, n)
	}
	if err != nil {
		n.resync.Store(true)
		return fmt.Errorf("cluster: catch-up %s: %w", n.URL(), err)
	}
	n.resync.Store(false)
	n.out.Store(false)
	c.catchups.Add(1)
	if h, herr := n.Health(ctx); herr == nil {
		n.last.Store(&h)
		n.healthy.Store(true)
	}
	return nil
}

// replayJournal applies the missed ops in ack order, coalescing
// consecutive same-kind ops into one batch per round trip.
func replayJournal(ctx context.Context, n *node, ops []journalOp) error {
	for i := 0; i < len(ops); {
		insert := ops[i].insert
		var batch []int64
		for ; i < len(ops) && ops[i].insert == insert; i++ {
			batch = append(batch, ops[i].values...)
		}
		var err error
		if insert {
			_, err = n.Insert(ctx, batch...)
		} else {
			_, err = n.Delete(ctx, batch...)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// reseed rebuilds an out replica from scratch: every range it belongs to
// is copied from a live, healthy peer and restored as the node's whole
// state. Runs under updMu, so the peers' snapshots are exactly the acked
// history.
func (c *Coordinator) reseed(ctx context.Context, n *node) error {
	routes := *c.routes.Load()
	var copies []rangeCopy
	for i := range routes {
		rt := &routes[i]
		if !rt.has(n) {
			continue
		}
		var peer *node
		for _, p := range rt.replicas {
			if p != n && p.live() && p.healthy.Load() {
				peer = p
				break
			}
		}
		if peer == nil {
			return fmt.Errorf("no live peer holds [%d, %d)", rt.lo, rt.hi)
		}
		copies = append(copies, rangeCopy{src: peer, lo: rt.lo, hi: rt.hi})
	}
	if len(copies) == 0 {
		return nil // the node no longer belongs to any route; nothing to hold
	}
	_, err := c.transfer(ctx, n, copies)
	return err
}

// Recover synchronously catches up the out replica at backendURL —
// journal replay or re-seed, then rejoin the read set. The health loop
// does this automatically when the node answers probes again; Recover
// is the operator's "now, and tell me if it worked" handle.
func (c *Coordinator) Recover(ctx context.Context, backendURL string) error {
	n := c.findNode(backendURL)
	if n == nil {
		return fmt.Errorf("cluster: unknown backend %s", backendURL)
	}
	if n.drained.Load() {
		return fmt.Errorf("cluster: %s is drained; re-admit it with /v1/replicate", backendURL)
	}
	if !n.out.Load() {
		return nil
	}
	return c.catchUp(ctx, n)
}

// ReplicateRequest is the body of POST /v1/replicate: make the fresh
// node at To an additional replica of the existing route [Lo, Hi).
type ReplicateRequest struct {
	To string `json:"to"`
	Lo int64  `json:"lo"`
	Hi int64  `json:"hi"`
}

// ReplicateResponse reports a completed replica bootstrap.
type ReplicateResponse struct {
	To string `json:"to"`
	Lo int64  `json:"lo"`
	Hi int64  `json:"hi"`
	// Rows/Pieces/Pending describe the restored copy — non-zero Pieces
	// means the new replica starts warm with the source's refinement.
	Rows      int   `json:"rows"`
	Pieces    int   `json:"pieces"`
	Pending   int   `json:"pending"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// AddReplica bootstraps the node at toURL as an additional replica of
// the route exactly spanning [lo, hi): the migration protocol minus the
// shrink — capture from a live replica, restore into the joiner, and
// append it to the replica set. Restore replaces the joiner's whole
// state, so the joiner must not already serve other ranges.
func (c *Coordinator) AddReplica(ctx context.Context, toURL string, lo, hi int64) (ReplicateResponse, error) {
	c.migMu.Lock()
	defer c.migMu.Unlock()
	start := time.Now()
	routes := *c.routes.Load()
	ri := -1
	for i := range routes {
		if routes[i].lo == lo && routes[i].hi == hi {
			ri = i
			break
		}
	}
	if ri < 0 {
		return ReplicateResponse{}, fmt.Errorf("cluster: replicate: no route is exactly [%d, %d); replicate whole ranges", lo, hi)
	}
	joiner := c.admitNode(toURL)
	for i := range routes {
		if routes[i].has(joiner) {
			return ReplicateResponse{}, fmt.Errorf("cluster: replicate: %s already serves [%d, %d); use a fresh node", toURL, routes[i].lo, routes[i].hi)
		}
	}
	if _, err := probeUntilReady(ctx, joiner); err != nil {
		return ReplicateResponse{}, fmt.Errorf("cluster: joiner %s: %w", toURL, err)
	}
	src := firstServing(routes[ri].replicas)
	if src == nil {
		return ReplicateResponse{}, fmt.Errorf("cluster: replicate: no live replica of [%d, %d) to capture from", lo, hi)
	}

	// Freeze updates across capture+restore so the new replica's state
	// is exactly the acked history at join time.
	c.updMu.Lock()
	defer c.updMu.Unlock()

	restored, err := c.transfer(ctx, joiner, []rangeCopy{{src: src, lo: lo, hi: hi}})
	if err != nil {
		return ReplicateResponse{}, fmt.Errorf("cluster: %w", err)
	}

	next := append([]route(nil), routes...)
	next[ri].replicas = append(append([]*node(nil), routes[ri].replicas...), joiner)
	if err := c.install(ctx, next, joiner); err != nil {
		return ReplicateResponse{}, err
	}
	c.replications.Add(1)
	return ReplicateResponse{
		To: toURL, Lo: lo, Hi: hi,
		Rows: restored.Rows, Pieces: restored.Pieces, Pending: restored.Pending,
		ElapsedMS: time.Since(start).Milliseconds(),
	}, nil
}

func (c *Coordinator) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var req ReplicateRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	if req.To == "" {
		server.WriteError(w, http.StatusBadRequest, "bad_request", "need \"to\": the joining node's URL")
		return
	}
	resp, err := c.AddReplica(r.Context(), req.To, req.Lo, req.Hi)
	if err != nil {
		status, code := http.StatusBadGateway, "replication_failed"
		if strings.Contains(err.Error(), "replicate:") {
			status, code = http.StatusBadRequest, "bad_request"
		}
		server.WriteError(w, status, code, err.Error())
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleRecover(w http.ResponseWriter, r *http.Request) {
	backend, ok := backendParam(w, r)
	if !ok {
		return
	}
	if err := c.Recover(r.Context(), backend); err != nil {
		server.WriteError(w, http.StatusBadGateway, "recovery_failed", err.Error())
		return
	}
	server.WriteJSON(w, http.StatusOK, struct {
		Backend string `json:"backend"`
		Status  string `json:"status"`
	}{Backend: backend, Status: "ok"})
}

// backendParam extracts the target backend URL from ?backend= or a
// {"backend": ...} body.
func backendParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	if b := r.URL.Query().Get("backend"); b != "" {
		return b, true
	}
	var req struct {
		Backend string `json:"backend"`
	}
	if !server.DecodeBody(w, r, &req) {
		return "", false
	}
	if req.Backend == "" {
		server.WriteError(w, http.StatusBadRequest, "bad_request", "need ?backend= or {\"backend\": ...}")
		return "", false
	}
	return req.Backend, true
}
