package cluster

// The chaos suite: replication's promises checked under injected
// faults. faultproxy sits between the coordinator and each backend, so
// backends can be killed, revived and made flaky while the data
// underneath stays oracle-checkable.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/client"
	"repro/internal/cluster/faultproxy"
	"repro/internal/xrand"
)

// startReplicatedCluster boots ranges×replicas local nodes — replica
// sets share a slice of [0, testRows) — each behind a faultproxy, plus
// a coordinator that requires the full replica count. proxies[r][k] is
// replica k of range r.
func startReplicatedCluster(t *testing.T, ranges, replicas int, ccfg Config) (*Coordinator, [][]*faultproxy.Proxy) {
	t.Helper()
	ccfg.Replicas = replicas
	proxies := make([][]*faultproxy.Proxy, ranges)
	var urls []string
	for r := 0; r < ranges; r++ {
		lo := int64(testRows) * int64(r) / int64(ranges)
		hi := int64(testRows) * int64(r+1) / int64(ranges)
		for k := 0; k < replicas; k++ {
			nd, err := StartLocalNode(LocalNodeConfig{
				N: testRows, Seed: 7, Lo: lo, Hi: hi, Algorithm: "dd1r",
			})
			if err != nil {
				t.Fatalf("range %d replica %d: %v", r, k, err)
			}
			t.Cleanup(nd.Close)
			p, err := faultproxy.New(nd.URL, uint64(r*10+k+1))
			if err != nil {
				t.Fatalf("faultproxy for range %d replica %d: %v", r, k, err)
			}
			t.Cleanup(p.Close)
			proxies[r] = append(proxies[r], p)
			urls = append(urls, p.URL())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coord, err := New(ctx, urls, ccfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	return coord, proxies
}

// postJSON sends one request through the handler without involving t,
// so storm workers can call it from goroutines.
func postJSON(h http.Handler, method, path, body string) (int, []byte) {
	var rd *bytes.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// aggQuery scatter-gathers one aggregate range query, returning its
// (count, sum).
func aggQuery(h http.Handler, lo, hi int64) (int64, int64, error) {
	code, body := postJSON(h, "POST", "/v1/query",
		fmt.Sprintf(`{"lo":%d,"hi":%d,"aggregate":true}`, lo, hi))
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("query [%d, %d): status %d: %s", lo, hi, code, body)
	}
	var resp struct {
		Results []struct {
			Count int   `json:"count"`
			Sum   int64 `json:"sum"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != 1 {
		return 0, 0, fmt.Errorf("query [%d, %d): bad body %s", lo, hi, body)
	}
	return int64(resp.Results[0].Count), resp.Results[0].Sum, nil
}

// TestReplicatedClusterSurvivesBackendKill is the headline chaos
// property: with 2 replicas per range, killing a backend in the middle
// of a mixed query/insert/delete storm costs nothing visible — zero
// failed requests, every answer oracle-correct, and after the killed
// node is revived, caught up and its *sibling* killed, every
// acknowledged update is still readable from the recovered copy alone
// (nothing lost, nothing doubled, no stale clamp leaks).
func TestReplicatedClusterSurvivesBackendKill(t *testing.T) {
	coord, proxies := startReplicatedCluster(t, 2, 2, Config{
		HealthInterval: 50 * time.Millisecond,
		Client: client.Config{
			Timeout: 2 * time.Second, Retries: 1, Backoff: 5 * time.Millisecond,
			HedgeDelay: 25 * time.Millisecond,
		},
	})
	h := coord.Handler()

	const (
		queryWorkers  = 3
		queriesPer    = 120
		insertWorkers = 2
		insertsPer    = 240
	)
	var (
		mu       sync.Mutex
		failures []string
		wantCnt  int64
		wantSum  int64
	)
	fail := func(s string) {
		mu.Lock()
		if len(failures) < 8 {
			failures = append(failures, s)
		}
		mu.Unlock()
	}
	var ackedInserts atomic.Int64
	var wg sync.WaitGroup

	// Query workers: random aggregate ranges inside [0, testRows),
	// checked against the closed-form oracle on every answer. Inserts
	// only add values >= testRows, so the base oracle holds throughout.
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(1000 + w))
			for i := 0; i < queriesPer; i++ {
				a := rng.Int63n(testRows)
				b := a + 1 + rng.Int63n(testRows-a)
				cnt, sum, err := aggQuery(h, a, b)
				if err != nil {
					fail(err.Error())
					continue
				}
				wc, ws := oracle(a, b, testRows)
				if cnt != wc || sum != ws {
					fail(fmt.Sprintf("query [%d, %d): got (%d, %d), oracle (%d, %d)", a, b, cnt, sum, wc, ws))
				}
			}
		}(w)
	}
	// Insert workers: unique values >= testRows (they all land in the
	// top range, whose replica we kill), every 4th acked value deleted
	// again. Each worker tracks exactly what it was acked for.
	for w := 0; w < insertWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var cnt, sum int64
			for i := 0; i < insertsPer; i++ {
				v := int64(testRows) + int64(w)*1_000_000 + int64(i)
				code, body := postJSON(h, "POST", "/v1/insert", fmt.Sprintf(`{"values":[%d]}`, v))
				if code != http.StatusOK {
					fail(fmt.Sprintf("insert %d: status %d: %s", v, code, body))
					continue
				}
				ackedInserts.Add(1)
				cnt++
				sum += v
				if i%4 == 3 {
					code, body := postJSON(h, "POST", "/v1/delete", fmt.Sprintf(`{"values":[%d]}`, v))
					if code != http.StatusOK {
						fail(fmt.Sprintf("delete %d: status %d: %s", v, code, body))
						continue
					}
					cnt--
					sum -= v
				}
			}
			mu.Lock()
			wantCnt += cnt
			wantSum += sum
			mu.Unlock()
		}(w)
	}
	// The controller: once the storm is demonstrably mid-flight, kill
	// one replica of the top range. Everything after this point runs
	// against a cluster with a dead backend.
	killed := proxies[1][1]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ackedInserts.Load() < 60 {
			time.Sleep(2 * time.Millisecond)
		}
		killed.Kill()
	}()
	wg.Wait()
	if len(failures) > 0 {
		t.Fatalf("storm saw %d failed/wrong requests despite replication; first: %v", len(failures), failures)
	}

	verify := func(stage string) {
		t.Helper()
		cnt, sum, err := aggQuery(h, testRows, maxInt64)
		if err != nil {
			t.Fatalf("%s: readback: %v", stage, err)
		}
		if cnt != wantCnt || sum != wantSum {
			t.Fatalf("%s: acked updates (count %d, sum %d) read back as (count %d, sum %d)",
				stage, wantCnt, wantSum, cnt, sum)
		}
		queryRange(t, h, 0, testRows)
	}
	verify("after kill")

	// Revive the killed replica and catch it up — journal replay or
	// re-seed, the coordinator decides — then kill its sibling. Every
	// acked update must now be served by the recovered copy alone: the
	// sharpest possible "no lost ack" check.
	if err := killed.Revive(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Recover(ctx, killed.URL()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	proxies[1][0].Kill()
	verify("after recovery and sibling kill")
}

// TestRecoverReplaysOrReseeds pins which catch-up path a miss leads to.
// A provable miss (an injected 503 on every insert) is journaled and
// Recover replays it; an ambiguous one (an insert that never answers)
// marks the replica for a full re-seed from its sibling. Either way the
// recovered copy alone then serves every acked update.
func TestRecoverReplaysOrReseeds(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rule     faultproxy.Rule
		reseeded bool
	}{
		{"replay", faultproxy.Rule{Mode: faultproxy.Flaky, Rate: 1}, false},
		{"reseed", faultproxy.Rule{Mode: faultproxy.Blackhole}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// No health probes: the test, not the loop, decides when to
			// recover.
			coord, proxies := startReplicatedCluster(t, 1, 2, Config{
				HealthInterval: time.Hour,
				Client: client.Config{
					Timeout: 300 * time.Millisecond, Retries: 1, Backoff: 5 * time.Millisecond,
				},
			})
			h := coord.Handler()
			faulty, sibling := proxies[0][1], proxies[0][0]
			n := coord.findNode(faulty.URL())
			faulty.Set("/v1/insert", tc.rule)

			var wantCnt, wantSum int64
			for i := int64(0); i < 5; i++ {
				v := testRows + 100 + i
				if code, body := postJSON(h, "POST", "/v1/insert", fmt.Sprintf(`{"values":[%d]}`, v)); code != http.StatusOK {
					t.Fatalf("insert %d: status %d: %s", v, code, body)
				}
				wantCnt++
				wantSum += v
			}
			if code, body := postJSON(h, "POST", "/v1/delete", fmt.Sprintf(`{"values":[%d]}`, testRows+102)); code != http.StatusOK {
				t.Fatalf("delete: status %d: %s", code, body)
			}
			wantCnt--
			wantSum -= testRows + 102

			if !n.out.Load() || n.resync.Load() != tc.reseeded {
				t.Fatalf("after the misses: out=%v resync=%v, want out and resync=%v", n.out.Load(), n.resync.Load(), tc.reseeded)
			}
			if !tc.reseeded && n.journalLen() != 6 {
				t.Fatalf("journal holds %d ops, want all 6 missed", n.journalLen())
			}
			faulty.Set("/v1/insert", faultproxy.Rule{})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := coord.Recover(ctx, faulty.URL()); err != nil {
				t.Fatalf("recover: %v", err)
			}
			if n.out.Load() || n.journalLen() != 0 {
				t.Fatalf("after recover: out=%v journal=%d", n.out.Load(), n.journalLen())
			}
			// Only a re-seed restores a snapshot into the node.
			if restored := n.last.Load().Restored; restored != tc.reseeded {
				t.Fatalf("recovered node restored=%v, want %v", restored, tc.reseeded)
			}

			sibling.Kill()
			cnt, sum, err := aggQuery(h, testRows, maxInt64)
			if err != nil {
				t.Fatal(err)
			}
			if cnt != wantCnt || sum != wantSum {
				t.Fatalf("recovered copy reads (count %d, sum %d), acked (count %d, sum %d)", cnt, sum, wantCnt, wantSum)
			}
			queryRange(t, h, 0, testRows)
		})
	}
}

// TestAddReplicaWarm: POST /v1/replicate bootstraps an empty node as a
// second copy of a whole route, warm, and that copy alone serves the
// range once the original dies. Partial ranges and nodes already serving
// a range are refused with 400.
func TestAddReplicaWarm(t *testing.T) {
	coord, nodes := startCluster(t, 2, Config{
		Client: client.Config{Timeout: time.Second, Retries: 1, Backoff: 5 * time.Millisecond},
	})
	h := coord.Handler()
	for i := 0; i < 40; i++ { // warm the top route
		lo := 15_000 + int64(i)*300
		queryRange(t, h, lo, lo+100)
	}
	joiner, err := StartLocalNode(LocalNodeConfig{Algorithm: "dd1r"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(joiner.Close)

	var rep ReplicateResponse
	body := fmt.Sprintf(`{"to":%q,"lo":15000,"hi":%d}`, joiner.URL, maxInt64)
	if code := do(t, h, "POST", "/v1/replicate", body, &rep); code != http.StatusOK {
		t.Fatalf("replicate status %d", code)
	}
	if rep.Rows != 15_000 || rep.Pieces <= 1 {
		t.Fatalf("replica restored %d rows in %d pieces; want 15000 rows, warm", rep.Rows, rep.Pieces)
	}

	nodes[1].Close() // the original copy of the top route
	queryRange(t, h, 15_000, testRows)
	queryRange(t, h, 0, testRows)

	for _, bad := range []string{
		fmt.Sprintf(`{"to":%q,"lo":15000,"hi":20000}`, joiner.URL),          // not a whole route
		fmt.Sprintf(`{"to":%q,"lo":15000,"hi":%d}`, nodes[0].URL, maxInt64), // already serves the bottom
	} {
		if code := do(t, h, "POST", "/v1/replicate", bad, nil); code != http.StatusBadRequest {
			t.Fatalf("replicate %s: status %d, want 400", bad, code)
		}
	}
}

// TestDrainClusterEquivalence: draining nodes out from under a live
// validated workload is invisible — zero failed requests, the drained
// node ends with no routed ranges, and when the drain has to move data
// (last copy), the handoff is warm.
func TestDrainClusterEquivalence(t *testing.T) {
	coord, _ := startReplicatedCluster(t, 3, 2, Config{
		HealthInterval: 50 * time.Millisecond,
		Client: client.Config{
			Timeout: 2 * time.Second, Retries: 1, Backoff: 5 * time.Millisecond,
			HedgeDelay: 25 * time.Millisecond,
		},
	})
	h := coord.Handler()

	var (
		mu       sync.Mutex
		failures []string
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(500 + w))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := rng.Int63n(testRows)
				b := a + 1 + rng.Int63n(testRows-a)
				cnt, sum, err := aggQuery(h, a, b)
				wc, ws := oracle(a, b, testRows)
				mu.Lock()
				if err != nil && len(failures) < 8 {
					failures = append(failures, err.Error())
				} else if err == nil && (cnt != wc || sum != ws) && len(failures) < 8 {
					failures = append(failures, fmt.Sprintf("query [%d, %d): got (%d, %d), want (%d, %d)", a, b, cnt, sum, wc, ws))
				}
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(100 * time.Millisecond) // let the workload warm (and crack) the nodes

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	routes := *coord.routes.Load()
	first := routes[1].replicas[1] // a middle-range replica with a live sibling
	resp, err := coord.Drain(ctx, first.URL())
	if err != nil {
		t.Fatalf("drain (handoff): %v", err)
	}
	if len(resp.Moves) != 1 || resp.Moves[0].Mode != "handoff" {
		t.Fatalf("drain of a replicated node: want one handoff move, got %+v", resp.Moves)
	}

	// Draining the surviving sibling forces a real data move — and it
	// must land warm, carrying the refinement the workload earned.
	second := routes[1].replicas[0]
	resp, err = coord.Drain(ctx, second.URL())
	if err != nil {
		t.Fatalf("drain (migrate): %v", err)
	}
	if len(resp.Moves) != 1 || resp.Moves[0].Mode != "migrate" {
		t.Fatalf("drain of a sole copy: want one migrate move, got %+v", resp.Moves)
	}
	if resp.Moves[0].Pieces < 2 {
		t.Fatalf("migrated range restored cold (pieces = %d); drain must hand off warm", resp.Moves[0].Pieces)
	}

	close(stop)
	wg.Wait()
	if len(failures) > 0 {
		t.Fatalf("workload saw failures across two drains; first: %v", failures)
	}

	// Both drained nodes: zero routed ranges, flagged as draining.
	var ch ClusterHealth
	if code := do(t, h, "GET", "/healthz", "", &ch); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	for _, d := range []string{first.URL(), second.URL()} {
		found := false
		for _, b := range ch.Backends {
			if b.URL == d {
				found = true
				if b.Routed {
					t.Fatalf("drained node %s still routed", d)
				}
				if !b.Draining {
					t.Fatalf("drained node %s not flagged draining", d)
				}
			}
		}
		if !found {
			t.Fatalf("drained node %s missing from /healthz", d)
		}
	}
	for _, rg := range ch.Ranges {
		if rg.Live == 0 {
			t.Fatalf("range [%d, %d) left with no live replicas", rg.Lo, rg.Hi)
		}
	}
	// The whole domain still answers oracle-correct.
	for _, r := range [][2]int64{{0, testRows}, {9_000, 21_000}, {100, 200}} {
		queryRange(t, h, r[0], r[1])
	}
}

// TestReadOnPreSwapTableAfterDrain pins the drain race deterministically:
// a read that loaded the routing table just before a drain's swap must
// still be answered, even when the drained node is its route's only
// replica in that table (the node is up and still holds the data).
func TestReadOnPreSwapTableAfterDrain(t *testing.T) {
	coord, _ := startCluster(t, 2, Config{})
	h := coord.Handler()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	before := coord.routes.Load()
	resp, err := coord.Drain(ctx, (*before)[0].replicas[0].URL())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Moves) != 1 || resp.Moves[0].Mode != "migrate" {
		t.Fatalf("drain of a sole copy: want one migrate move, got %+v", resp.Moves)
	}
	// Put the pre-swap table back: every read now sees exactly what a
	// read that raced the swap saw.
	coord.routes.Store(before)
	queryRange(t, h, 0, testRows)
	if code := do(t, h, "GET", "/v1/stats", "", nil); code != http.StatusOK {
		t.Fatalf("stats on the pre-swap table: status %d", code)
	}
}

// TestUnavailableRangeMapsTo503: a range with no replica able to answer
// is an availability problem, not a gateway mystery — machine-readable
// 503 with code "unavailable_range" and a Retry-After, mirroring the
// server's 429 convention, for reads and writes alike.
func TestUnavailableRangeMapsTo503(t *testing.T) {
	coord, nodes := startCluster(t, 2, Config{
		Client:         client.Config{Timeout: time.Second, Retries: 1, Backoff: 5 * time.Millisecond},
		HealthInterval: 50 * time.Millisecond,
	})
	h := coord.Handler()
	nodes[1].Close() // the top range [15000, 30000) is now unreplicated and dead

	for _, rq := range []struct{ path, body string }{
		{"/v1/query", `{"lo":20000,"hi":21000,"aggregate":true}`},
		{"/v1/insert", `{"values":[20123]}`},
		{"/v1/delete", `{"values":[20123]}`},
	} {
		req := httptest.NewRequest("POST", rq.path, bytes.NewReader([]byte(rq.body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s to dead range: status %d, want 503 (body %s)", rq.path, rec.Code, rec.Body)
		}
		var er struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s: non-JSON error body %q", rq.path, rec.Body)
		}
		if er.Code != "unavailable_range" {
			t.Fatalf("%s: code %q, want \"unavailable_range\"", rq.path, er.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: 503 without Retry-After", rq.path)
		}
	}
	// The live range is untouched by its neighbor's death.
	queryRange(t, h, 100, 9_000)
}

// FuzzReplicaRouting drives the pure routing-table machinery — replica
// kill/revive, drain planning, query clamping — with arbitrary event
// streams and checks the invariants every swap must keep: full-domain
// tiling, no range without a live replica, and clamped spans that
// partition exactly the requested range.
func FuzzReplicaRouting(f *testing.F) {
	f.Add(uint64(2), uint64(7), []byte{0, 3, 1, 3, 2, 3})
	f.Add(uint64(5), uint64(42), []byte{3, 0, 0, 3, 2, 2, 1, 3, 0, 3})
	f.Add(uint64(1), uint64(1), []byte{2, 3, 3})
	f.Fuzz(func(t *testing.T, nRanges, seed uint64, events []byte) {
		rng := xrand.New(seed)
		k := int(nRanges%6) + 1
		// Distinct interior cut points tile the domain into k ranges.
		cutSet := map[int64]bool{}
		for len(cutSet) < k-1 {
			c := int64(rng.Uint64())
			if c == minInt64 || c == maxInt64 {
				continue
			}
			cutSet[c] = true
		}
		cuts := make([]int64, 0, k-1)
		for c := range cutSet {
			cuts = append(cuts, c)
		}
		for i := 0; i < len(cuts); i++ { // tiny insertion sort; k <= 6
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
		var pool []*node
		newNode := func() *node {
			n := &node{}
			n.healthy.Store(true)
			pool = append(pool, n)
			return n
		}
		routes := make([]route, k)
		for i := 0; i < k; i++ {
			lo, hi := minInt64, maxInt64
			if i > 0 {
				lo = cuts[i-1]
			}
			if i < k-1 {
				hi = cuts[i]
			}
			reps := make([]*node, 1+rng.Intn(3))
			for j := range reps {
				reps[j] = newNode()
			}
			routes[i] = route{lo: lo, hi: hi, replicas: reps}
		}
		if err := validateRoutes(routes); err != nil {
			t.Fatalf("initial table invalid: %v", err)
		}
		pick := func(b byte) *node { return pool[int(b)%len(pool)] }
		for ei := 0; ei < len(events); ei++ {
			b := events[ei]
			switch b % 4 {
			case 0: // kill: a replica leaves the read set — unless it is the last live copy (the ack rule forbids that)
				n := pick(b / 4)
				if n.drained.Load() {
					continue
				}
				n.out.Store(true)
				n.healthy.Store(false)
				for i := range routes {
					if routes[i].has(n) && len(routes[i].liveReplicas()) == 0 {
						n.out.Store(false)
						n.healthy.Store(true)
						break
					}
				}
			case 1: // revive: a caught-up replica rejoins
				n := pick(b / 4)
				if n.drained.Load() {
					continue
				}
				n.out.Store(false)
				n.healthy.Store(true)
			case 2: // drain: plan with dropFromRoutes, re-home sole copies
				d := pick(b / 4)
				if d.drained.Load() {
					continue
				}
				next, migrate := dropFromRoutes(routes, d)
				if len(migrate) > 0 {
					var target *node
					for _, n := range pool {
						if n != d && n.live() && n.healthy.Load() {
							target = n
							break
						}
					}
					if target == nil {
						continue // nowhere to drain to; the real Drain refuses too
					}
					for _, i := range migrate {
						next[i].replicas = []*node{target}
					}
				}
				if err := validateRoutes(next); err != nil {
					t.Fatalf("drain plan broke the table: %v", err)
				}
				routes = next
				d.drained.Store(true)
			case 3: // query: clamped spans must partition [lo, hi) exactly
				lo, hi := int64(rng.Uint64()), int64(rng.Uint64())
				if lo > hi {
					lo, hi = hi, lo
				}
				spans := planSpans(routes, lo, hi)
				cursor := lo
				for _, sp := range spans {
					rt := routes[sp.ri]
					if sp.lo < rt.lo || sp.hi > rt.hi {
						t.Fatalf("span [%d, %d) escapes its route [%d, %d)", sp.lo, sp.hi, rt.lo, rt.hi)
					}
					if sp.lo != cursor {
						t.Fatalf("spans not contiguous: gap [%d, %d)", cursor, sp.lo)
					}
					if sp.lo >= sp.hi {
						t.Fatalf("empty span [%d, %d)", sp.lo, sp.hi)
					}
					cursor = sp.hi
				}
				if lo < hi && cursor != hi {
					t.Fatalf("spans cover [%d, %d) of requested [%d, %d)", lo, cursor, lo, hi)
				}
				if lo >= hi && len(spans) != 0 {
					t.Fatalf("empty request produced %d spans", len(spans))
				}
			}
			if err := validateRoutes(routes); err != nil {
				t.Fatalf("event %d (%d) broke the table: %v", ei, b%4, err)
			}
		}
	})
}
