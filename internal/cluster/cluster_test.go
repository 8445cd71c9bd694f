package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cluster/client"
	"repro/internal/server"
)

const testRows = 30_000

// oracle is the closed-form (count, sum) of the values in [a, b) over a
// permutation of [0, n) — the same identity every other layer validates
// against.
func oracle(a, b, n int64) (count, sum int64) {
	if a < 0 {
		a = 0
	}
	if b > n {
		b = n
	}
	if a >= b {
		return 0, 0
	}
	count = b - a
	sum = (a + b - 1) * count / 2
	return count, sum
}

// startCluster boots `backends` local nodes slicing [0, testRows) evenly
// plus a coordinator over them, all torn down with the test.
func startCluster(t *testing.T, backends int, ccfg Config) (*Coordinator, []*LocalNode) {
	t.Helper()
	var nodes []*LocalNode
	var urls []string
	for i := 0; i < backends; i++ {
		lo := int64(testRows) * int64(i) / int64(backends)
		hi := int64(testRows) * int64(i+1) / int64(backends)
		nd, err := StartLocalNode(LocalNodeConfig{
			N: testRows, Seed: 7, Lo: lo, Hi: hi, Algorithm: "dd1r",
			AuthToken: ccfg.Client.Token,
		})
		if err != nil {
			t.Fatalf("backend %d: %v", i, err)
		}
		t.Cleanup(nd.Close)
		nodes = append(nodes, nd)
		urls = append(urls, nd.URL)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coord, err := New(ctx, urls, ccfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	return coord, nodes
}

// do sends one request through the coordinator's handler and decodes the
// JSON response into out (when non-nil), returning the status code.
func do(t *testing.T, h http.Handler, method, path, body string, out any) int {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body, err)
		}
	}
	return rec.Code
}

// queryRange scatter-gathers [lo, hi) through the coordinator handler
// and asserts the oracle answer.
func queryRange(t *testing.T, h http.Handler, lo, hi int64) {
	t.Helper()
	var resp server.QueryResponse
	code := do(t, h, "POST", "/v1/query",
		fmt.Sprintf(`{"lo":%d,"hi":%d,"aggregate":true}`, lo, hi), &resp)
	if code != http.StatusOK {
		t.Fatalf("query [%d,%d): status %d", lo, hi, code)
	}
	wc, ws := oracle(lo, hi, testRows)
	if len(resp.Results) != 1 || int64(resp.Results[0].Count) != wc || resp.Results[0].Sum != ws {
		t.Fatalf("query [%d,%d): got %+v, oracle (%d, %d)", lo, hi, resp.Results, wc, ws)
	}
}

func TestScatterGatherOracle(t *testing.T) {
	coord, _ := startCluster(t, 3, Config{})
	h := coord.Handler()
	if coord.Rows() != testRows {
		t.Fatalf("cluster rows = %d, want %d", coord.Rows(), testRows)
	}
	// Ranges inside one shard, spanning two, spanning all three, and the
	// domain edges.
	for _, r := range [][2]int64{
		{100, 200}, {9_000, 11_000}, {5, testRows - 5},
		{-50, 80}, {testRows - 100, testRows + 500}, {0, testRows},
	} {
		queryRange(t, h, r[0], r[1])
	}
	// Or-predicates normalize and split like single-server queries.
	var resp server.QueryResponse
	code := do(t, h, "POST", "/v1/query",
		`{"or":[{"lo":100,"hi":300},{"lo":200,"hi":400},{"lo":15000,"hi":15100}],"aggregate":true}`, &resp)
	if code != http.StatusOK {
		t.Fatalf("or query: status %d", code)
	}
	c1, s1 := oracle(100, 400, testRows)
	c2, s2 := oracle(15000, 15100, testRows)
	if int64(resp.Results[0].Count) != c1+c2 || resp.Results[0].Sum != s1+s2 {
		t.Fatalf("or query: got %+v, want (%d, %d)", resp.Results[0], c1+c2, s1+s2)
	}
	// A batch keeps per-item results.
	code = do(t, h, "POST", "/v1/query",
		`{"queries":[{"lo":10,"hi":20},{"lo":14000,"hi":16000}],"aggregate":true}`, &resp)
	if code != http.StatusOK || len(resp.Results) != 2 {
		t.Fatalf("batch query: status %d results %d", code, len(resp.Results))
	}
}

// TestSplitRangeMergeOrdering: a non-aggregate query spanning shards
// must return the sub-results concatenated in ascending shard order —
// every value from shard i precedes every value from shard i+1.
func TestSplitRangeMergeOrdering(t *testing.T) {
	coord, _ := startCluster(t, 3, Config{})
	lo, hi := int64(9_900), int64(20_100) // spans all three shards
	var resp server.QueryResponse
	if code := do(t, coord.Handler(), "POST", "/v1/query",
		fmt.Sprintf(`{"lo":%d,"hi":%d}`, lo, hi), &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	vals := resp.Results[0].Values
	wc, _ := oracle(lo, hi, testRows)
	if int64(len(vals)) != wc {
		t.Fatalf("got %d values, want %d", len(vals), wc)
	}
	// Shard bounds at 10000 and 20000: the concatenation must be sorted
	// BETWEEN shards even though values inside a shard arrive in cracking
	// order. Check the boundary property via per-shard min/max blocks.
	bounds := []int64{10_000, 20_000, math.MaxInt64}
	seg := 0
	var prevMax int64 = math.MinInt64
	var segMin, segMax int64 = math.MaxInt64, math.MinInt64
	for _, v := range vals {
		for v >= bounds[seg] {
			if segMin != math.MaxInt64 && segMin <= prevMax {
				t.Fatalf("shard segment overlaps previous: min %d <= prev max %d", segMin, prevMax)
			}
			prevMax = segMax
			segMin, segMax = math.MaxInt64, math.MinInt64
			seg++
		}
		if v < segMin {
			segMin = v
		}
		if v > segMax {
			segMax = v
		}
	}
	// Sorting the concatenation must equal the oracle range exactly.
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, v := range sorted {
		if v != lo+int64(i) {
			t.Fatalf("sorted[%d] = %d, want %d", i, v, lo+int64(i))
		}
	}
}

// TestQueryWireCompat: the coordinator's 1 000-value answers — one route
// handed through, two routes concatenated — go out with Content-Length
// and byte-identical to the encoding/json rendering of the same value,
// so curl, jq and encoding/json clients see exactly what they always saw.
func TestQueryWireCompat(t *testing.T) {
	coord, _ := startCluster(t, 2, Config{})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	for _, r := range [][2]int64{{1_000, 2_000}, {14_500, 15_500}} {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(fmt.Sprintf(`{"lo":%d,"hi":%d}`, r[0], r[1])))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("[%d, %d): status %d, %v: %s", r[0], r[1], resp.StatusCode, err, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("[%d, %d): Content-Length %d, transfer encoding %v, for a %d-byte body",
				r[0], r[1], resp.ContentLength, resp.TransferEncoding, len(body))
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(qr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, ref.Bytes()) {
			t.Fatalf("[%d, %d): body differs from encoding/json:\n got %q\nwant %q", r[0], r[1], body, ref.Bytes())
		}
		vals := qr.Results[0].Values
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		wc, ws := oracle(r[0], r[1], testRows)
		if int64(len(vals)) != wc || int64(qr.Results[0].Count) != wc || qr.Results[0].Sum != ws ||
			vals[0] != r[0] || vals[len(vals)-1] != r[1]-1 {
			t.Fatalf("[%d, %d): count %d sum %d over %d values, oracle (%d, %d)",
				r[0], r[1], qr.Results[0].Count, qr.Results[0].Sum, len(vals), wc, ws)
		}
	}
}

// TestUpdateReportsAccepted: like a single server, the coordinator
// reports how many values a write carried, also when the batch is split
// across routes.
func TestUpdateReportsAccepted(t *testing.T) {
	coord, _ := startCluster(t, 2, Config{})
	h := coord.Handler()
	var ur server.UpdateResponse
	// -5 routes to the bottom node, the other two to the top one.
	body := fmt.Sprintf(`{"values":[-5,%d,%d]}`, testRows+1, testRows+2)
	if code := do(t, h, "POST", "/v1/insert", body, &ur); code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}
	if ur.Accepted != 3 || ur.Pending != 3 {
		t.Fatalf("accepted=%d pending=%d, want 3/3", ur.Accepted, ur.Pending)
	}
	ur = server.UpdateResponse{}
	if code := do(t, h, "POST", "/v1/delete", `{"value":7}`, &ur); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	if ur.Accepted != 1 {
		t.Fatalf("delete accepted=%d, want 1", ur.Accepted)
	}
}

// TestBackendDownMidQuery: killing a backend degrades the ranges it
// owned (503 unavailable_range — retryable) while every other range
// keeps answering correctly — and /healthz says "degraded".
func TestBackendDownMidQuery(t *testing.T) {
	coord, nodes := startCluster(t, 3, Config{
		Client:         client.Config{Timeout: time.Second, Retries: 1, Backoff: 5 * time.Millisecond},
		HealthInterval: 50 * time.Millisecond,
	})
	h := coord.Handler()
	queryRange(t, h, 0, testRows) // all up: full-domain answer
	nodes[1].Close()              // kill the middle shard [10000, 20000)

	// Ranges not touching the dead shard still answer with oracle
	// results.
	queryRange(t, h, 0, 9_000)
	queryRange(t, h, 21_000, testRows)
	// A range needing the dead shard fails as a backend error, not a
	// hang or a wrong answer.
	code := do(t, h, "POST", "/v1/query", `{"lo":9000,"hi":21000,"aggregate":true}`, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("query through dead shard: status %d, want 503", code)
	}
	// The health loop notices and /healthz degrades.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var hr ClusterHealth
		if code := do(t, h, "GET", "/healthz", "", &hr); code != http.StatusOK {
			t.Fatalf("healthz status %d", code)
		}
		if hr.Status == "degraded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster never reported degraded")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Repeated failures trip the dead backend's circuit; the healthy
	// ranges keep serving throughout.
	for i := 0; i < 5; i++ {
		do(t, h, "POST", "/v1/query", `{"lo":15000,"hi":15100,"aggregate":true}`, nil)
	}
	queryRange(t, h, 100, 8_000)
}

// TestMigrationWarmAndCorrect: a migration hands the moving range to an
// empty joiner snapshot-warm, the routing table swaps, and every answer
// stays oracle-correct before, during checks, and after.
func TestMigrationWarmAndCorrect(t *testing.T) {
	coord, _ := startCluster(t, 3, Config{})
	h := coord.Handler()
	// Warm the top shard so the migration has cracks to carry.
	for i := 0; i < 50; i++ {
		lo := 20_000 + int64(i)*180
		queryRange(t, h, lo, lo+90)
	}
	joiner, err := StartLocalNode(LocalNodeConfig{Algorithm: "dd1r"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(joiner.Close)

	var mig MigrateResponse
	body := fmt.Sprintf(`{"to":%q,"lo":25000,"hi":%d}`, joiner.URL, int64(math.MaxInt64))
	if code := do(t, h, "POST", "/v1/migrate", body, &mig); code != http.StatusOK {
		t.Fatalf("migrate status %d", code)
	}
	if mig.Rows != 5_000 {
		t.Fatalf("migrated %d rows, want 5000", mig.Rows)
	}
	if mig.Pieces < 10 {
		t.Fatalf("joiner restored %d pieces; migration should carry the donor's cracks", mig.Pieces)
	}
	if mig.RetainFailed {
		t.Fatal("donor retain failed")
	}
	// The new topology answers everything correctly, including ranges
	// crossing the new boundary.
	for _, r := range [][2]int64{{0, testRows}, {24_900, 25_100}, {26_000, 29_000}, {20_000, 25_000}} {
		queryRange(t, h, r[0], r[1])
	}
	// The joiner reports warm on the cluster health view.
	var hr ClusterHealth
	do(t, h, "GET", "/healthz", "", &hr)
	found := false
	for _, b := range hr.Backends {
		if b.URL == joiner.URL {
			found = true
			if !b.Routed || !b.Restored {
				t.Fatalf("joiner health %+v: want routed and restored", b)
			}
		}
	}
	if !found {
		t.Fatal("joiner missing from /healthz")
	}
	// An interior range is refused up front.
	code := do(t, h, "POST", "/v1/migrate",
		fmt.Sprintf(`{"to":%q,"lo":1000,"hi":2000}`, joiner.URL), nil)
	if code != http.StatusBadRequest {
		t.Fatalf("interior migrate: status %d, want 400", code)
	}
}

// TestMigrationRacingInserts: updates racing a migration either land
// before the capture (and travel with the snapshot) or after the swap
// (and route to the new owner) — never into the void. The final count
// over the moved range must account for every acknowledged insert.
func TestMigrationRacingInserts(t *testing.T) {
	coord, _ := startCluster(t, 3, Config{})
	h := coord.Handler()
	joiner, err := StartLocalNode(LocalNodeConfig{Algorithm: "dd1r"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(joiner.Close)

	const inserts = 200
	acked := make([]bool, inserts)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < inserts; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Values inside the moving range, beyond the permutation top so
			// the expected count is exact.
			v := int64(testRows) + int64(i)
			code := do(t, h, "POST", "/v1/insert", fmt.Sprintf(`{"value":%d}`, v), nil)
			if code == http.StatusOK {
				acked[i] = true
			}
		}
	}()
	time.Sleep(5 * time.Millisecond) // let some inserts land pre-capture
	if _, err := coord.Migrate(context.Background(), joiner.URL, 25_000, math.MaxInt64); err != nil {
		close(stop)
		wg.Wait()
		t.Fatalf("migrate: %v", err)
	}
	wg.Wait()
	close(stop)

	want := int64(0)
	for _, ok := range acked {
		if ok {
			want++
		}
	}
	if want == 0 {
		t.Fatal("no insert was acknowledged; the race never happened")
	}
	// Count over [testRows, ∞): exactly the acknowledged inserts, each
	// exactly once — none lost in the hand-off, none double-applied.
	var resp server.QueryResponse
	body := fmt.Sprintf(`{"lo":%d,"hi":%d,"aggregate":true}`, testRows, int64(math.MaxInt64))
	if code := do(t, h, "POST", "/v1/query", body, &resp); code != http.StatusOK {
		t.Fatalf("post-race query status %d", code)
	}
	if int64(resp.Results[0].Count) != want {
		t.Fatalf("moved range holds %d inserted values, want %d", resp.Results[0].Count, want)
	}
}

// TestClusterStress is the -race exercise: concurrent queries, updates
// and a live migration all through the coordinator at once.
func TestClusterStress(t *testing.T) {
	coord, _ := startCluster(t, 3, Config{})
	h := coord.Handler()
	joiner, err := StartLocalNode(LocalNodeConfig{Algorithm: "dd1r"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(joiner.Close)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				lo := int64((g*1237 + i*311) % (testRows - 500))
				var resp server.QueryResponse
				code := do(t, h, "POST", "/v1/query",
					fmt.Sprintf(`{"lo":%d,"hi":%d,"aggregate":true}`, lo, lo+300), &resp)
				if code != http.StatusOK {
					select {
					case errs <- fmt.Sprintf("query status %d", code):
					default:
					}
					continue
				}
				wc, ws := oracle(lo, lo+300, testRows)
				if int64(resp.Results[0].Count) != wc || resp.Results[0].Sum != ws {
					select {
					case errs <- fmt.Sprintf("wrong answer for [%d,%d)", lo, lo+300):
					default:
					}
				}
			}
		}(g)
	}
	// One goroutine inserts/deletes the same value — net zero whatever
	// the interleaving, so queries stay oracle-checkable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			v := int64(testRows) + 10_000 + int64(i)
			if do(t, h, "POST", "/v1/insert", fmt.Sprintf(`{"value":%d}`, v), nil) == http.StatusOK {
				do(t, h, "POST", "/v1/delete", fmt.Sprintf(`{"value":%d}`, v), nil)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := coord.Migrate(context.Background(), joiner.URL, 20_000, math.MaxInt64); err != nil {
			select {
			case errs <- fmt.Sprintf("migrate: %v", err):
			default:
			}
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	queryRange(t, h, 0, testRows)
}

// TestCoordinatorAuth: the coordinator's own bearer gate mirrors the
// single server's, and the coordinator presents its backend token
// downstream.
func TestCoordinatorAuth(t *testing.T) {
	coord, _ := startCluster(t, 2, Config{
		Client:    client.Config{Token: "backend-secret"},
		AuthToken: "front-secret",
	})
	h := coord.Handler()
	// No token: 401 on the data plane, /healthz stays open.
	if code := do(t, h, "POST", "/v1/query", `{"lo":1,"hi":2}`, nil); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated query: status %d, want 401", code)
	}
	if code := do(t, h, "GET", "/healthz", "", nil); code != http.StatusOK {
		t.Fatalf("healthz without token: status %d", code)
	}
	// With the token the full scatter path works — which also proves the
	// coordinator authenticates against the token-protected backends.
	req := httptest.NewRequest("POST", "/v1/query",
		bytes.NewReader([]byte(`{"lo":100,"hi":200,"aggregate":true}`)))
	req.Header.Set("Authorization", "Bearer front-secret")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("authenticated query: status %d: %s", rec.Code, rec.Body)
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	wc, ws := oracle(100, 200, testRows)
	if int64(resp.Results[0].Count) != wc || resp.Results[0].Sum != ws {
		t.Fatalf("authenticated answer %+v, oracle (%d, %d)", resp.Results[0], wc, ws)
	}
}

// TestPendingUpdatesRideMigration: updates queued on the donor travel
// with the migration stream instead of refusing the capture.
func TestPendingUpdatesRideMigration(t *testing.T) {
	coord, _ := startCluster(t, 2, Config{})
	h := coord.Handler()
	// Queue inserts into the moving range (beyond the permutation top, so
	// counts stay exact) without merging them.
	var upd server.UpdateResponse
	body := fmt.Sprintf(`{"values":[%d,%d,%d]}`, testRows+1, testRows+2, testRows+3)
	if code := do(t, h, "POST", "/v1/insert", body, &upd); code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}
	if upd.Pending == 0 {
		t.Skip("updates merged eagerly; nothing pending to migrate")
	}
	joiner, err := StartLocalNode(LocalNodeConfig{Algorithm: "dd1r"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(joiner.Close)
	mig, err := coord.Migrate(context.Background(), joiner.URL, 15_000, math.MaxInt64)
	if err != nil {
		t.Fatalf("migrate with pending updates: %v", err)
	}
	if mig.Pending != 3 {
		t.Fatalf("migration carried %d pending updates, want 3", mig.Pending)
	}
	// The joiner merges them on first covering query: the values count.
	var resp server.QueryResponse
	q := fmt.Sprintf(`{"lo":%d,"hi":%d,"aggregate":true}`, testRows, testRows+10)
	if code := do(t, h, "POST", "/v1/query", q, &resp); code != http.StatusOK {
		t.Fatalf("post-migrate query status %d", code)
	}
	if resp.Results[0].Count != 3 {
		t.Fatalf("inserted values after migration: count %d, want 3", resp.Results[0].Count)
	}
}

// TestTrailingBytesRefused: a single server, a catalog table and the
// coordinator answer 400 to a request body with anything but whitespace
// after its JSON value, and a refused write leaves no trace; a trailing
// newline, as json.Encoder clients send, is still accepted.
func TestTrailingBytesRefused(t *testing.T) {
	node := func() *LocalNode {
		nd, err := StartLocalNode(LocalNodeConfig{N: testRows, Seed: 7, Lo: 0, Hi: testRows})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Close)
		return nd
	}
	coord, _ := startCluster(t, 2, Config{})
	cat := catalog.New(catalog.Config{})
	if err := cat.Add("t", node().Srv); err != nil {
		t.Fatal(err)
	}
	for _, tg := range []struct {
		name, prefix string
		h            http.Handler
	}{
		{"server", "/v1", node().Srv.Handler()},
		{"catalog", "/v1/tables/t", cat.Handler()},
		{"coordinator", "/v1", coord.Handler()},
	} {
		fives := func() int {
			var resp server.QueryResponse
			if code := do(t, tg.h, "POST", tg.prefix+"/query", `{"lo":5,"hi":6,"aggregate":true}`, &resp); code != http.StatusOK {
				t.Fatalf("%s: count query: status %d", tg.name, code)
			}
			return resp.Results[0].Count
		}
		for _, c := range []struct {
			path, body  string
			code, fives int
		}{
			{"/insert", `{"values":[5]} trailing`, http.StatusBadRequest, 1},
			{"/insert", `{"values":[5]}{"values":[5]}`, http.StatusBadRequest, 1},
			{"/delete", `{"value":5},`, http.StatusBadRequest, 1},
			{"/query", `{"lo":1,"hi":5}{"lo":7}`, http.StatusBadRequest, 1},
			{"/query", `{"lo":1,"hi":5} x`, http.StatusBadRequest, 1},
			{"/query", `{"queries":[{"lo":1,"hi":5}]}]`, http.StatusBadRequest, 1},
			{"/query", `{"lo":1,"hi":5}` + "\n", http.StatusOK, 1},
			{"/insert", `{"values":[5]}` + " \r\n", http.StatusOK, 2},
		} {
			if code := do(t, tg.h, "POST", tg.prefix+c.path, c.body, nil); code != c.code {
				t.Errorf("%s: POST %s %q: status %d, want %d", tg.name, c.path, c.body, code, c.code)
			}
			if got := fives(); got != c.fives {
				t.Fatalf("%s: after POST %s %q: %d fives, want %d", tg.name, c.path, c.body, got, c.fives)
			}
		}
	}
}

// TestInconsistentBackendResult: a backend answering a range with a count
// other than its number of values fails the range with 502 instead of
// having its answer forwarded; an aggregate, which carries no values,
// passes.
func TestInconsistentBackendResult(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, server.HealthResponse{Status: "ok", Rows: 3, ShardLo: 0, ShardHi: 3})
	})
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		var req server.QueryRequest
		if !server.DecodeBody(w, r, &req) {
			return
		}
		res := server.QueryResult{Count: 3, Sum: 3, Values: []int64{1, 2}}
		if req.Aggregate {
			res.Values = nil
		}
		server.WriteQueryResponse(w, server.QueryResponse{Results: []server.QueryResult{res}})
	})
	backend := httptest.NewServer(mux)
	t.Cleanup(backend.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coord, err := New(ctx, []string{backend.URL}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"lo":0,"hi":3}`)))
	var e server.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadGateway || e.Code != "backend_unavailable" {
		t.Fatalf("range query: status %d, body %s; want 502 backend_unavailable", rec.Code, rec.Body)
	}
	var resp server.QueryResponse
	if code := do(t, coord.Handler(), "POST", "/v1/query", `{"lo":0,"hi":3,"aggregate":true}`, &resp); code != http.StatusOK ||
		resp.Results[0].Count != 3 || resp.Results[0].Sum != 3 {
		t.Fatalf("aggregate: status %d, %+v; want 200 with count 3, sum 3", code, resp.Results)
	}
}
