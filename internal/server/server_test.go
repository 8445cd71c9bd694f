package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	crackdb "repro"
)

const testRows = 10_000

// newTestServer opens a fresh permutation-backed DB in the given mode and
// wraps it in a Server.
func newTestServer(t *testing.T, mode crackdb.Concurrency, cfg Config) *Server {
	t.Helper()
	db, err := crackdb.Open(crackdb.MakeData(testRows, 7), crackdb.DD1R,
		crackdb.WithSeed(7), crackdb.WithConcurrency(mode))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cfg.Info = Info{Rows: testRows, Algorithm: crackdb.DD1R, Seed: 7, Permutation: true}
	return New(db, cfg)
}

// post sends body to path on the in-process handler and returns the
// recorder.
func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func decodeQuery(t *testing.T, rec *httptest.ResponseRecorder) QueryResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body, err)
	}
	return resp
}

// oracle returns the closed-form (count, sum) of the values in [a, b)
// when the data is a permutation of [0, n).
func oracle(a, b, n int64) (count, sum int64) {
	a, b = max(a, 0), min(b, n)
	if a >= b {
		return 0, 0
	}
	return b - a, (a + b - 1) * (b - a) / 2
}

// wantRange asserts a result matches the permutation oracle for [lo, hi):
// exactly the integers lo..hi-1, in any order.
func wantRange(t *testing.T, res QueryResult, lo, hi int64) {
	t.Helper()
	wc, ws := oracle(lo, hi, testRows)
	if int64(res.Count) != wc || res.Sum != ws {
		t.Fatalf("[%d, %d): got count=%d sum=%d, want count=%d sum=%d",
			lo, hi, res.Count, res.Sum, wc, ws)
	}
	if res.Values != nil {
		vals := slices.Clone(res.Values)
		slices.Sort(vals)
		for i, v := range vals {
			if v != max64(lo, 0)+int64(i) {
				t.Fatalf("[%d, %d): sorted values[%d] = %d", lo, hi, i, v)
			}
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestQuerySingleRange(t *testing.T) {
	for _, mode := range []crackdb.Concurrency{crackdb.Single, crackdb.Shared, crackdb.Sharded(4)} {
		t.Run(mode.String(), func(t *testing.T) {
			s := newTestServer(t, mode, Config{})
			rec := post(t, s, "/v1/query", `{"lo": 100, "hi": 200}`)
			resp := decodeQuery(t, rec)
			if len(resp.Results) != 1 {
				t.Fatalf("got %d results", len(resp.Results))
			}
			res := resp.Results[0]
			if len(res.Values) != res.Count {
				t.Fatalf("count %d but %d values", res.Count, len(res.Values))
			}
			wantRange(t, res, 100, 200)
		})
	}
}

func TestQueryOr(t *testing.T) {
	s := newTestServer(t, crackdb.Shared, Config{})
	rec := post(t, s, "/v1/query", `{"or": [{"lo": 10, "hi": 20}, {"lo": 50, "hi": 55}]}`)
	resp := decodeQuery(t, rec)
	res := resp.Results[0]
	if res.Count != 15 {
		t.Fatalf("or of widths 10+5: count = %d", res.Count)
	}
	wc1, ws1 := oracle(10, 20, testRows)
	wc2, ws2 := oracle(50, 55, testRows)
	if int64(res.Count) != wc1+wc2 || res.Sum != ws1+ws2 {
		t.Fatalf("or: count=%d sum=%d", res.Count, res.Sum)
	}
}

func TestQueryBatch(t *testing.T) {
	s := newTestServer(t, crackdb.Shared, Config{})
	rec := post(t, s, "/v1/query",
		`{"queries": [{"lo": 0, "hi": 10}, {"lo": 9000, "hi": 9100}, {"lo": 500, "hi": 500}]}`)
	resp := decodeQuery(t, rec)
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	wantRange(t, resp.Results[0], 0, 10)
	wantRange(t, resp.Results[1], 9000, 9100)
	if resp.Results[2].Count != 0 {
		t.Fatalf("empty range: count = %d", resp.Results[2].Count)
	}
}

func TestQueryAggregate(t *testing.T) {
	s := newTestServer(t, crackdb.Shared, Config{})
	rec := post(t, s, "/v1/query", `{"lo": 100, "hi": 300, "aggregate": true}`)
	resp := decodeQuery(t, rec)
	res := resp.Results[0]
	if res.Values != nil {
		t.Fatalf("aggregate response carries %d values", len(res.Values))
	}
	wantRange(t, res, 100, 300)
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, crackdb.Shared, Config{})
	cases := []struct {
		name, body string
		wantStatus int
		wantCode   string
	}{
		{"malformed json", `{"lo": `, http.StatusBadRequest, "bad_request"},
		{"unknown field", `{"low": 1, "hi": 2}`, http.StatusBadRequest, "bad_request"},
		{"empty batch", `{"queries": []}`, http.StatusBadRequest, "bad_request"},
		{"inline and batch", `{"lo": 1, "hi": 2, "queries": [{"lo": 3, "hi": 4}]}`, http.StatusBadRequest, "bad_request"},
		{"lo/hi and or", `{"lo": 1, "hi": 2, "or": [{"lo": 3, "hi": 4}]}`, http.StatusBadRequest, "bad_request"},
		{"column on single-column db", `{"lo": 1, "hi": 2, "col": "nope"}`, http.StatusBadRequest, "unknown_column"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, s, "/v1/query", tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d (%s), want %d", rec.Code, rec.Body, tc.wantStatus)
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("error body %q: %v", rec.Body, err)
			}
			if er.Code != tc.wantCode {
				t.Fatalf("code = %q (%s), want %q", er.Code, er.Error, tc.wantCode)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		rec := get(t, s, "/v1/query")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/query status = %d", rec.Code)
		}
	})
}

func TestCanceledRequestContext(t *testing.T) {
	s := newTestServer(t, crackdb.Shared, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(`{"lo": 0, "hi": 100}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled context: status = %d (%s)", rec.Code, rec.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "canceled" {
		t.Fatalf("canceled context: body = %q (err %v)", rec.Body, err)
	}
}

func TestAdmissionLimit429(t *testing.T) {
	// A MaxInFlight=1 server whose first query parks inside its admission
	// slot until released.
	s := newTestServer(t, crackdb.Shared, Config{MaxInFlight: 1})
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.hold = func() {
		started <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(`{"lo": 0, "hi": 10}`))
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-started // the first request now owns the only admission slot

	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"lo": 0, "hi": 10}`))
	if err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || er.Code != "over_capacity" {
		t.Fatalf("second request: status %d code %q", resp.StatusCode, er.Code)
	}
	if got := s.rejects.Load(); got != 1 {
		t.Fatalf("rejects = %d", got)
	}

	close(release)
	s.hold = nil
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("first request finished with %d", code)
	}
	// hold is cleared and the slot is free again: the server recovered.
	rec := post(t, s, "/v1/query", `{"lo": 0, "hi": 10}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("after release: status %d", rec.Code)
	}
}

func TestInsertDeleteFlow(t *testing.T) {
	s := newTestServer(t, crackdb.Shared, Config{})

	// Insert two out-of-domain values; they queue until a covering query
	// merges them.
	rec := post(t, s, "/v1/insert", fmt.Sprintf(`{"values": [%d, %d]}`, testRows+1, testRows+2))
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: %d (%s)", rec.Code, rec.Body)
	}
	var ur UpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Pending != 2 {
		t.Fatalf("pending after insert = %d", ur.Pending)
	}

	resp := decodeQuery(t, post(t, s, "/v1/query",
		fmt.Sprintf(`{"lo": %d, "hi": %d}`, testRows, testRows+10)))
	if got := resp.Results[0].Count; got != 2 {
		t.Fatalf("count after merge = %d", got)
	}

	// Delete one of them again.
	rec = post(t, s, "/v1/delete", fmt.Sprintf(`{"value": %d}`, testRows+1))
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d (%s)", rec.Code, rec.Body)
	}
	resp = decodeQuery(t, post(t, s, "/v1/query",
		fmt.Sprintf(`{"lo": %d, "hi": %d}`, testRows, testRows+10)))
	if got := resp.Results[0].Count; got != 1 {
		t.Fatalf("count after delete = %d", got)
	}

	rec = post(t, s, "/v1/insert", `{}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty insert: %d", rec.Code)
	}
}

func TestClosedDBMapsTo503(t *testing.T) {
	db, err := crackdb.Open(crackdb.MakeData(testRows, 7), crackdb.DD1R,
		crackdb.WithConcurrency(crackdb.Shared))
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{Info: Info{Rows: testRows}})
	db.Close()
	rec := post(t, s, "/v1/query", `{"lo": 0, "hi": 10}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed DB: status %d (%s)", rec.Code, rec.Body)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, crackdb.Shared, Config{})
	for i := int64(0); i < 20; i++ {
		rec := post(t, s, "/v1/query", fmt.Sprintf(`{"lo": %d, "hi": %d}`, i*100, i*100+50))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d", i, rec.Code)
		}
	}

	rec := get(t, s, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d (%s)", rec.Code, rec.Body)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.QueriesServed != 20 {
		t.Fatalf("queries_served = %d", st.QueriesServed)
	}
	if st.Mode != "shared" || !st.Permutation || st.Rows != testRows {
		t.Fatalf("identity: %+v", st)
	}
	if st.Index.Queries != 20 || st.Index.Pieces < 2 {
		t.Fatalf("index counters: %+v", st.Index)
	}
	if st.ReadQueries+st.WriteQueries != 20 {
		t.Fatalf("path stats: read=%d write=%d", st.ReadQueries, st.WriteQueries)
	}
	if st.Pieces == nil || st.Pieces.Pieces < 2 || st.Pieces.Skew <= 0 {
		t.Fatalf("piece stats: %+v", st.Pieces)
	}
	if len(st.PieceHistogram) == 0 {
		t.Fatal("no piece histogram")
	}
	if st.Convergence == nil || st.Convergence.Samples != 1 {
		t.Fatalf("convergence: %+v", st.Convergence)
	}

	// A second call appends a second convergence sample.
	rec = get(t, s, "/v1/stats")
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Convergence == nil || st.Convergence.Samples != 2 {
		t.Fatalf("convergence after second call: %+v", st.Convergence)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, crackdb.Shared, Config{})
	if rec := post(t, s, "/v1/query", `{"lo": 0, "hi": 100}`); rec.Code != http.StatusOK {
		t.Fatalf("query: %d", rec.Code)
	}
	if rec := post(t, s, "/v1/query", `{"low": 1}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad query: %d", rec.Code)
	}

	rec := get(t, s, "/debug/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`crackserver_requests_total{endpoint="query",code="2xx"} 1`,
		`crackserver_requests_total{endpoint="query",code="4xx"} 1`,
		"crackserver_queries_total 1",
		// Only the 2xx query enters the latency histogram; the 400 is
		// counted by the request counter alone.
		`crackserver_query_seconds_bucket{le="+Inf"} 1`,
		"crackserver_query_seconds_count 1",
		"crackserver_index_pieces",
		"crackserver_index_max_piece_share",
		`crackserver_exec_path_queries_total{path="read"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, crackdb.Sharded(2), Config{})
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Mode != "sharded-2" {
		t.Fatalf("healthz: %+v", h)
	}
}

// TestCancellationUnderLoad fires many short-deadline requests at a live
// server — most of them cancel mid-flight, client-side — and then checks
// the index still answers correctly. Run under -race in CI, this verifies
// that request-context cancellation never tears the executor's state.
func TestCancellationUnderLoad(t *testing.T) {
	s := newTestServer(t, crackdb.Shared, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(1+i%5)*100*time.Microsecond)
				lo := int64((g*50 + i) * 13 % (testRows - 100))
				_, _ = c.QueryRange(ctx, lo, lo+100) // errors expected: deadlines fire mid-query
				cancel()
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}

	res, err := c.QueryRange(context.Background(), 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	wantRange(t, res, 100, 200)
}

// TestStatsSurfacesParallelInfo asserts the parallel-cracking identity
// fields round-trip through /v1/stats, so clients can tell how the served
// DB was opened.
func TestStatsSurfacesParallelInfo(t *testing.T) {
	db, err := crackdb.Open(crackdb.MakeData(testRows, 7), crackdb.DD1R,
		crackdb.WithSeed(7), crackdb.WithConcurrency(crackdb.Shared),
		crackdb.WithParallelCrack(), crackdb.WithCoarseInit(8))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := New(db, Config{Info: Info{
		Rows: testRows, Algorithm: crackdb.DD1R, Seed: 7, Permutation: true,
		ParallelCrack: true, CoarseInitPieces: 8,
	}})

	rec := get(t, s, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d (%s)", rec.Code, rec.Body)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.ParallelCrack || st.CoarseInitPieces != 8 {
		t.Fatalf("parallel identity not surfaced: %+v", st.Info)
	}
	// Coarse init pre-cut the column before any query arrived.
	if st.Index.Pieces < 2 {
		t.Fatalf("coarse init did not pre-cut: %+v", st.Index)
	}
}
