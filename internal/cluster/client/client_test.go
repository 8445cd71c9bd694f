package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	crackdb "repro"
	"repro/internal/server"
)

// fakeBackend serves a minimal v1 surface through the given handler
// override; unmatched paths 404.
func fakeBackend(t *testing.T, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return ts
}

// query reads through one backend, a replica set of one.
func query(ctx context.Context, b *Backend, req server.QueryRequest) (server.QueryResponse, error) {
	return QueryAcross(ctx, []*Backend{b}, req)
}

func queryOK(w http.ResponseWriter) {
	_ = json.NewEncoder(w).Encode(server.QueryResponse{
		Results: []server.QueryResult{{Count: 1, Sum: 1}},
	})
}

func TestReadRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	ts := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"boom","code":"internal"}`, http.StatusInternalServerError)
			return
		}
		queryOK(w)
	})
	b := New(ts.URL, Config{Retries: 2, Backoff: time.Millisecond})
	resp, err := query(context.Background(), b, server.QueryRequest{})
	if err != nil || len(resp.Results) != 1 {
		t.Fatalf("query after retries: %+v, %v", resp, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 + 2 retries)", got)
	}
	if retries := b.Retries(); retries != 2 {
		t.Fatalf("retries counter %d, want 2", retries)
	}
}

// TestUpdateRetryAsymmetry: a 500 might mean the insert landed, so
// updates must NOT retry it; a 503 is sent before any state changes, so
// they may.
func TestUpdateRetryAsymmetry(t *testing.T) {
	var calls atomic.Int32
	ts := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"boom","code":"internal"}`, http.StatusInternalServerError)
	})
	b := New(ts.URL, Config{Retries: 3, Backoff: time.Millisecond})
	if _, err := b.Insert(context.Background(), 1); err == nil {
		t.Fatal("insert against a 500 backend succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("500 insert was attempted %d times, want exactly 1 (it may have applied)", got)
	}

	calls.Store(0)
	ts2 := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"draining","code":"unavailable"}`, http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(server.UpdateResponse{Pending: 1})
	})
	b2 := New(ts2.URL, Config{Retries: 3, Backoff: time.Millisecond})
	if _, err := b2.Insert(context.Background(), 1); err != nil {
		t.Fatalf("insert after a provably-unapplied 503: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("503-then-ok insert took %d calls, want 2", got)
	}
}

func TestCircuitBreaker(t *testing.T) {
	var calls atomic.Int32
	ts := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"boom","code":"internal"}`, http.StatusInternalServerError)
	})
	b := New(ts.URL, Config{
		Retries: -1, Backoff: time.Millisecond,
		FailThreshold: 3, Cooldown: 50 * time.Millisecond,
	})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := query(ctx, b, server.QueryRequest{}); err == nil {
			t.Fatal("query against 500 backend succeeded")
		}
	}
	state, fails, trips := b.CircuitState()
	if state != "open" || fails < 3 || trips != 1 {
		t.Fatalf("after threshold: state=%s fails=%d trips=%d", state, fails, trips)
	}
	// While open, calls short-circuit without touching the network.
	before := calls.Load()
	if _, err := query(ctx, b, server.QueryRequest{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open circuit returned %v, want ErrCircuitOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open circuit still hit the network")
	}
	// After the cooldown a probe goes through; success closes the
	// circuit.
	time.Sleep(60 * time.Millisecond)
	ok := func(w http.ResponseWriter, r *http.Request) { queryOK(w) }
	ts.Config.Handler = http.HandlerFunc(ok)
	if _, err := query(ctx, b, server.QueryRequest{}); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if state, _, _ := b.CircuitState(); state != "closed" {
		t.Fatalf("after successful probe: state=%s, want closed", state)
	}
}

// TestOpenCircuitReturnsAtOnce: a call the circuit refuses is not
// retried — the circuit cannot close within one backoff — so a read and
// an insert on an open circuit return well inside the first backoff,
// and an open-circuited preferred replica costs its healthy sibling's
// read no sleep at all.
func TestOpenCircuitReturnsAtOnce(t *testing.T) {
	const backoff = time.Second
	failing := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom","code":"internal"}`, http.StatusInternalServerError)
	})
	healthy := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) { queryOK(w) })
	cfg := Config{Retries: 2, Backoff: backoff, FailThreshold: 1, Cooldown: time.Minute}
	b := New(failing.URL, cfg)
	ctx := context.Background()
	// A 500 may have applied the insert, so it is one attempt, and it
	// trips the one-failure circuit.
	if _, err := b.Insert(ctx, 1); err == nil {
		t.Fatal("insert against a 500 backend succeeded")
	}
	if state, _, _ := b.CircuitState(); state != "open" {
		t.Fatalf("circuit %s after a failure at threshold 1, want open", state)
	}
	before := b.Retries()
	for name, op := range map[string]func() error{
		"read":   func() error { _, err := query(ctx, b, server.QueryRequest{}); return err },
		"insert": func() error { _, err := b.Insert(ctx, 1); return err },
	} {
		start := time.Now()
		if err := op(); !errors.Is(err, ErrCircuitOpen) || !ProvablyNotApplied(err) {
			t.Fatalf("%s on an open circuit: %v, want ErrCircuitOpen", name, err)
		}
		if elapsed := time.Since(start); elapsed > backoff/4 {
			t.Fatalf("%s on an open circuit took %v (backoff %v)", name, elapsed, backoff)
		}
	}
	if got := b.Retries(); got != before {
		t.Fatalf("retries counter moved %d -> %d on refused calls", before, got)
	}
	start := time.Now()
	resp, err := QueryAcross(ctx, []*Backend{b, New(healthy.URL, cfg)}, server.QueryRequest{})
	if err != nil || len(resp.Results) != 1 {
		t.Fatalf("read past an open-circuited preferred replica: %+v, %v", resp, err)
	}
	if elapsed := time.Since(start); elapsed > backoff/4 {
		t.Fatalf("failover past an open circuit took %v (backoff %v)", elapsed, backoff)
	}
}

// TestQueryAcrossPasses: each pass asks every replica once before any
// backoff, so a dead preferred replica costs one failed attempt; a
// request error no replica would answer differently returns at once;
// and only a pass that failed everywhere is repeated.
func TestQueryAcrossPasses(t *testing.T) {
	const retries = 2
	cfg := Config{Retries: retries, Backoff: time.Millisecond, FailThreshold: 100}
	serve := func(status int, calls *atomic.Int32) *Backend {
		ts := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			if status != http.StatusOK {
				http.Error(w, `{"error":"no","code":"x"}`, status)
				return
			}
			queryOK(w)
		})
		return New(ts.URL, cfg)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name                  string
		first, second         int
		wantOK                bool
		wantFirst, wantSecond int32
	}{
		{"dead preferred fails over", http.StatusInternalServerError, http.StatusOK, true, 1, 1},
		{"bad request returns at once", http.StatusBadRequest, http.StatusOK, false, 1, 0},
		{"every replica down repeats the pass", http.StatusBadGateway, http.StatusInternalServerError, false, 1 + retries, 1 + retries},
	} {
		var c1, c2 atomic.Int32
		b1, b2 := serve(tc.first, &c1), serve(tc.second, &c2)
		_, err := QueryAcross(ctx, []*Backend{b1, b2}, server.QueryRequest{})
		if (err == nil) != tc.wantOK {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		if c1.Load() != tc.wantFirst || c2.Load() != tc.wantSecond {
			t.Fatalf("%s: replicas asked %d and %d times, want %d and %d",
				tc.name, c1.Load(), c2.Load(), tc.wantFirst, tc.wantSecond)
		}
		if r1, r2 := b1.Retries(), b2.Retries(); int32(r1) != tc.wantFirst-1 || int32(r2) != max(tc.wantSecond-1, 0) {
			t.Fatalf("%s: retries counters %d and %d", tc.name, r1, r2)
		}
	}
}

// TestTLSAndBearerEndToEnd drives a real crackdb-backed server over
// HTTPS with bearer auth through the resilient client — the transport
// crackserver -tls-cert/-tls-key -auth-token serves.
func TestTLSAndBearerEndToEnd(t *testing.T) {
	const rows = 5_000
	db, err := crackdb.Open(crackdb.MakeData(rows, 1), crackdb.DD1R,
		crackdb.WithConcurrency(crackdb.Shared))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{
		Info:      server.Info{Rows: rows, Algorithm: crackdb.DD1R, Permutation: true},
		AuthToken: "s3cret",
	})
	ts := httptest.NewTLSServer(srv.Handler())
	t.Cleanup(ts.Close)

	b := New(ts.URL, Config{Token: "s3cret", HTTPClient: ts.Client()})
	resp, err := query(context.Background(), b, server.QueryRequest{
		QueryItem: server.QueryItem{Lo: 100, Hi: 200}, Aggregate: true,
	})
	if err != nil {
		t.Fatalf("TLS query: %v", err)
	}
	if got := resp.Results[0]; got.Count != 100 {
		t.Fatalf("TLS query count %d, want 100", got.Count)
	}
	// Health is exempt from auth even over TLS.
	noToken := New(ts.URL, Config{HTTPClient: ts.Client(), Retries: -1})
	if _, err := noToken.Health(context.Background()); err != nil {
		t.Fatalf("unauthenticated healthz over TLS: %v", err)
	}
	// But the data plane is not.
	_, err = query(context.Background(), noToken, server.QueryRequest{
		QueryItem: server.QueryItem{Lo: 0, Hi: 1},
	})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
		t.Fatalf("unauthenticated query over TLS: %v, want 401", err)
	}
}
