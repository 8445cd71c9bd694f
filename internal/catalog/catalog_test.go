package catalog

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	crackdb "repro"
	"repro/internal/server"
)

// newCatalog builds the two-tenant fixture the round-trip tests share: a
// single-column "users" table and a two-column, two-shard "orders" table,
// each saving to its own key in the shared store. warm=true rebuilds both
// from the store instead of from source data.
func newCatalog(t *testing.T, store crackdb.SnapshotStore, warm bool) (*Catalog, *httptest.Server) {
	t.Helper()
	type spec struct {
		name string
		open func() (*crackdb.DB, error)
		rows int64
	}
	specs := []spec{
		{"users", func() (*crackdb.DB, error) {
			return crackdb.Open(crackdb.MakeData(4096, 1), crackdb.DD1R, crackdb.WithSeed(1))
		}, 4096},
		{"orders", func() (*crackdb.DB, error) {
			return crackdb.OpenTable(map[string][]int64{
				"amount": crackdb.MakeData(2048, 2),
				"ts":     crackdb.MakeData(2048, 3),
			}, crackdb.DD1R, crackdb.WithSeed(2), crackdb.WithConcurrency(crackdb.Sharded(2)))
		}, 2048},
	}
	cat := New(Config{AuthToken: "s3cret"})
	for _, sp := range specs {
		key := "tables/" + sp.name + ".crks"
		var (
			db  *crackdb.DB
			err error
		)
		if warm {
			db, err = crackdb.OpenSnapshotFrom(store, key, crackdb.DD1R, crackdb.WithSeed(9))
		} else {
			db, err = sp.open()
		}
		if err != nil {
			t.Fatalf("open %s (warm=%v): %v", sp.name, warm, err)
		}
		t.Cleanup(func() { db.Close() })
		srv := server.New(db, server.Config{
			Info:          server.Info{Rows: sp.rows, Algorithm: crackdb.DD1R, Permutation: true},
			MaxInFlight:   16,
			SnapshotStore: store,
			SnapshotKey:   key,
			Restored:      warm,
		})
		if err := cat.Add(sp.name, srv); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(cat.Handler())
	t.Cleanup(ts.Close)
	return cat, ts
}

// roundTrip issues one authed request against the catalog listener and
// decodes the JSON response, returning the status code.
func roundTrip(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		enc, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(enc)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestCatalogRoundTrip drives the whole tentpole through the HTTP
// surface: two tables (one of them sharded) behind one listener, scoped
// queries with closed-form oracles, column-scoped writes, snapshots into
// the shared store, and a warm rebuild of the entire catalog from that
// store that must still answer correctly — pending writes included.
func TestCatalogRoundTrip(t *testing.T) {
	ctx := context.Background()
	store := crackdb.NewMemSnapshotStore()
	_, ts := newCatalog(t, store, false)

	// Listing and describe: both tables visible, sorted, with facts.
	var list ListResponse
	if st := roundTrip(t, http.MethodGet, ts.URL+"/v1/tables", nil, &list); st != http.StatusOK {
		t.Fatalf("list: status %d", st)
	}
	if len(list.Tables) != 2 || list.Tables[0].Name != "orders" || list.Tables[1].Name != "users" {
		t.Fatalf("list = %+v, want sorted [orders users]", list.Tables)
	}
	var info server.TableInfo
	if st := roundTrip(t, http.MethodGet, ts.URL+"/v1/tables/users", nil, &info); st != http.StatusOK {
		t.Fatalf("describe: status %d", st)
	}
	if info.Name != "users" || info.Rows != 4096 {
		t.Fatalf("describe users = %+v", info)
	}

	// Unknown table: stable 404 with a machine-readable code.
	var eresp server.ErrorResponse
	if st := roundTrip(t, http.MethodPost, ts.URL+"/v1/tables/nope/query", server.QueryRequest{}, &eresp); st != http.StatusNotFound || eresp.Code != "unknown_table" {
		t.Fatalf("unknown table: status %d code %q", st, eresp.Code)
	}

	// The server.Client speaks to one table via WithTable — the same
	// client the benchmark's catalog rung uses, so the rewrite is tested.
	users := server.NewClient(ts.URL, nil, server.WithToken("s3cret"), server.WithTable("users"))
	orders := server.NewClient(ts.URL, nil, server.WithToken("s3cret"), server.WithTable("orders"))

	// users holds a permutation of [0, 4096): closed-form answers.
	res, err := users.Aggregate(ctx, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 100 || res.Sum != 14950 {
		t.Fatalf("users [100,200): count %d sum %d, want 100/14950", res.Count, res.Sum)
	}

	// orders needs column scope; unscoped writes must be refused, not
	// guessed.
	var qresp server.QueryResponse
	st := roundTrip(t, http.MethodPost, ts.URL+"/v1/tables/orders/query",
		server.QueryRequest{QueryItem: server.QueryItem{Lo: 0, Hi: 100, Col: "amount"}, Aggregate: true}, &qresp)
	if st != http.StatusOK || len(qresp.Results) != 1 {
		t.Fatalf("orders scoped query: status %d resp %+v", st, qresp)
	}
	if r := qresp.Results[0]; r.Count != 100 || r.Sum != 4950 {
		t.Fatalf("orders amount [0,100): count %d sum %d, want 100/4950", r.Count, r.Sum)
	}
	v := int64(5000)
	if st := roundTrip(t, http.MethodPost, ts.URL+"/v1/tables/orders/insert",
		server.UpdateRequest{Value: &v}, &eresp); st != http.StatusBadRequest || eresp.Code != "unknown_column" {
		t.Fatalf("unscoped insert on 2-col table: status %d code %q", st, eresp.Code)
	}
	var uresp server.UpdateResponse
	if st := roundTrip(t, http.MethodPost, ts.URL+"/v1/tables/orders/insert",
		server.UpdateRequest{Value: &v, Col: "amount"}, &uresp); st != http.StatusOK || uresp.Accepted != 1 {
		t.Fatalf("scoped insert: status %d resp %+v", st, uresp)
	}
	if _, err := users.Insert(ctx, 4103); err != nil {
		t.Fatal(err)
	}

	// Per-table health through the dispatch rewrite: healthz keeps its
	// root, debug/metrics stays rooted too.
	h, err := users.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows != 4096 || h.PendingUpdates == 0 || h.Restored {
		t.Fatalf("users health = %+v, want 4096 rows, pending > 0, cold", h)
	}
	if st := roundTrip(t, http.MethodGet, ts.URL+"/v1/tables/users/debug/metrics", nil, nil); st != http.StatusOK {
		t.Fatalf("debug/metrics via dispatch: status %d", st)
	}

	// Snapshot both tables into the shared store. Pending writes ride
	// along in the manifest (non-strict capture).
	for name, c := range map[string]*server.Client{"users": users, "orders": orders} {
		sresp, err := c.Snapshot(ctx, false)
		if err != nil {
			t.Fatalf("snapshot %s: %v", name, err)
		}
		if want := "tables/" + name + ".crks"; sresp.Path != want {
			t.Fatalf("snapshot %s landed at %q, want store key %q", name, sresp.Path, want)
		}
		if sresp.Parts == 0 {
			t.Fatalf("snapshot %s: zero parts", name)
		}
	}

	// Rebuild the whole catalog warm from the store and re-verify: the
	// oracle answers must hold and the pending inserts must have survived
	// the round trip.
	_, ts2 := newCatalog(t, store, true)
	users2 := server.NewClient(ts2.URL, nil, server.WithToken("s3cret"), server.WithTable("users"))
	h2, err := users2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Restored || h2.Pieces < 2 {
		t.Fatalf("warm users health = %+v, want restored with refined pieces", h2)
	}
	res, err = users2.Aggregate(ctx, 4096, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 || res.Sum != 4103 {
		t.Fatalf("warm users [4096,5000): count %d sum %d, want the surviving insert 1/4103", res.Count, res.Sum)
	}
	res, err = users2.Aggregate(ctx, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 100 || res.Sum != 14950 {
		t.Fatalf("warm users [100,200): count %d sum %d, want 100/14950", res.Count, res.Sum)
	}
	var qresp2 server.QueryResponse
	st = roundTrip(t, http.MethodPost, ts2.URL+"/v1/tables/orders/query",
		server.QueryRequest{Queries: []server.QueryItem{
			{Lo: 0, Hi: 100, Col: "amount"},
			{Lo: 4000, Hi: 6000, Col: "amount"},
			{Lo: 0, Hi: 2048, Col: "ts"},
		}, Aggregate: true}, &qresp2)
	if st != http.StatusOK || len(qresp2.Results) != 3 {
		t.Fatalf("warm orders batch: status %d resp %+v", st, qresp2)
	}
	if r := qresp2.Results[0]; r.Count != 100 || r.Sum != 4950 {
		t.Fatalf("warm orders amount [0,100): %+v", r)
	}
	if r := qresp2.Results[1]; r.Count != 1 || r.Sum != 5000 {
		t.Fatalf("warm orders amount [4000,6000): %+v, want the surviving insert", r)
	}
	if r := qresp2.Results[2]; r.Count != 2048 {
		t.Fatalf("warm orders ts full scan: %+v, want 2048 rows", r)
	}
}

// TestCatalogAuth pins the catalog-level bearer gate: everything except
// GET /healthz requires the token, including dispatched per-table paths.
func TestCatalogAuth(t *testing.T) {
	store := crackdb.NewMemSnapshotStore()
	_, ts := newCatalog(t, store, false)
	for _, path := range []string{"/v1/tables", "/v1/tables/users", "/v1/tables/users/stats", "/v1/tables/users/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("GET %s without token: status %d, want 401", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz open probe: status %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Tables) != 2 {
		t.Fatalf("catalog health = %+v, want ok with 2 tables", h)
	}
}

// TestCatalogNames pins the name grammar shared by URL segments and
// store keys.
func TestCatalogNames(t *testing.T) {
	for _, ok := range []string{"users", "Users-2", "a.b_c"} {
		if err := ValidName(ok); err != nil {
			t.Errorf("ValidName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "a/b", "a b", "..%2f", string(make([]byte, 200))} {
		if err := ValidName(bad); err == nil {
			t.Errorf("ValidName(%q) = nil, want error", bad)
		}
	}
	cat := New(Config{})
	srv := &server.Server{}
	if err := cat.Add("t", srv); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add("t", srv); err == nil {
		t.Fatal("duplicate Add accepted")
	}
}
