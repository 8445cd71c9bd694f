package server_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	crackdb "repro"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/server"
)

// TestBearerAuthAcrossShapes: the server, the catalog and the coordinator
// share one bearer check, so each answers the same header the same way:
// the scheme is case-insensitive, a wrong or missing token is 401, and
// GET /healthz stays open.
func TestBearerAuthAcrossShapes(t *testing.T) {
	const token = "T"
	open := func() *crackdb.DB {
		db, err := crackdb.Open(crackdb.MakeData(1000, 1), crackdb.DD1R, crackdb.WithConcurrency(crackdb.Shared))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	info := server.Info{Rows: 1000, Algorithm: crackdb.DD1R, Permutation: true}

	srv := server.New(open(), server.Config{Info: info, AuthToken: token})

	cat := catalog.New(catalog.Config{AuthToken: token})
	if err := cat.Add("t", server.New(open(), server.Config{Info: info})); err != nil {
		t.Fatal(err)
	}

	var urls []string
	for _, rg := range [][2]int64{{0, 500}, {500, 1000}} {
		node, err := cluster.StartLocalNode(cluster.LocalNodeConfig{N: 1000, Seed: 1, Lo: rg[0], Hi: rg[1]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		urls = append(urls, node.URL)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coord, err := cluster.New(ctx, urls, cluster.Config{AuthToken: token})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	shapes := []struct {
		name  string
		h     http.Handler
		query string
	}{
		{"server", srv.Handler(), "/v1/query"},
		{"catalog", cat.Handler(), "/v1/tables/t/query"},
		{"coordinator", coord.Handler(), "/v1/query"},
	}
	cases := []struct {
		name   string
		health bool // GET /healthz instead of the query
		header string
		want   int
	}{
		{"canonical", false, "Bearer T", http.StatusOK},
		{"lower-case scheme", false, "bearer T", http.StatusOK},
		{"upper-case scheme", false, "BEARER T", http.StatusOK},
		{"wrong token", false, "Bearer wrong", http.StatusUnauthorized},
		{"no header", false, "", http.StatusUnauthorized},
		{"healthz without header", true, "", http.StatusOK},
	}
	for _, sh := range shapes {
		for _, tc := range cases {
			req := httptest.NewRequest(http.MethodPost, sh.query, strings.NewReader(`{"lo":10,"hi":20,"aggregate":true}`))
			if tc.health {
				req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
			}
			if tc.header != "" {
				req.Header.Set("Authorization", tc.header)
			}
			rec := httptest.NewRecorder()
			sh.h.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Errorf("%s, %s: status %d, want %d: %s", sh.name, tc.name, rec.Code, tc.want, rec.Body)
			}
		}
	}
}
