package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	crackdb "repro"
)

// TestConcurrentClientsCrossMode replays one predicate workload through
// concurrent HTTP clients against servers in every concurrency mode and
// asserts each answer equals the in-process answer of a Scan-backed DB —
// the serving layer's cross-mode equivalence property. CI runs it under
// -race.
func TestConcurrentClientsCrossMode(t *testing.T) {
	const rows = 20_000
	type query struct {
		item QueryItem
		pred crackdb.Predicate
	}
	queries := make([]query, 0, 120)
	for i := 0; i < 100; i++ {
		lo := int64(i*37) % (rows - 200)
		it := QueryItem{Lo: lo, Hi: lo + int64(50+i%100)}
		queries = append(queries, query{item: it})
	}
	for i := 0; i < 20; i++ {
		a := int64(i * 311 % (rows - 1000))
		it := QueryItem{Or: []WireRange{{Lo: a, Hi: a + 40}, {Lo: a + 500, Hi: a + 520}}}
		queries = append(queries, query{item: it})
	}
	for i := range queries {
		p, err := queries[i].item.Predicate()
		if err != nil {
			t.Fatal(err)
		}
		queries[i].pred = p
	}

	// In-process expectation: the Scan baseline over the same data never
	// reorganizes, so it is a trustworthy oracle for arbitrary data.
	oracleDB, err := crackdb.Open(crackdb.MakeData(rows, 11), crackdb.Scan)
	if err != nil {
		t.Fatal(err)
	}
	defer oracleDB.Close()
	want := make([][]int64, len(queries))
	for i, q := range queries {
		res, err := oracleDB.Query(context.Background(), q.pred)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Owned()
		slices.Sort(want[i])
	}

	for _, mode := range []crackdb.Concurrency{crackdb.Single, crackdb.Shared, crackdb.Sharded(4)} {
		t.Run(mode.String(), func(t *testing.T) {
			db, err := crackdb.Open(crackdb.MakeData(rows, 11), crackdb.DD1R,
				crackdb.WithSeed(3), crackdb.WithConcurrency(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			s := New(db, Config{Info: Info{Rows: rows, Permutation: true}})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			c := NewClient(ts.URL, nil)

			const clients = 8
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// Each client walks the whole query list at its own
					// offset, so the same ranges hit the server in
					// different adaptation states.
					for k := 0; k < len(queries); k++ {
						i := (k + g*17) % len(queries)
						resp, err := c.Query(context.Background(), QueryRequest{QueryItem: queries[i].item})
						if err != nil {
							errc <- fmt.Errorf("client %d query %d: %w", g, i, err)
							return
						}
						got := slices.Clone(resp.Results[0].Values)
						slices.Sort(got)
						if !slices.Equal(got, want[i]) {
							errc <- fmt.Errorf("client %d query %d (%v): got %d values, want %d",
								g, i, queries[i].pred, len(got), len(want[i]))
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
		})
	}
}
