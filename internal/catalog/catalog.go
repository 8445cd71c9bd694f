// Package catalog is the multi-tenant serving layer: a set of named
// tables, each one an independent server.Server over its own crackdb.DB,
// published behind a single HTTP surface.
//
//	GET /v1/tables              — list every table with its identity facts
//	GET /v1/tables/{name}       — one table's identity facts
//	/v1/tables/{name}/{rest...} — dispatch into the named table's server
//	                              with the path rewritten to /v1/{rest}
//	                              ("healthz" and "debug/..." keep their
//	                              roots), so every single-table endpoint —
//	                              query, insert, delete, snapshot, stats,
//	                              restore — exists per table unchanged
//	GET /healthz                — catalog-level readiness: every table's
//	                              status in one probe
//
// Tenant isolation is by construction, not bookkeeping: each table owns
// its DB, its admission limit (server.Config.MaxInFlight per table), its
// snapshot destination, and its serial lock when Single-mode. A tenant
// saturating its admission slots gets its own 429s; neighbors keep their
// slots. The catalog adds no locks on the data plane — dispatch is a map
// lookup and a path rewrite.
//
// When Config.AuthToken is set the catalog guards everything except GET
// /healthz with server.BearerAuth, the same check a single server and the
// coordinator use. Per-table servers should then be constructed without
// their own AuthToken — auth is a property of the shared listener, not of
// each tenant.
package catalog

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/server"
)

// Config carries the catalog-level knobs.
type Config struct {
	// AuthToken, when non-empty, requires every request except GET
	// /healthz to carry "Authorization: Bearer <token>" (401 otherwise).
	AuthToken string
}

// Catalog routes table-scoped requests to named per-table servers.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*server.Server

	handler http.Handler // the mux behind server.BearerAuth
}

// New builds an empty catalog; register tables with Add before serving.
func New(cfg Config) *Catalog {
	c := &Catalog{tables: make(map[string]*server.Server)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tables", c.handleList)
	mux.HandleFunc("GET /v1/tables/{name}", c.handleDescribe)
	mux.HandleFunc("/v1/tables/{name}/{rest...}", c.handleDispatch)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	c.handler = server.BearerAuth(cfg.AuthToken, mux)
	return c
}

// Add registers srv as table name. Names become URL path segments, so
// they are restricted to letters, digits, '.', '_' and '-'; duplicates
// are rejected. The catalog does not own the server's DB — the caller
// closes DBs after the HTTP server has drained.
func (c *Catalog) Add(name string, srv *server.Server) error {
	if err := ValidName(name); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[name]; dup {
		return fmt.Errorf("catalog: duplicate table %q", name)
	}
	c.tables[name] = srv
	return nil
}

// ValidName reports whether name can be a table name: non-empty, at most
// 128 bytes, letters, digits, '.', '_' and '-' only. This keeps names
// safe as both URL path segments and snapshot-store key segments.
func ValidName(name string) error {
	if name == "" {
		return fmt.Errorf("catalog: empty table name")
	}
	if len(name) > 128 {
		return fmt.Errorf("catalog: table name longer than 128 bytes")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("catalog: table name %q: only letters, digits, '.', '_', '-' allowed", name)
		}
	}
	return nil
}

// Table returns the named table's server, if registered.
func (c *Catalog) Table(name string) (*server.Server, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	srv, ok := c.tables[name]
	return srv, ok
}

// Names returns the registered table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for name := range c.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Handler returns the catalog's HTTP handler: its mux behind
// server.BearerAuth with Config.AuthToken.
func (c *Catalog) Handler() http.Handler { return c.handler }

// ListResponse is the body of GET /v1/tables.
type ListResponse struct {
	Tables []server.TableInfo `json:"tables"`
}

func (c *Catalog) handleList(w http.ResponseWriter, r *http.Request) {
	infos := c.describeAll()
	server.WriteJSON(w, http.StatusOK, ListResponse{Tables: infos})
}

func (c *Catalog) describeAll() []server.TableInfo {
	names := c.Names()
	infos := make([]server.TableInfo, 0, len(names))
	for _, name := range names {
		srv, ok := c.Table(name)
		if !ok {
			continue
		}
		info := srv.Describe()
		info.Name = name
		infos = append(infos, info)
	}
	return infos
}

func (c *Catalog) handleDescribe(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	srv, ok := c.Table(name)
	if !ok {
		writeUnknownTable(w, name)
		return
	}
	info := srv.Describe()
	info.Name = name
	server.WriteJSON(w, http.StatusOK, info)
}

// handleDispatch forwards /v1/tables/{name}/{rest...} into the named
// table's server with the table prefix stripped: rest "query" becomes
// /v1/query, "healthz" becomes /healthz, "debug/metrics" stays rooted.
// The request context, body, method and query string pass through
// untouched, so per-table admission, cancellation and error mapping all
// behave exactly as on a single-table server.
func (c *Catalog) handleDispatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	srv, ok := c.Table(name)
	if !ok {
		writeUnknownTable(w, name)
		return
	}
	rest := r.PathValue("rest")
	r2 := r.Clone(r.Context())
	switch {
	case rest == "healthz":
		r2.URL.Path = "/healthz"
	case strings.HasPrefix(rest, "debug/"):
		r2.URL.Path = "/" + rest
	default:
		r2.URL.Path = "/v1/" + rest
	}
	r2.URL.RawPath = ""
	srv.Handler().ServeHTTP(w, r2)
}

// HealthResponse is the body of the catalog's GET /healthz: one row per
// table, so a single probe answers for the whole tenancy.
type HealthResponse struct {
	Status string             `json:"status"`
	Tables []server.TableInfo `json:"tables"`
}

func (c *Catalog) handleHealth(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok", Tables: c.describeAll()})
}

func writeUnknownTable(w http.ResponseWriter, name string) {
	server.WriteError(w, http.StatusNotFound, "unknown_table",
		fmt.Sprintf("unknown table %q (GET /v1/tables lists the catalog)", name))
}
