package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	crackdb "repro"
	"repro/internal/catalog"
	"repro/internal/cluster"
	clusterclient "repro/internal/cluster/client"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/server"
	"repro/internal/updates"
)

// target is one rung of the layer ladder: the same three operations,
// entered through one layer's public functions. query appends the values of
// [lo, hi) to dst (wire rungs return the decoded slice instead).
type target interface {
	query(lo, hi int64, dst []int64) ([]int64, error)
	insert(v int64) error
	remove(v int64) error
	close()
}

// errReadOnly marks rungs below the pending-update layer: the ladder skips
// their writes.
var errReadOnly = errors.New("benchmark: rung takes no writes")

// rung names one layer entry point and the rung whose time is subtracted
// from it to give the layer's self time.
type rung struct {
	name  string
	below string
	self  string // per-layer metric carrying rung minus below ("" for the base rung)
	wire  bool   // self time reported in us, not ns
}

// ladder is ordered bottom-up; every traced run climbs all of it on the
// workload's own ops.
var ladder = []rung{
	{name: "core"},
	{name: "updates", below: "core", self: "updates.self_ns_per_query"},
	{name: "exec", below: "updates", self: "exec.self_ns_per_query"},
	{name: "exec.sharded", below: "exec", self: "exec.sharded_self_ns_per_query"},
	{name: "crackdb.single", below: "updates", self: "crackdb.single_self_ns_per_query"},
	{name: "crackdb.shared", below: "exec", self: "crackdb.shared_self_ns_per_query"},
	{name: "crackdb.sharded", below: "exec.sharded", self: "crackdb.sharded_self_ns_per_query"},
	{name: "table", below: "crackdb.shared", self: "table.self_ns_per_query"},
	{name: "server.handler", below: "crackdb.shared", self: "server.handler_self_us", wire: true},
	{name: "server", below: "server.handler", self: "server.transport_self_us", wire: true},
	{name: "catalog", below: "server", self: "catalog.self_us", wire: true},
	{name: "cluster.handler", below: "server", self: "cluster.handler_self_us", wire: true},
	{name: "cluster", below: "server", self: "cluster.self_us", wire: true},
}

// stack says what to build a rung over: its own copy of the data (the rung
// owns and reorganises it), the data's size and generating seed (cluster
// nodes regenerate their halves), and the algorithm seed.
type stack struct {
	values   []int64
	n        int64
	dataSeed uint64
	algoSeed uint64
}

var bg = context.Background()

// buildRung constructs the named rung cold.
func buildRung(name string, s stack) (target, error) {
	opt := core.Options{Seed: s.algoSeed}
	seed := crackdb.WithSeed(s.algoSeed)
	switch name {
	case "core":
		ix, err := core.Build(s.values, algorithm, opt)
		if err != nil {
			return nil, err
		}
		return &coreTarget{ix: ix}, nil
	case "updates":
		u, err := buildUpdates(s.values, opt)
		if err != nil {
			return nil, err
		}
		return &updatesTarget{u: u}, nil
	case "exec":
		u, err := buildUpdates(s.values, opt)
		if err != nil {
			return nil, err
		}
		return &execTarget{x: exec.New(u)}, nil
	case "exec.sharded":
		sh, err := exec.NewSharded(s.values, algorithm, 2, opt)
		if err != nil {
			return nil, err
		}
		return &shardedTarget{sh: sh}, nil
	case "crackdb.single":
		return openDB(s.values, seed)
	case "crackdb.shared":
		return openDB(s.values, seed, crackdb.WithConcurrency(crackdb.Shared))
	case "crackdb.sharded":
		return openDB(s.values, seed, crackdb.WithConcurrency(crackdb.Sharded(2)))
	case "crackdb.groupcommit":
		return openDB(s.values, seed, crackdb.WithConcurrency(crackdb.Shared), crackdb.WithGroupCommit(0, 0))
	case "table":
		db, err := crackdb.OpenTable(map[string][]int64{"v": s.values}, algorithm,
			seed, crackdb.WithConcurrency(crackdb.Shared))
		if err != nil {
			return nil, err
		}
		return &dbTarget{db: db}, nil
	case "server.handler", "server", "catalog":
		return buildServer(name, s)
	case "cluster.handler", "cluster":
		return buildCluster(name, s)
	}
	return nil, fmt.Errorf("benchmark: unknown rung %q", name)
}

func buildUpdates(values []int64, opt core.Options) (*updates.Index, error) {
	ix, err := core.Build(values, algorithm, opt)
	if err != nil {
		return nil, err
	}
	u, ok := updates.Wrap(ix)
	if !ok {
		return nil, fmt.Errorf("benchmark: %s is not engine-backed", algorithm)
	}
	return u, nil
}

func openDB(values []int64, opts ...crackdb.Option) (*dbTarget, error) {
	start := time.Now()
	db, err := crackdb.Open(values, algorithm, opts...)
	if err != nil {
		return nil, err
	}
	return &dbTarget{db: db, open: time.Since(start)}, nil
}

type coreTarget struct{ ix core.Index }

func (t *coreTarget) query(lo, hi int64, dst []int64) ([]int64, error) {
	return t.ix.Query(lo, hi).Materialize(dst), nil
}
func (t *coreTarget) insert(int64) error { return errReadOnly }
func (t *coreTarget) remove(int64) error { return errReadOnly }
func (t *coreTarget) close()             {}

type updatesTarget struct{ u *updates.Index }

func (t *updatesTarget) query(lo, hi int64, dst []int64) ([]int64, error) {
	return t.u.Query(lo, hi).Materialize(dst), nil
}
func (t *updatesTarget) insert(v int64) error { t.u.Insert(v); return nil }
func (t *updatesTarget) remove(v int64) error { t.u.Delete(v); return nil }
func (t *updatesTarget) close()               {}

type execTarget struct{ x *exec.Executor }

func (t *execTarget) query(lo, hi int64, dst []int64) ([]int64, error) {
	return t.x.QueryAppendCtx(bg, lo, hi, dst)
}
func (t *execTarget) insert(v int64) error { return t.x.Insert(v) }
func (t *execTarget) remove(v int64) error { return t.x.Delete(v) }
func (t *execTarget) close()               {}

type shardedTarget struct{ sh *exec.Sharded }

func (t *shardedTarget) query(lo, hi int64, dst []int64) ([]int64, error) {
	vals, err := t.sh.QueryCtx(bg, lo, hi)
	return append(dst, vals...), err
}
func (t *shardedTarget) insert(v int64) error { return t.sh.Insert(v) }
func (t *shardedTarget) remove(v int64) error { return t.sh.Delete(v) }
func (t *shardedTarget) close()               {}

type dbTarget struct {
	db   *crackdb.DB
	open time.Duration
}

func (t *dbTarget) query(lo, hi int64, dst []int64) ([]int64, error) {
	return t.db.QueryAppend(bg, crackdb.Range(lo, hi), dst)
}
func (t *dbTarget) insert(v int64) error { return t.db.Insert(v) }
func (t *dbTarget) remove(v int64) error { return t.db.Delete(v) }
func (t *dbTarget) close()               { _ = t.db.Close() }

// clientTarget drives any rung that speaks the v1 wire API: a server or a
// coordinator, reached over a loopback socket or through handlerTransport.
type clientTarget struct {
	c       *server.Client
	closers []func()
}

func (t *clientTarget) query(lo, hi int64, _ []int64) ([]int64, error) {
	res, err := t.c.QueryRange(bg, lo, hi)
	if err != nil {
		return nil, err
	}
	if res.Count != len(res.Values) {
		return nil, fmt.Errorf("benchmark: response count %d over %d values", res.Count, len(res.Values))
	}
	return res.Values, nil
}
func (t *clientTarget) insert(v int64) error { _, err := t.c.Insert(bg, v); return err }
func (t *clientTarget) remove(v int64) error { _, err := t.c.Delete(bg, v); return err }
func (t *clientTarget) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// handlerTransport answers requests by calling the handler in memory: the
// client's and the handler's JSON and routing run, the socket does not.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// keepAlive is a fresh transport per stack, so one stack's idle connections
// never serve another and close() can drop them.
func keepAlive() *http.Transport {
	return &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
}

// serve puts h on a loopback port and returns its URL and a stop function
// that returns once the listener goroutine has exited.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed after hs.Close
	}()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close(); <-done }, nil
}

func buildServer(name string, s stack) (target, error) {
	db, err := crackdb.Open(s.values, algorithm, crackdb.WithSeed(s.algoSeed), crackdb.WithConcurrency(crackdb.Shared))
	if err != nil {
		return nil, err
	}
	srv := server.New(db, server.Config{Info: server.Info{
		Rows: s.n, Algorithm: algorithm, Seed: s.dataSeed, Permutation: true,
	}})
	t := &clientTarget{closers: []func(){func() { _ = db.Close() }}}
	if name == "server.handler" {
		t.c = server.NewClient("http://in-memory", &http.Client{Transport: handlerTransport{srv.Handler()}})
		return t, nil
	}
	h, opts := srv.Handler(), []server.ClientOption(nil)
	if name == "catalog" {
		cat := catalog.New(catalog.Config{})
		if err := cat.Add("bench", srv); err != nil {
			t.close()
			return nil, err
		}
		h, opts = cat.Handler(), []server.ClientOption{server.WithTable("bench")}
	}
	url, stop, err := serve(h)
	if err != nil {
		t.close()
		return nil, err
	}
	tr := keepAlive()
	t.closers = append(t.closers, stop, tr.CloseIdleConnections)
	t.c = server.NewClient(url, &http.Client{Transport: tr}, opts...)
	return t, nil
}

// buildCluster boots two local nodes owning the halves of the value domain
// and a coordinator over them. The nodes regenerate MakeData(n, dataSeed)
// themselves; s.values is not used.
func buildCluster(name string, s stack) (target, error) {
	t := &clientTarget{}
	backendTr := keepAlive()
	t.closers = append(t.closers, backendTr.CloseIdleConnections)
	var urls []string
	for i := int64(0); i < 2; i++ {
		nd, err := cluster.StartLocalNode(cluster.LocalNodeConfig{
			N: s.n, Seed: s.dataSeed, Lo: s.n * i / 2, Hi: s.n * (i + 1) / 2, Algorithm: algorithm,
			Options: []crackdb.Option{crackdb.WithSeed(s.algoSeed)},
		})
		if err != nil {
			t.close()
			return nil, err
		}
		t.closers = append(t.closers, nd.Close)
		urls = append(urls, nd.URL)
	}
	bootCtx, cancel := context.WithTimeout(bg, 30*time.Second)
	coord, err := cluster.New(bootCtx, urls, cluster.Config{
		Client: clusterclient.Config{HTTPClient: &http.Client{Transport: backendTr}},
	})
	cancel()
	if err != nil {
		t.close()
		return nil, err
	}
	t.closers = append(t.closers, coord.Close)
	if name == "cluster.handler" {
		t.c = server.NewClient("http://in-memory", &http.Client{Transport: handlerTransport{coord.Handler()}})
		return t, nil
	}
	url, stop, err := serve(coord.Handler())
	if err != nil {
		t.close()
		return nil, err
	}
	tr := keepAlive()
	t.closers = append(t.closers, stop, tr.CloseIdleConnections)
	t.c = server.NewClient(url, &http.Client{Transport: tr})
	return t, nil
}
