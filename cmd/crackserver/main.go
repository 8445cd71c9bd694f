// Command crackserver serves an adaptive cracking index over HTTP/JSON:
// the paper's "index refinement as a side effect of query processing",
// observable under real concurrent client traffic.
//
// The server builds the paper's dataset — a seeded random permutation of
// [0, n) — opens a crackdb.DB over it in the chosen concurrency mode, and
// serves range queries, lazy updates and live cracking telemetry (see
// internal/server for the endpoint reference):
//
//	crackserver -n 10000000 -algorithm dd1r -mode shared
//	crackserver -mode sharded-8 -inflight 256
//	crackserver -addr 127.0.0.1:0 -addr-file /tmp/addr   # CI: random port
//
// Because the data is a permutation, every answer is checkable against a
// closed-form oracle: [lo, hi) holds hi-lo values summing to
// (lo+hi-1)(hi-lo)/2, which is how CI validates the server over the wire.
//
// # Cluster mode
//
// With -shard-of, the server holds one contiguous value slice of a larger
// permutation and reports the owned range on /healthz; a coordinator
// (-coordinator -backends=...) value-routes queries and updates across
// such backends, scatter-gathers the answers, and migrates shard ranges
// live between nodes (see internal/cluster):
//
//	crackserver -addr :9001 -shard-of 1000000 -shard-lo 0      -shard-hi 500000
//	crackserver -addr :9002 -shard-of 1000000 -shard-lo 500000 -shard-hi 1000000
//	crackserver -addr :8080 -coordinator -backends=http://127.0.0.1:9001,http://127.0.0.1:9002
//
// Backends announcing the same [lo, hi) range form a replica set: the
// coordinator fans every update out to all of them, hedges reads across
// them, and keeps serving (and re-seeding the laggard) when one dies.
// -replicas makes the minimum per-range replica count a boot-time check;
// POST /v1/drain moves all of a node's ranges elsewhere for maintenance
// (see internal/cluster).
//
// # Multi-tenant catalog mode
//
// With -tables, one listener hosts several independent tables: each
// name:rows spec builds (or warm-starts) its own DB and server, and the
// /v1/tables/{name}/... surface dispatches to it — per-table admission
// (-table-inflight), per-table snapshots, per-table stats. -snapshot-store
// names a directory-backed snapshot store the whole catalog saves into
// and warm-starts from (keys tables/<name>.crks; a single-table server
// uses key db.crks), so a restarted or replacement process resumes every
// table's earned adaptation from shared storage:
//
//	crackserver -tables users:100000,orders:50000 -snapshot-store /var/lib/crackdb
//
// -snapshot FILE is the one-key form of the same store, for a
// single-table server: a file store rooted at FILE's directory, keyed by
// FILE's base name. It conflicts with -snapshot-store and with -tables
// (boot errors). Either way every table — the one DB of a single-table
// server or each catalog table — boots the same way: warm from its store
// key when the store holds it, cold from its data otherwise.
//
// -tls-cert/-tls-key serve HTTPS; -auth-token requires a bearer token on
// every request but GET /healthz (all modes).
//
// On SIGINT/SIGTERM the server drains gracefully: it stops accepting,
// waits up to -drain for in-flight requests, then cancels their contexts
// (the DB's query paths honor cancellation), saves a snapshot when
// -snapshot or -snapshot-store is set, and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	crackdb "repro"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/cluster/client"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:0 picks a random port)")
		addrFile = flag.String("addr-file", "", "write the resolved listen address to this file once serving (CI port discovery)")
		n        = flag.Int64("n", 1_000_000, "column size: the data is a seeded permutation of [0, n)")
		algo     = flag.String("algorithm", crackdb.DD1R, "cracking algorithm spec (see crackdb.Algorithms)")
		mode     = flag.String("mode", "shared", "concurrency mode: single, shared, or sharded-<k>")
		seed     = flag.Uint64("seed", 42, "seed for the data permutation and the stochastic algorithms")
		inflight = flag.Int("inflight", 0, "max in-flight data-plane requests before 429 (0: 8x worker pool; <0: unlimited)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-drain budget on SIGTERM before in-flight requests are canceled")
		snapPath = flag.String("snapshot", "", "snapshot file: warm-start from it when it exists (resuming all adaptation earned before the restart), and the save target for POST /v1/snapshot and -snapshot-interval (a one-key file store; not with -snapshot-store or -tables)")
		snapIntv = flag.Duration("snapshot-interval", 0, "periodically save a snapshot to -snapshot or -snapshot-store (0 disables)")
		parCrack = flag.Bool("parallel-crack", false, "crack large pieces with the chunked parallel kernel (values-only columns)")
		coarse   = flag.Int("coarse-init", 0, "coarse-granular initialization: pre-cut a cold build into this many pieces (0 disables; ignored on warm start)")

		groupCommit = flag.Int("group-commit", 0, "group-commit write batching: max ops per flush through one exclusive section (0 disables; shared/sharded modes only)")
		groupWait   = flag.Duration("group-wait", 200*time.Microsecond, "group-commit: max time the collector waits to fill a batch before flushing")
		admWait     = flag.Duration("admission-wait", 0, "bounded admission queue: how long a request at the -inflight limit may wait for a slot before 429 (0: fail fast)")

		tlsCert   = flag.String("tls-cert", "", "TLS certificate file; with -tls-key, serve HTTPS")
		tlsKey    = flag.String("tls-key", "", "TLS private key file")
		authToken = flag.String("auth-token", "", "require 'Authorization: Bearer <token>' on every request but GET /healthz")

		shardOf = flag.Int64("shard-of", 0, "cluster mode: this node holds the [-shard-lo, -shard-hi) value slice of a permutation of [0, shard-of) (overrides -n)")
		shardLo = flag.Int64("shard-lo", 0, "owned value range start (with -shard-of)")
		shardHi = flag.Int64("shard-hi", 0, "owned value range end, exclusive (with -shard-of)")

		tables        = flag.String("tables", "", "multi-tenant catalog mode: comma-separated name:rows specs, each served as its own DB under /v1/tables/<name>/ (overrides -n)")
		snapStore     = flag.String("snapshot-store", "", "snapshot store directory: warm-start from it and save snapshots into it (key db.crks, or tables/<name>.crks with -tables)")
		tableInflight = flag.Int("table-inflight", 0, "catalog mode: per-table max in-flight requests before 429 (0: 8x worker pool; <0: unlimited)")

		coordinator = flag.Bool("coordinator", false, "run as a cluster coordinator over -backends instead of serving data")
		backends    = flag.String("backends", "", "comma-separated backend base URLs for -coordinator")
		backendTok  = flag.String("backend-token", "", "bearer token the coordinator presents to its backends (default: -auth-token)")
		replicas    = flag.Int("replicas", 0, "coordinator: refuse to boot unless every range has at least this many replicas (0: no minimum)")
	)
	flag.Parse()

	if (*tlsCert == "") != (*tlsKey == "") {
		log.Fatalf("crackserver: -tls-cert and -tls-key go together")
	}

	if *coordinator {
		runCoordinator(*addr, *addrFile, *backends, *authToken, *backendTok, *tlsCert, *tlsKey, *drain, *replicas)
		return
	}

	conc, err := parseMode(*mode)
	if err != nil {
		log.Fatalf("crackserver: %v", err)
	}
	if *snapPath != "" && *snapStore != "" {
		log.Fatalf("crackserver: -snapshot and -snapshot-store conflict: give one snapshot destination")
	}
	if *snapPath != "" && *tables != "" {
		log.Fatalf("crackserver: -snapshot and -tables conflict: a catalog saves every table into -snapshot-store")
	}
	if *snapIntv > 0 && *snapPath == "" && *snapStore == "" {
		log.Fatalf("crackserver: -snapshot-interval needs -snapshot or -snapshot-store")
	}
	if *shardOf > 0 && !(0 <= *shardLo && *shardLo <= *shardHi && *shardHi <= *shardOf) {
		log.Fatalf("crackserver: need 0 <= -shard-lo <= -shard-hi <= -shard-of")
	}
	if *tables != "" && *shardOf > 0 {
		log.Fatalf("crackserver: -tables cannot combine with -shard-of")
	}

	// mkOpts builds the DB construction options for one table's seed (a
	// catalog derives each table's seed from its name). A live
	// restore/retain swap keeps them — group commit, parallel crack —
	// because the server rebuilds through DB.Reopen.
	mkOpts := func(seed uint64) []crackdb.Option {
		opts := []crackdb.Option{crackdb.WithSeed(seed), crackdb.WithConcurrency(conc)}
		if *parCrack {
			opts = append(opts, crackdb.WithParallelCrack())
		}
		if *coarse > 0 {
			// A warm start ignores this by contract: the snapshot's cracks are
			// recorded against the snapshot's layout, so Restore never pre-cuts.
			opts = append(opts, crackdb.WithCoarseInit(*coarse))
		}
		if *groupCommit > 0 {
			opts = append(opts, crackdb.WithGroupCommit(*groupCommit, *groupWait))
		}
		return opts
	}

	// The one snapshot destination: -snapshot FILE is a file store rooted
	// at FILE's directory holding the one key FILE's base name.
	var store crackdb.SnapshotStore
	storeDir, singleKey := *snapStore, "db.crks"
	if *snapPath != "" {
		storeDir, singleKey = filepath.Dir(*snapPath), filepath.Base(*snapPath)
	}
	if storeDir != "" {
		fileStore, err := crackdb.NewFileSnapshotStore(storeDir)
		if err != nil {
			log.Fatalf("crackserver: snapshot store %s: %v", storeDir, err)
		}
		store = fileStore
	}

	var tbls []table
	if *tables != "" {
		specs, err := parseTables(*tables)
		if err != nil {
			log.Fatalf("crackserver: %v", err)
		}
		for _, spec := range specs {
			// Each table is its own seeded permutation of [0, rows), the
			// seed derived from its name: every table stays oracle-checkable
			// and adding a table never reshuffles its neighbors.
			tseed := *seed ^ nameSeed(spec.name)
			tbls = append(tbls, table{
				name: spec.name, key: "tables/" + spec.name + ".crks", seed: tseed,
				data: func() []int64 {
					log.Printf("table %s: building %d-row permutation (seed %d)...", spec.name, spec.rows, tseed)
					return crackdb.MakeData(spec.rows, tseed)
				},
			})
		}
	} else {
		tbls = []table{{key: singleKey, seed: *seed, data: func() []int64 {
			if *shardOf == 0 {
				log.Printf("building %d-row permutation (seed %d)...", *n, *seed)
				return crackdb.MakeData(*n, *seed)
			}
			log.Printf("building [%d, %d) slice of a %d-row permutation (seed %d)...",
				*shardLo, *shardHi, *shardOf, *seed)
			var data []int64
			for _, v := range crackdb.MakeData(*shardOf, *seed) {
				if v >= *shardLo && v < *shardHi {
					data = append(data, v)
				}
			}
			return data
		}}}
	}

	// Boot every table the same way: warm start or cold build, then its
	// server. A catalog holds the auth token and per-table admission
	// limits; a single-table server holds both itself.
	servers := make([]*server.Server, len(tbls))
	for i, t := range tbls {
		db, restored := openTable(store, t, *algo, mkOpts(t.seed))
		defer db.Close()
		cfg := server.Config{
			MaxInFlight:   *inflight,
			AdmissionWait: *admWait,
			Info: server.Info{
				Rows: int64(db.Rows()), Algorithm: *algo, Seed: t.seed,
				// A slice is not the full permutation; the coordinator
				// re-derives the cluster-wide flag from how the slices tile.
				Permutation:   *shardOf == 0,
				ParallelCrack: *parCrack, CoarseInitPieces: *coarse,
			},
			Restored: restored,
		}
		if store != nil {
			cfg.SnapshotStore, cfg.SnapshotKey = store, t.key
		}
		if *tables != "" {
			cfg.MaxInFlight = *tableInflight
		} else {
			cfg.AuthToken, cfg.ShardLo, cfg.ShardHi = *authToken, *shardLo, *shardHi
		}
		servers[i] = server.New(db, cfg)
	}

	handler := servers[0].Handler()
	first := servers[0].Describe()
	banner := fmt.Sprintf("serving %s (%s)", first.Layout, first.Mode)
	switch {
	case *tables != "":
		cat := catalog.New(catalog.Config{AuthToken: *authToken})
		names := make([]string, len(tbls))
		for i, t := range tbls {
			if err := cat.Add(t.name, servers[i]); err != nil {
				log.Fatalf("crackserver: %v", err)
			}
			names[i] = t.name
		}
		handler = cat.Handler()
		banner = fmt.Sprintf("serving catalog of %d tables (%s)", len(tbls), strings.Join(names, ", "))
	case *shardOf > 0:
		banner = fmt.Sprintf("serving shard [%d, %d) of %d: %s (%s)",
			*shardLo, *shardHi, *shardOf, first.Layout, first.Mode)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic background saver: every tick captures each table through
	// the same drain path as POST /v1/snapshot.
	if *snapIntv > 0 {
		go func() {
			tick := time.NewTicker(*snapIntv)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					saveAll("periodic snapshot", tbls, servers)
				}
			}
		}()
	}

	serve(ctx, *addr, *addrFile, *tlsCert, *tlsKey, *drain, handler, banner)
	// Saving once serve has drained every request means a graceful restart
	// resumes with every write acknowledged before it. A crash or SIGKILL
	// still loses the writes made since the last save.
	if store != nil {
		saveAll("snapshot on exit", tbls, servers)
	}
}

// table is one DB crackserver serves: a catalog table, or the one DB of a
// single-table server (name "").
type table struct {
	name string
	key  string // snapshot store key
	seed uint64
	data func() []int64 // the cold build
}

// label prefixes a table's log lines ("" for a single-table server).
func (t table) label() string {
	if t.name == "" {
		return ""
	}
	return "table " + t.name + ": "
}

// openTable warm-starts t from its store key when the store holds it, and
// cold-builds it from t.data otherwise. A warm start restores into
// whatever -mode says: the snapshot re-cuts itself along new shard bounds
// if the count changed. Only a missing key falls through to a cold build;
// any other load error is fatal, because proceeding cold would let the
// next save overwrite a real snapshot with an unrefined index.
func openTable(store crackdb.SnapshotStore, t table, algo string, opts []crackdb.Option) (db *crackdb.DB, restored bool) {
	if store != nil {
		db, err := crackdb.OpenSnapshotFrom(store, t.key, algo, opts...)
		switch {
		case err == nil:
			log.Printf("%swarm start from store key %s: %d rows, %d pieces restored (%s)",
				t.label(), t.key, db.Rows(), db.Stats().Pieces, db.Mode())
			return db, true
		case !errors.Is(err, fs.ErrNotExist):
			log.Fatalf("crackserver: %swarm start from store key %s: %v", t.label(), t.key, err)
		}
		// Cold start; the first save will create the key.
	}
	db, err := crackdb.Open(t.data(), algo, opts...)
	if err != nil {
		log.Fatalf("crackserver: %s%v", t.label(), err)
	}
	return db, false
}

// saveAll captures every table into its store key. A table whose save
// fails logs and leaves the other tables' saves alone.
func saveAll(what string, tbls []table, servers []*server.Server) {
	for i, srv := range servers {
		if info, err := srv.SaveSnapshot(); err != nil {
			log.Printf("%s%s: %v", tbls[i].label(), what, err)
		} else {
			log.Printf("%s%s: %d pieces -> %s (%d bytes, %dms)",
				tbls[i].label(), what, info.Pieces, info.Path, info.Bytes, info.ElapsedMS)
		}
	}
}

// tableSpec is one parsed -tables entry.
type tableSpec struct {
	name string
	rows int64
}

// parseTables parses the -tables spec list ("users:100000,orders:50000").
func parseTables(list string) ([]tableSpec, error) {
	var specs []tableSpec
	seen := make(map[string]bool)
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, rowsStr, ok := strings.Cut(item, ":")
		if !ok {
			return nil, fmt.Errorf("bad -tables entry %q (want name:rows)", item)
		}
		if err := catalog.ValidName(name); err != nil {
			return nil, err
		}
		rows, err := strconv.ParseInt(rowsStr, 10, 64)
		if err != nil || rows < 1 {
			return nil, fmt.Errorf("bad row count in -tables entry %q", item)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate table %q in -tables", name)
		}
		seen[name] = true
		specs = append(specs, tableSpec{name: name, rows: rows})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-tables needs at least one name:rows entry")
	}
	return specs, nil
}

// nameSeed folds a table name into a seed offset (FNV-1a), so each
// table's permutation is distinct but stable across restarts and
// independent of the -tables spec order.
func nameSeed(name string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return h.Sum64()
}

// runCoordinator boots the scatter-gather coordinator over the given
// backend URLs and serves the same v1 API surface.
func runCoordinator(addr, addrFile, backendList, authToken, backendTok, tlsCert, tlsKey string, drain time.Duration, replicas int) {
	var urls []string
	for _, u := range strings.Split(backendList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		log.Fatalf("crackserver: -coordinator needs -backends=url1,url2,...")
	}
	if backendTok == "" {
		backendTok = authToken
	}
	bootCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	coord, err := cluster.New(bootCtx, urls, cluster.Config{
		Client:    client.Config{Token: backendTok},
		AuthToken: authToken,
		Replicas:  replicas,
	})
	if err != nil {
		log.Fatalf("crackserver: %v", err)
	}
	defer coord.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	banner := fmt.Sprintf("coordinating %d rows across %d backends", coord.Rows(), len(urls))
	serve(ctx, addr, addrFile, tlsCert, tlsKey, drain, coord.Handler(), banner)
}

// serve runs handler on addr (TLS when cert/key are set) until ctx is
// done, then drains gracefully within the drain budget.
func serve(ctx context.Context, addr, addrFile, tlsCert, tlsKey string, drain time.Duration, handler http.Handler, banner string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("crackserver: %v", err)
	}
	resolved := ln.Addr().String()
	if addrFile != "" {
		// Write-then-rename so a polling reader never sees a partial file.
		tmp := addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(resolved), 0o644); err != nil {
			log.Fatalf("crackserver: %v", err)
		}
		if err := os.Rename(tmp, addrFile); err != nil {
			log.Fatalf("crackserver: %v", err)
		}
	}

	// baseCtx cancels every in-flight request's context when the drain
	// budget runs out; until then Shutdown lets them finish.
	baseCtx, cancelRequests := context.WithCancel(context.Background())
	defer cancelRequests()
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	serveErr := make(chan error, 1)
	scheme := "http"
	if tlsCert != "" {
		scheme = "https"
		go func() { serveErr <- hs.ServeTLS(ln, tlsCert, tlsKey) }()
	} else {
		go func() { serveErr <- hs.Serve(ln) }()
	}
	log.Printf("%s on %s://%s", banner, scheme, displayAddr(resolved))

	select {
	case err := <-serveErr:
		log.Fatalf("crackserver: %v", err)
	case <-ctx.Done():
	}

	log.Printf("draining (up to %v)...", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain budget exceeded; canceling in-flight requests: %v", err)
		cancelRequests()
		if err := hs.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	log.Printf("bye")
}

// parseMode maps "single", "shared", "sharded-<k>" to a crackdb
// concurrency mode.
func parseMode(mode string) (crackdb.Concurrency, error) {
	m := strings.ToLower(strings.TrimSpace(mode))
	switch {
	case m == "single":
		return crackdb.Single, nil
	case m == "shared":
		return crackdb.Shared, nil
	case strings.HasPrefix(m, "sharded-"):
		k, err := strconv.Atoi(strings.TrimPrefix(m, "sharded-"))
		if err != nil || k < 1 {
			return crackdb.Concurrency{}, fmt.Errorf("bad shard count in mode %q", mode)
		}
		return crackdb.Sharded(k), nil
	}
	return crackdb.Concurrency{}, fmt.Errorf("unknown mode %q (single, shared, sharded-<k>)", mode)
}

// displayAddr rewrites a wildcard listen address to a dialable one for
// the startup log line.
func displayAddr(addr string) string {
	if host, port, err := net.SplitHostPort(addr); err == nil {
		if host == "" || host == "::" || host == "0.0.0.0" {
			return net.JoinHostPort("127.0.0.1", port)
		}
	}
	return addr
}
