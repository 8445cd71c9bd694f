package cluster

import (
	"fmt"
	"net"
	"net/http"
	"time"

	crackdb "repro"
	"repro/internal/column"
	"repro/internal/server"
)

// LocalNodeConfig describes one in-process backend serving a value slice
// of the cluster dataset MakeData(N, Seed).
type LocalNodeConfig struct {
	// N is the cluster-wide row count; the node keeps the values of
	// MakeData(N, Seed) falling in [Lo, Hi).
	N    int64
	Seed uint64
	// Lo, Hi is the owned value range. Lo == Hi starts an empty node that
	// owns nothing — a joiner waiting for a migration.
	Lo, Hi    int64
	Algorithm string
	AuthToken string
	Options   []crackdb.Option
}

// SliceOf returns the values of the cluster dataset MakeData(n, seed)
// falling in [lo, hi), in the permutation's order: the data of the node
// owning that range. MakeData is a permutation of [0, n), so the node
// owns exactly the values of [lo, hi) ∩ [0, n) and the slice is sized
// once.
func SliceOf(n int64, seed uint64, lo, hi int64) []int64 {
	lo, hi = max(lo, 0), min(hi, n)
	if lo >= hi {
		return nil
	}
	values := column.Alloc(int(hi - lo))[:0]
	for _, v := range crackdb.MakeData(n, seed) {
		if v >= lo && v < hi {
			values = append(values, v)
		}
	}
	return values
}

// LocalNode is an in-process crackserver backend on a loopback port,
// used by the cluster tests and the benchmark module. It is a real HTTP
// server speaking the full v1 API — the coordinator cannot tell it from
// an out-of-process node.
type LocalNode struct {
	URL string
	Srv *server.Server

	hs *http.Server
	ln net.Listener
}

// StartLocalNode boots a backend per cfg on 127.0.0.1:0 and returns
// once it is serving. The DB runs in Shared mode: the node serves
// concurrent HTTP traffic.
func StartLocalNode(cfg LocalNodeConfig) (*LocalNode, error) {
	if cfg.Algorithm == "" {
		cfg.Algorithm = crackdb.DD1R
	}
	values := SliceOf(cfg.N, cfg.Seed, cfg.Lo, cfg.Hi)
	opts := append([]crackdb.Option{crackdb.WithConcurrency(crackdb.Shared)}, cfg.Options...)
	db, err := crackdb.Open(values, cfg.Algorithm, opts...)
	if err != nil {
		return nil, fmt.Errorf("cluster: local node [%d, %d): %w", cfg.Lo, cfg.Hi, err)
	}
	srv := server.New(db, server.Config{
		Info: server.Info{
			Rows:      int64(len(values)),
			Algorithm: cfg.Algorithm,
			Seed:      cfg.Seed,
			// One slice is never the full permutation; the coordinator
			// re-derives the cluster-wide flag from the slice layout.
			Permutation: false,
		},
		AuthToken: cfg.AuthToken,
		ShardLo:   cfg.Lo,
		ShardHi:   cfg.Hi,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	n := &LocalNode{
		URL: "http://" + ln.Addr().String(),
		Srv: srv,
		hs:  &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
	go func() { _ = n.hs.Serve(ln) }()
	return n, nil
}

// Close shuts the node's listener down immediately (in-flight requests
// are abandoned — this is a test/bench harness, not a graceful drain).
func (n *LocalNode) Close() { _ = n.hs.Close() }
