// Package client is the cluster coordinator's resilient view of one
// crackserver backend: the plain wire client (internal/server.Client)
// wrapped with per-attempt timeouts, bounded retries with exponential
// backoff, failover across a range's replicas, and a circuit breaker
// whose state the coordinator surfaces in /debug/metrics.
//
// The retry policy is deliberately asymmetric. Reads are idempotent —
// answering a range query twice refines the index twice but returns the
// same tuples — so they retry on any transport error or 5xx/429. Updates
// are not: a retried insert that actually landed the first time would
// put a duplicate tuple in the column and silently break the oracle. So
// updates retry only on errors where the request provably never reached
// the index: connection refusals and the server's own fast-reject
// statuses (429 over-capacity, 503 closed), both sent before any state
// changed.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// Config is the per-backend resilience policy.
type Config struct {
	// Timeout bounds each attempt (default 5s).
	Timeout time.Duration
	// Retries is the number of repeat passes over a replica set (for one
	// backend, re-attempts) after the first try (default 2; updates
	// retry only under their own narrow rule).
	Retries int
	// Backoff is the sleep before the first repeat, doubling per repeat
	// (default 25ms).
	Backoff time.Duration
	// FailThreshold is the number of consecutive failures that opens the
	// circuit (default 3).
	FailThreshold int
	// Cooldown is how long an open circuit rejects calls before letting a
	// probe through (default 2s).
	Cooldown time.Duration
	// Token is the bearer token for backends started with -auth-token.
	Token string
	// HTTPClient overrides the transport (TLS config for self-signed
	// certs); nil uses http.DefaultClient.
	HTTPClient *http.Client
}

func (cfg Config) withDefaults() Config {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 25 * time.Millisecond
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	return cfg
}

// ErrCircuitOpen is returned without touching the network while a
// backend's circuit is open (inside the cooldown window).
var ErrCircuitOpen = errors.New("cluster: backend circuit open")

// circuit states.
const (
	circuitClosed int32 = iota
	circuitOpen
	circuitHalfOpen
)

// Backend is one crackserver endpoint behind the resilience policy. Safe
// for concurrent use.
type Backend struct {
	url string
	api *server.Client
	cfg Config

	// mu guards the circuit state machine.
	mu       sync.Mutex
	state    int32
	fails    int
	openedAt time.Time

	// counters for /debug/metrics (guarded by mu too; they move on the
	// same transitions).
	retries int64
	trips   int64
}

// New builds a Backend for the crackserver at url.
func New(url string, cfg Config) *Backend {
	cfg = cfg.withDefaults()
	var opts []server.ClientOption
	if cfg.Token != "" {
		opts = append(opts, server.WithToken(cfg.Token))
	}
	return &Backend{
		url: url,
		api: server.NewClient(url, cfg.HTTPClient, opts...),
		cfg: cfg,
	}
}

// URL returns the backend's base URL.
func (b *Backend) URL() string { return b.url }

// CircuitState reports the circuit for metrics: "closed", "open" or
// "half-open", plus the consecutive-failure count and how often the
// breaker tripped.
func (b *Backend) CircuitState() (state string, consecutiveFails int, trips int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case circuitOpen:
		state = "open"
	case circuitHalfOpen:
		state = "half-open"
	default:
		state = "closed"
	}
	return state, b.fails, b.trips
}

// ResetCircuit force-closes the breaker. The coordinator calls this
// when it has out-of-band evidence the backend is back — an operator
// recover request or a passed health probe — so catch-up traffic is not
// rejected by a cooldown left over from the outage it is repairing.
func (b *Backend) ResetCircuit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = circuitClosed
	b.fails = 0
}

// Retries reports how many re-attempts the backend has been sent, for
// metrics.
func (b *Backend) Retries() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.retries
}

// allow gates an attempt on the circuit: open circuits reject until the
// cooldown elapses, then let probes through half-open. An admitted
// retry is counted.
func (b *Backend) allow(retry bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == circuitOpen {
		if time.Since(b.openedAt) < b.cfg.Cooldown {
			return fmt.Errorf("%w (%s)", ErrCircuitOpen, b.url)
		}
		b.state = circuitHalfOpen
	}
	if retry {
		b.retries++
	}
	return nil
}

// record feeds an attempt's outcome into the circuit. Only backend-health
// failures count: transport errors and 5xx. Client-side errors (4xx,
// canceled contexts) say nothing about the backend.
func (b *Backend) record(err error) {
	healthy := err == nil || !countsAsFailure(err)
	b.mu.Lock()
	defer b.mu.Unlock()
	if healthy {
		b.state = circuitClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == circuitHalfOpen || b.fails >= b.cfg.FailThreshold {
		if b.state != circuitOpen {
			b.trips++
		}
		b.state = circuitOpen
		b.openedAt = time.Now()
	}
}

// countsAsFailure classifies an error as evidence of backend trouble.
func countsAsFailure(err error) bool {
	var apiErr *server.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500
	}
	// 429 is load shedding, not ill health; everything else that is not a
	// caller-side cancellation is transport-level trouble.
	return !errors.Is(err, context.Canceled)
}

// retriableRead reports whether a read is worth re-attempting.
func retriableRead(err error) bool {
	var apiErr *server.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500 || apiErr.Status == http.StatusTooManyRequests
	}
	return !errors.Is(err, context.Canceled)
}

// ProvablyNotApplied reports whether a failed update provably never
// reached the backend's index: connection refusals, the fast-reject
// statuses (429, 503) sent before any state changed, and an open
// circuit. It is the update retry rule, and the coordinator's
// replication layer keys its journal on it — an op that provably missed
// a replica can be queued and replayed later without double-apply risk,
// while an ambiguous failure forces a full re-seed of that replica
// instead.
func ProvablyNotApplied(err error) bool {
	var apiErr *server.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status == http.StatusTooManyRequests ||
			apiErr.Status == http.StatusServiceUnavailable
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) && errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	return errors.Is(err, ErrCircuitOpen)
}

// call is every backend call: fn under the per-attempt timeout, fed to
// each backend's circuit, in passes over the replica set bs (one backend
// is a set of one; bs[0]'s Config sets the retry schedule). A pass asks
// each replica once, in order, and the first answer wins, so a dead
// replica costs one failed attempt and an open-circuited one none. An
// error retriable refuses (any error, for a nil rule) returns at once.
// Only a pass in which some replica failed retriably backs off (Backoff,
// doubling) and repeats, up to Retries more passes: a pass whose every
// attempt the circuits refused ends the call at once, as no circuit
// closes within one backoff.
func call[T any](ctx context.Context, bs []*Backend, retriable func(error) bool, timeout time.Duration,
	fn func(*server.Client, context.Context) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for pass := 0; ; pass++ {
		again := false
		for _, b := range bs {
			if err := ctx.Err(); err != nil {
				return zero, err
			}
			if err := b.allow(pass > 0); err != nil {
				lastErr = err
				continue
			}
			actx, cancel := context.WithTimeout(ctx, timeout)
			out, err := fn(b.api, actx)
			cancel()
			b.record(err)
			if err == nil {
				return out, nil
			}
			if retriable == nil || !retriable(err) {
				return zero, err
			}
			lastErr, again = err, true
		}
		if !again || pass == bs[0].cfg.Retries {
			return zero, lastErr
		}
		select {
		case <-ctx.Done():
			return zero, ctx.Err()
		case <-time.After(bs[0].cfg.Backoff << pass):
		}
	}
}

// QueryAcross answers one read against a replica set, preferred replica
// first, failing over to the next replica when an attempt errors or a
// circuit refuses it, with the read retry rule (see call). It fails only
// when every replica has failed.
func QueryAcross(ctx context.Context, bs []*Backend, req server.QueryRequest) (server.QueryResponse, error) {
	if len(bs) == 0 {
		return server.QueryResponse{}, errors.New("cluster: no replicas to query")
	}
	return call(ctx, bs, retriableRead, bs[0].cfg.Timeout, func(api *server.Client, ctx context.Context) (server.QueryResponse, error) {
		return api.Query(ctx, req)
	})
}

// Insert queues values on the backend, retrying only when the request
// provably never applied.
func (b *Backend) Insert(ctx context.Context, values ...int64) (pending int, err error) {
	return call(ctx, []*Backend{b}, ProvablyNotApplied, b.cfg.Timeout, func(api *server.Client, ctx context.Context) (int, error) {
		return api.Insert(ctx, values...)
	})
}

// Delete queues value removals, with the update retry policy.
func (b *Backend) Delete(ctx context.Context, values ...int64) (pending int, err error) {
	return call(ctx, []*Backend{b}, ProvablyNotApplied, b.cfg.Timeout, func(api *server.Client, ctx context.Context) (int, error) {
		return api.Delete(ctx, values...)
	})
}

// Health fetches the backend's readiness payload (no retries: the health
// loop is itself the retry).
func (b *Backend) Health(ctx context.Context) (server.HealthResponse, error) {
	return call(ctx, []*Backend{b}, nil, b.cfg.Timeout, (*server.Client).Health)
}

// Stats fetches the backend's /v1/stats, with read retries.
func (b *Backend) Stats(ctx context.Context) (server.StatsResponse, error) {
	return call(ctx, []*Backend{b}, retriableRead, b.cfg.Timeout, (*server.Client).Stats)
}

// SnapshotRange pulls the manifest stream of [lo, hi) from the backend —
// the donor side of a migration. One attempt, under the read timeout
// scaled up for the payload.
func (b *Backend) SnapshotRange(ctx context.Context, lo, hi int64) ([]byte, error) {
	return call(ctx, []*Backend{b}, nil, 4*b.cfg.Timeout, func(api *server.Client, ctx context.Context) ([]byte, error) {
		return api.SnapshotRange(ctx, lo, hi)
	})
}

// RestoreSnapshot feeds a manifest stream to the backend's POST
// /v1/restore, declaring [lo, hi) as the range the node owns afterwards
// — the joiner side of a migration. One attempt (a replayed restore is
// harmless but a timeout here should surface, not loop).
func (b *Backend) RestoreSnapshot(ctx context.Context, stream []byte, lo, hi int64) (server.RestoreResponse, error) {
	return call(ctx, []*Backend{b}, nil, 4*b.cfg.Timeout, func(api *server.Client, ctx context.Context) (server.RestoreResponse, error) {
		return api.RestoreSnapshot(ctx, stream, lo, hi)
	})
}

// Drain flips the backend's own drain flag (POST /v1/drain) so its
// /healthz reports draining — best-effort bookkeeping at the end of a
// coordinator drain. One attempt; the routing table, not this flag, is
// what stops traffic.
func (b *Backend) Drain(ctx context.Context) (server.DrainResponse, error) {
	return call(ctx, []*Backend{b}, nil, b.cfg.Timeout, (*server.Client).Drain)
}

// Retain asks the backend to shrink to [lo, hi) — the donor's final
// migration step. One attempt, under the scaled-up timeout.
func (b *Backend) Retain(ctx context.Context, lo, hi int64) (server.RestoreResponse, error) {
	return call(ctx, []*Backend{b}, nil, 4*b.cfg.Timeout, func(api *server.Client, ctx context.Context) (server.RestoreResponse, error) {
		return api.Retain(ctx, lo, hi)
	})
}
