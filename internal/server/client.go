package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client is a minimal Go client for the crackserver wire protocol, used
// by the cluster layer, the benchmark module and the integration tests.
// It is safe for concurrent use (http.Client is).
type Client struct {
	base  string
	hc    *http.Client
	token string
	table string
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithToken sets the bearer token sent as "Authorization: Bearer
// <token>" on every request, matching the server's Config.AuthToken.
func WithToken(token string) ClientOption {
	return func(c *Client) { c.token = token }
}

// WithTable scopes the client to one table of a multi-tenant catalog
// server (crackserver -tables): every endpoint path is rewritten under
// /v1/tables/<name>/, so the whole client API — queries, updates,
// snapshots, stats, health — addresses that table.
func WithTable(name string) ClientOption {
	return func(c *Client) { c.table = name }
}

// path rewrites an endpoint path for the configured table scope:
// /v1/query becomes /v1/tables/<name>/query, /healthz becomes
// /v1/tables/<name>/healthz. Query strings pass through untouched.
func (c *Client) path(p string) string {
	if c.table == "" {
		return p
	}
	return "/v1/tables/" + c.table + strings.TrimPrefix(p, "/v1")
}

// NewClient builds a client for the server at base (e.g.
// "http://127.0.0.1:8080"). hc nil means http.DefaultClient; pass a
// custom client to set timeouts or a TLS config (self-signed certs).
func NewClient(base string, hc *http.Client, opts ...ClientOption) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(base, "/"), hc: hc}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Base returns the server URL the client talks to.
func (c *Client) Base() string { return c.base }

// APIError is a non-2xx response, carrying the HTTP status and the
// server's machine-readable code.
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %d %s: %s", e.Status, e.Code, e.Message)
}

// Query posts req to /v1/query.
func (c *Client) Query(ctx context.Context, req QueryRequest) (QueryResponse, error) {
	var resp QueryResponse
	err := c.post(ctx, "/v1/query", req, &resp)
	return resp, err
}

// QueryRange answers the single half-open range [lo, hi), returning its
// result.
func (c *Client) QueryRange(ctx context.Context, lo, hi int64) (QueryResult, error) {
	resp, err := c.Query(ctx, QueryRequest{QueryItem: QueryItem{Lo: lo, Hi: hi}})
	if err != nil {
		return QueryResult{}, err
	}
	if len(resp.Results) != 1 {
		return QueryResult{}, fmt.Errorf("server: %d results for a single query", len(resp.Results))
	}
	return resp.Results[0], nil
}

// Aggregate answers [lo, hi) returning only (count, sum) — no value
// payload on the wire.
func (c *Client) Aggregate(ctx context.Context, lo, hi int64) (QueryResult, error) {
	resp, err := c.Query(ctx, QueryRequest{QueryItem: QueryItem{Lo: lo, Hi: hi}, Aggregate: true})
	if err != nil {
		return QueryResult{}, err
	}
	if len(resp.Results) != 1 {
		return QueryResult{}, fmt.Errorf("server: %d results for a single query", len(resp.Results))
	}
	return resp.Results[0], nil
}

// Insert queues values for insertion, returning the pending-update depth.
func (c *Client) Insert(ctx context.Context, values ...int64) (pending int, err error) {
	var resp UpdateResponse
	err = c.post(ctx, "/v1/insert", UpdateRequest{Values: values}, &resp)
	return resp.Pending, err
}

// Delete queues value removals, returning the pending-update depth.
func (c *Client) Delete(ctx context.Context, values ...int64) (pending int, err error) {
	var resp UpdateResponse
	err = c.post(ctx, "/v1/delete", UpdateRequest{Values: values}, &resp)
	return resp.Pending, err
}

// Stats fetches /v1/stats. Every call also records one convergence
// sample server-side.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var resp StatsResponse
	err := c.get(ctx, "/v1/stats", &resp)
	return resp, err
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var resp HealthResponse
	err := c.get(ctx, "/healthz", &resp)
	return resp, err
}

// Snapshot triggers POST /v1/snapshot. With strict set the server
// refuses with 409 (code "pending_updates") while updates are queued.
func (c *Client) Snapshot(ctx context.Context, strict bool) (SnapshotResponse, error) {
	var resp SnapshotResponse
	err := c.post(ctx, "/v1/snapshot", SnapshotRequest{Strict: strict}, &resp)
	return resp, err
}

// SnapshotRange captures the server's state for the value range [lo, hi)
// and returns the manifest stream — the donor side of a live shard
// migration. Feed the bytes to another node's RestoreSnapshot.
func (c *Client) SnapshotRange(ctx context.Context, lo, hi int64) ([]byte, error) {
	path := fmt.Sprintf("/v1/snapshot/range?lo=%d&hi=%d", lo, hi)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+c.path(path), nil)
	if err != nil {
		return nil, err
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// RestoreSnapshot replaces the server's serving state with the given
// manifest stream (POST /v1/restore) — the joiner side of a migration.
// [lo, hi) declares the value range the node owns afterwards.
func (c *Client) RestoreSnapshot(ctx context.Context, stream []byte, lo, hi int64) (RestoreResponse, error) {
	path := fmt.Sprintf("/v1/restore?lo=%d&hi=%d", lo, hi)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+c.path(path), bytes.NewReader(stream))
	if err != nil {
		return RestoreResponse{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	var resp RestoreResponse
	err = c.do(req, &resp)
	return resp, err
}

// Retain shrinks the server's serving state to the value range [lo, hi)
// of a fresh capture (POST /v1/retain) — the donor's final migration
// step.
func (c *Client) Retain(ctx context.Context, lo, hi int64) (RestoreResponse, error) {
	var resp RestoreResponse
	err := c.post(ctx, "/v1/retain", RetainRequest{Lo: lo, Hi: hi}, &resp)
	return resp, err
}

// Drain flips the server's draining flag (POST /v1/drain).
func (c *Client) Drain(ctx context.Context) (DrainResponse, error) {
	var resp DrainResponse
	err := c.post(ctx, "/v1/drain", struct{}{}, &resp)
	return resp, err
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+c.path(path), bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+c.path(path), nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// authorize attaches the bearer token, when configured.
func (c *Client) authorize(req *http.Request) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
}

func (c *Client) do(req *http.Request, out any) error {
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	// Query answers grow with the result, so they skip reflection.
	if qr, ok := out.(*QueryResponse); ok {
		*qr, err = readQueryResponse(resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError decodes a non-2xx response into an APIError.
func apiError(resp *http.Response) *APIError {
	apiErr := &APIError{Status: resp.StatusCode, Code: "unknown"}
	var body ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&body) == nil && body.Code != "" {
		apiErr.Code = body.Code
		apiErr.Message = body.Error
	}
	return apiErr
}
