package cluster

// The chaos tests' fault layer: an http.RoundTripper in the
// coordinator's own transport that misbehaves on command, per backend
// and exact path, while the backends underneath stay correct and
// oracle-checkable.

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster/client"
	"repro/internal/server"
)

// fault is what the layer does to the requests of one backend endpoint.
type fault int

const (
	pass fault = iota
	// rejectBefore answers 503 without reaching the backend.
	rejectBefore
	// partition parks the request until its caller gives up.
	partition
	// dropAfter lets the backend apply the request, then loses the
	// response.
	dropAfter
)

// faults forwards through http.DefaultTransport unless a rule or a kill
// says otherwise. Backends are named by their base URLs.
type faults struct {
	mu    sync.Mutex
	rules map[string]fault // by base URL + path
	down  map[string]bool
	// kills counts kills per backend, so a request in flight across one
	// loses its response, as a crashed process's connections do.
	kills map[string]int
}

func newFaults() *faults {
	return &faults{rules: map[string]fault{}, down: map[string]bool{}, kills: map[string]int{}}
}

// set installs rule r for requests to url+path; pass clears it.
func (f *faults) set(url, path string, r fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if r == pass {
		delete(f.rules, url+path)
		return
	}
	f.rules[url+path] = r
}

// kill makes the backend at url refuse connections, like a crashed node.
func (f *faults) kill(url string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[url] = true
	f.kills[url]++
}

// revive lets the backend at url answer again, like a restarted node
// that kept its state.
func (f *faults) revive(url string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.down, url)
}

func (f *faults) RoundTrip(req *http.Request) (*http.Response, error) {
	url := req.URL.Scheme + "://" + req.URL.Host
	f.mu.Lock()
	rule, down, kills := f.rules[url+req.URL.Path], f.down[url], f.kills[url]
	f.mu.Unlock()
	if down || rule == rejectBefore || rule == partition {
		if req.Body != nil {
			req.Body.Close()
		}
	}
	switch {
	case down:
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}
	case rule == rejectBefore:
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Header:     http.Header{"Content-Type": {"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"error":"injected fault","code":"injected_fault"}`)),
			Request:    req,
		}, nil
	case rule == partition:
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	killed := f.kills[url] != kills
	f.mu.Unlock()
	if rule == dropAfter || killed {
		resp.Body.Close()
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: os.NewSyscallError("read", syscall.ECONNRESET)}
	}
	return resp, nil
}

// TestFaultLayerVerdicts pins the contract the replication layer relies
// on: each rule's error gets the ProvablyNotApplied verdict that matches
// whether the insert reached the backend's index, a drop-after insert
// really lands, and a cleared fault passes requests through.
func TestFaultLayerVerdicts(t *testing.T) {
	nd, err := StartLocalNode(LocalNodeConfig{N: 100, Seed: 7, Lo: 0, Hi: 100, Algorithm: "dd1r"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Close)
	f := newFaults()
	api := server.NewClient(nd.URL, &http.Client{Transport: f})
	landed := 0
	for i, tc := range []struct {
		name     string
		rule     fault // on /v1/insert; pass kills the backend instead
		provable bool
		applied  bool
	}{
		{"kill", pass, true, false},
		{"reject-before", rejectBefore, true, false},
		{"drop-after", dropAfter, false, true},
		{"partition", partition, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.rule == pass {
				f.kill(nd.URL)
			}
			f.set(nd.URL, "/v1/insert", tc.rule)
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			if _, err := api.Insert(ctx, int64(1000+i)); err == nil {
				t.Fatal("insert succeeded through the fault")
			} else if got := client.ProvablyNotApplied(err); got != tc.provable {
				t.Fatalf("ProvablyNotApplied(%v) = %v, want %v", err, got, tc.provable)
			}
			f.revive(nd.URL)
			f.set(nd.URL, "/v1/insert", pass)
			if tc.applied {
				landed++
			}
			resp, err := api.Query(context.Background(), server.QueryRequest{
				QueryItem: server.QueryItem{Lo: 1000, Hi: 2000}, Aggregate: true,
			})
			if err != nil {
				t.Fatalf("query after clearing the fault: %v", err)
			}
			if got := resp.Results[0].Count; got != landed {
				t.Fatalf("backend holds %d inserted values, want %d", got, landed)
			}
		})
	}
}
