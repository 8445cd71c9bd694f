package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	crackdb "repro"
)

func decodeSnapshot(t *testing.T, body []byte) SnapshotResponse {
	t.Helper()
	var resp SnapshotResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	return resp
}

// fileDest returns a Config whose captures land in the file at path: a
// file store rooted at its directory, keyed by its base name.
func fileDest(t *testing.T, path string) Config {
	t.Helper()
	store, err := crackdb.NewFileSnapshotStore(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	return Config{SnapshotStore: store, SnapshotKey: filepath.Base(path)}
}

func TestSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.crks")
	for _, mode := range []crackdb.Concurrency{crackdb.Single, crackdb.Shared, crackdb.Sharded(4)} {
		s := newTestServer(t, mode, fileDest(t, path))
		// Warm the index so the capture carries real refinement.
		for i := 0; i < 30; i++ {
			lo := int64(i * 300)
			rec := post(t, s, "/v1/query", fmt.Sprintf(`{"lo":%d,"hi":%d}`, lo, lo+50))
			if rec.Code != http.StatusOK {
				t.Fatalf("%v: warm query status %d", mode, rec.Code)
			}
		}
		rec := post(t, s, "/v1/snapshot", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%v: snapshot status %d: %s", mode, rec.Code, rec.Body)
		}
		resp := decodeSnapshot(t, rec.Body.Bytes())
		if resp.Path != "live.crks" || resp.Rows != testRows || resp.Bytes == 0 {
			t.Fatalf("%v: snapshot response %+v", mode, resp)
		}
		wantParts := 1
		if mode == crackdb.Sharded(4) {
			wantParts = 4
		}
		if resp.Parts != wantParts || resp.Pieces < 20 {
			t.Fatalf("%v: parts=%d pieces=%d, want %d parts and warmed pieces",
				mode, resp.Parts, resp.Pieces, wantParts)
		}
		// The captured file restores to oracle-correct answers.
		restored, err := crackdb.OpenSnapshotFile(path, crackdb.DD1R)
		if err != nil {
			t.Fatalf("%v: restore: %v", mode, err)
		}
		agg, err := restored.QueryAggregate(context.Background(), crackdb.Range(100, 400))
		wc, ws := oracle(100, 400, testRows)
		if err != nil || int64(agg.Count) != wc || agg.Sum != ws {
			t.Fatalf("%v: restored aggregate %+v err=%v", mode, agg, err)
		}
		// The stats counter reflects the capture.
		var st StatsResponse
		if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.SnapshotsTaken != 1 {
			t.Fatalf("%v: snapshots_taken=%d", mode, st.SnapshotsTaken)
		}
	}
}

// TestRestoreChecksRangeBeforeRebuilding: POST /v1/restore refuses a bad
// ?lo=&hi= with a 400 and leaves the serving state alone — /healthz keeps
// the original range and restored: false until the good restore.
func TestRestoreChecksRangeBeforeRebuilding(t *testing.T) {
	s := newTestServer(t, crackdb.Shared, Config{})
	health := func() HealthResponse {
		t.Helper()
		var h HealthResponse
		if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &h) != nil {
			t.Fatalf("healthz status %d: %s", rec.Code, rec.Body)
		}
		return h
	}
	capture := get(t, s, "/v1/snapshot/range?lo=0&hi=5000")
	if capture.Code != http.StatusOK {
		t.Fatalf("capture status %d: %s", capture.Code, capture.Body)
	}
	stream := capture.Body.String()
	for _, bad := range []string{"lo=5&hi=1", "lo=5", "lo=x&hi=9"} {
		if rec := post(t, s, "/v1/restore?"+bad, stream); rec.Code != http.StatusBadRequest {
			t.Fatalf("restore ?%s: status %d, want 400", bad, rec.Code)
		}
		if h := health(); h.ShardLo != math.MinInt64 || h.ShardHi != math.MaxInt64 || h.Restored || h.Rows != testRows {
			t.Fatalf("after restore ?%s: healthz %+v; want the original whole-domain cold state", bad, h)
		}
	}
	rec := post(t, s, "/v1/restore?lo=0&hi=5000", stream)
	if rec.Code != http.StatusOK {
		t.Fatalf("restore status %d: %s", rec.Code, rec.Body)
	}
	var resp RestoreResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rows != 5000 || resp.ShardLo != 0 || resp.ShardHi != 5000 {
		t.Fatalf("good restore: response %+v; want 5000 rows owning [0, 5000)", resp)
	}
	if h := health(); h.ShardLo != 0 || h.ShardHi != 5000 || !h.Restored || h.Rows != 5000 {
		t.Fatalf("after the good restore: healthz %+v; want 5000 restored rows owning [0, 5000)", h)
	}
}

// TestRestoreBothShapesWithoutRange: POST /v1/restore with no ?lo=&hi=
// owns the whole domain, and reports a table stream's shape: its rows,
// its parts summed over columns and its pieces.
func TestRestoreBothShapesWithoutRange(t *testing.T) {
	s := newTestServer(t, crackdb.Shared, Config{})
	restore := func(stream string) RestoreResponse {
		t.Helper()
		rec := post(t, s, "/v1/restore", stream)
		var resp RestoreResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			t.Fatalf("restore status %d: %s", rec.Code, rec.Body)
		}
		return resp
	}

	capture := get(t, s, "/v1/snapshot/range?lo=0&hi=5000")
	if capture.Code != http.StatusOK {
		t.Fatalf("capture status %d: %s", capture.Code, capture.Body)
	}
	if resp := restore(capture.Body.String()); resp.Rows != 5000 || resp.Parts != 1 ||
		resp.ShardLo != math.MinInt64 || resp.ShardHi != math.MaxInt64 {
		t.Fatalf("column restore %+v; want 5000 rows in 1 part owning the whole domain", resp)
	}

	tbl, err := crackdb.OpenTable(map[string][]int64{
		"a": crackdb.MakeData(1_000, 1),
		"b": crackdb.MakeData(1_000, 2),
	}, crackdb.DD1R, crackdb.WithConcurrency(crackdb.Sharded(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	for _, col := range []string{"a", "b"} {
		if _, err := tbl.Query(context.Background(), crackdb.Range(100, 200).On(col)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := tbl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := crackdb.WriteSnapshot(&stream, snap); err != nil {
		t.Fatal(err)
	}
	resp := restore(stream.String())
	if resp.Rows != 1_000 || resp.Parts != 4 || resp.Pieces != snap.Pieces() || resp.Pieces <= resp.Parts ||
		resp.ShardLo != math.MinInt64 || resp.ShardHi != math.MaxInt64 {
		t.Fatalf("table restore %+v; want 1000 rows, 4 parts (2 columns x 2 shards), %d pieces, the whole domain",
			resp, snap.Pieces())
	}
}

// TestRangeCaptureOnTableIsUnsupported: a table DB has no single value
// domain to cut, so range capture and retain answer 422
// snapshot_unsupported, not a client error.
func TestRangeCaptureOnTableIsUnsupported(t *testing.T) {
	db, err := crackdb.OpenTable(map[string][]int64{
		"a": crackdb.MakeData(1_000, 1),
		"b": crackdb.MakeData(1_000, 2),
	}, crackdb.DD1R, crackdb.WithConcurrency(crackdb.Shared))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := New(db, Config{Info: Info{Rows: 1_000, Algorithm: crackdb.DD1R}})
	for name, rec := range map[string]*httptest.ResponseRecorder{
		"range capture": get(t, s, "/v1/snapshot/range?lo=0&hi=100"),
		"retain":        post(t, s, "/v1/retain", `{"lo":0,"hi":100}`),
	} {
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusUnprocessableEntity || er.Code != "snapshot_unsupported" {
			t.Fatalf("%s: status %d body %s (err %v), want 422 snapshot_unsupported", name, rec.Code, rec.Body, err)
		}
	}
}

func TestSnapshotUnconfigured(t *testing.T) {
	s := newTestServer(t, crackdb.Shared, Config{})
	rec := post(t, s, "/v1/snapshot", "")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "snapshot_unconfigured" {
		t.Fatalf("error body %s (err %v)", rec.Body, err)
	}
}

func TestSnapshotPendingUpdatesConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.crks")
	s := newTestServer(t, crackdb.Shared, fileDest(t, path))
	if rec := post(t, s, "/v1/insert", `{"value": 42}`); rec.Code != http.StatusOK {
		t.Fatalf("insert status %d", rec.Code)
	}
	// Strict captures refuse while updates are queued — the explicit
	// clean-cut path.
	rec := post(t, s, "/v1/snapshot", `{"strict": true}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("strict snapshot with pending updates: status %d, want 409", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "pending_updates" {
		t.Fatalf("error body %s (err %v)", rec.Body, err)
	}
	// The default capture carries the queue instead of refusing, and the
	// restored DB re-queues it.
	rec = post(t, s, "/v1/snapshot", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot with pending updates: status %d: %s", rec.Code, rec.Body)
	}
	if resp := decodeSnapshot(t, rec.Body.Bytes()); resp.Pending != 1 {
		t.Fatalf("snapshot response pending=%d, want 1", resp.Pending)
	}
	restored, err := crackdb.OpenSnapshotFile(path, crackdb.DD1R)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if n := restored.PendingUpdates(); n != 1 {
		t.Fatalf("restored pending=%d, want 1", n)
	}
	// A covering query merges the queue; the strict capture then succeeds.
	if rec := post(t, s, "/v1/query", `{"lo":0,"hi":100}`); rec.Code != http.StatusOK {
		t.Fatalf("merge query status %d", rec.Code)
	}
	if rec := post(t, s, "/v1/snapshot", `{"strict": true}`); rec.Code != http.StatusOK {
		t.Fatalf("strict snapshot after merge: status %d: %s", rec.Code, rec.Body)
	}
}

// TestSnapshotUnderLoad is the -race variant of the capture path:
// concurrent snapshot captures race full query traffic through a tight
// admission limit. The drains must interleave cleanly — no deadlock
// against the admission semaphore, no torn capture — and the final file
// must restore to oracle-validated answers in every mode.
func TestSnapshotUnderLoad(t *testing.T) {
	for _, mode := range []crackdb.Concurrency{crackdb.Shared, crackdb.Sharded(4)} {
		path := filepath.Join(t.TempDir(), "under-load.crks")
		cfg := fileDest(t, path)
		cfg.MaxInFlight = 4
		s := newTestServer(t, mode, cfg)

		const clients = 6
		var wg sync.WaitGroup
		var rejected, captured atomic.Int64
		fail := make(chan string, clients+2)
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 60; i++ {
					lo := int64((g*911 + i*257) % (testRows - 200))
					rec := post(t, s, "/v1/query", fmt.Sprintf(`{"lo":%d,"hi":%d}`, lo, lo+150))
					switch rec.Code {
					case http.StatusOK:
						var qr QueryResponse
						if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
							fail <- err.Error()
							return
						}
						wc, ws := oracle(lo, lo+150, testRows)
						if int64(qr.Results[0].Count) != wc || qr.Results[0].Sum != ws {
							fail <- fmt.Sprintf("wrong answer for [%d,%d)", lo, lo+150)
							return
						}
					case http.StatusTooManyRequests:
						rejected.Add(1) // fine under a limit of 4
					default:
						fail <- fmt.Sprintf("query status %d: %s", rec.Code, rec.Body)
						return
					}
				}
			}(g)
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					rec := post(t, s, "/v1/snapshot", "")
					switch rec.Code {
					case http.StatusOK:
						captured.Add(1)
					case http.StatusTooManyRequests:
						rejected.Add(1)
					default:
						fail <- fmt.Sprintf("snapshot status %d: %s", rec.Code, rec.Body)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(fail)
		for msg := range fail {
			t.Fatalf("%v: %s", mode, msg)
		}
		// At least one capture must land even under the tight limit; then
		// take a final, uncontended one and restore-validate it.
		if rec := post(t, s, "/v1/snapshot", ""); rec.Code != http.StatusOK {
			t.Fatalf("%v: final snapshot status %d: %s", mode, rec.Code, rec.Body)
		}
		captured.Add(1)
		t.Logf("%v: %d captures, %d admission rejects", mode, captured.Load(), rejected.Load())
		for _, tgtMode := range []crackdb.Concurrency{crackdb.Single, crackdb.Shared, crackdb.Sharded(3)} {
			restored, err := crackdb.OpenSnapshotFile(path, crackdb.DD1R,
				crackdb.WithConcurrency(tgtMode))
			if err != nil {
				t.Fatalf("%v->%v: restore: %v", mode, tgtMode, err)
			}
			for i := 0; i < 25; i++ {
				lo := int64(i * 370)
				agg, err := restored.QueryAggregate(context.Background(), crackdb.Range(lo, lo+200))
				wc, ws := oracle(lo, lo+200, testRows)
				if err != nil || int64(agg.Count) != wc || agg.Sum != ws {
					t.Fatalf("%v->%v: [%d,%d): %+v err=%v", mode, tgtMode, lo, lo+200, agg, err)
				}
			}
		}
	}
}
