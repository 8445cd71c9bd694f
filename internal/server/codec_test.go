package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	crackdb "repro"
)

// jsonBody is the reference rendering: what encoding/json writes for resp.
func jsonBody(t testing.TB, resp QueryResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// responseFrom builds a response from fuzz bytes: a result count, then per
// result a count, a sum and up to seven values, each read as a
// little-endian int64 so the whole int64 range comes up. Empty input is
// the nil-Results response, a zero result count the empty one.
func responseFrom(data []byte) QueryResponse {
	if len(data) == 0 {
		return QueryResponse{}
	}
	n := int(data[0] % 4)
	data = data[1:]
	next := func() int64 {
		var word [8]byte
		k := copy(word[:], data)
		data = data[k:]
		return int64(binary.LittleEndian.Uint64(word[:]))
	}
	resp := QueryResponse{Results: make([]QueryResult, 0, n)}
	for i := 0; i < n; i++ {
		r := QueryResult{Count: int(next()), Sum: next()}
		if nv := next() & 7; nv > 0 {
			r.Values = make([]int64, nv)
			for j := range r.Values {
				r.Values[j] = next()
			}
		}
		resp.Results = append(resp.Results, r)
	}
	return resp
}

// FuzzQueryResponseCodec pins the codec to encoding/json in both
// directions: any response encodes to exactly the bytes json.Encoder
// writes (and that canonical body takes the direct parse), and any input
// decodes to json.Unmarshal's value, failing exactly when it fails.
func FuzzQueryResponseCodec(f *testing.F) {
	for _, seed := range []string{
		`{"results":[{"count":2,"sum":-1,"values":[-9223372036854775808,9223372036854775807]}]}` + "\n",
		`{"results":[{"count":3,"sum":6,"values":[1,2,3]},{"count":0,"sum":0},{"count":1,"sum":-7,"values":[-7]}]}`,
		`{"results":[{"count":0,"sum":0}]}`,             // empty Values, omitted on the wire
		`{"results":[{"count":0,"sum":0,"values":[]}]}`, // ... or spelled out
		`{"results":[{"count":1,"sum":0,"values":null}]}`,
		`{"results":null}` + "\n",
		`{"results":[]}` + "\n",
		`{"results":[{"count":1,"sum":1,"values":[01]}]}`, // leading zero
		`{"results":[{"count":1,"sum":1,"values":[-]}]}`,
		`{"results":[{"count":1,"sum":0,"values":[-0]}]}`,
		`{"results":[{"count":1,"sum":1,"values":[9223372036854775808]}]}`, // int64 overflow
		`{"results":[{"count":1,"sum":1,"values":[-9223372036854775809]}]}`,
		`{"results":[{"count":1,"sum":1,"values":[12345678901234567890]}]}`,
		`{"results":[{"count":99999999999999999999,"sum":1}]}`,
		`{"results":[{"count":1000000,"sum":1,"values":[1]}]}`, // count lies
		`{"results":[{"count":1,"sum":1,"values":[1,]}]}`,      // trailing comma
		`{"results":[{"count":1,"sum":1},]}`,
		`{"results":[{"count":1.0,"sum":1}]}`,
		`{"results":[{"count":1,"sum":1e3}]}`,
		` { "results" : [ { "count" : 1 , "sum" : 1 , "values" : [ 1 ] } ] } ` + "\r\n\t",
		`{"results":[{"values":[1,2],"sum":3,"count":2}]}`, // reordered keys
		`{"results":[{"Count":1,"SUM":2,"extra":"x"}],"more":true}`,
		`{"results":[{"count":1,"sum":1}]}x`,
		`{"results":[{"count":1,"sum":1`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want QueryResponse
		wantErr := json.Unmarshal(data, &want)
		got, err := decodeQueryResponse(data)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("decode %q: error %v, json.Unmarshal error %v", data, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %q:\n got %#v\nwant %#v", data, got, want)
		}
		for _, resp := range []QueryResponse{want, responseFrom(data)} {
			body := AppendQueryResponse(nil, resp)
			if ref := jsonBody(t, resp); !bytes.Equal(body, ref) {
				t.Fatalf("encode %#v:\n got %q\nwant %q", resp, body, ref)
			}
			if _, ok := parseQueryResponse(body); !ok {
				t.Fatalf("canonical body %q fell back to json.Unmarshal", body)
			}
		}
	})
}

// valuesResponse is a one-result response over n consecutive values, the
// shape of a cluster_scan answer.
func valuesResponse(n int) QueryResponse {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(5_000_000 + i)
	}
	return QueryResponse{Results: []QueryResult{valuesResult(vals)}}
}

// TestQueryResponseCodecAllocs pins the codec off reflection (which costs
// about 30 allocations for this body): encoding into a reused buffer
// allocates nothing, decoding the canonical body allocates the results
// and the presized values only.
func TestQueryResponseCodecAllocs(t *testing.T) {
	resp := valuesResponse(1000)
	buf := AppendQueryResponse(nil, resp)
	if enc := testing.AllocsPerRun(100, func() {
		buf = AppendQueryResponse(buf[:0], resp)
	}); enc != 0 {
		t.Fatalf("encode: %v allocs/op, want 0", enc)
	}
	if dec := testing.AllocsPerRun(100, func() {
		if _, err := decodeQueryResponse(buf); err != nil {
			t.Fatal(err)
		}
	}); dec > 2 {
		t.Fatalf("decode: %v allocs/op, want <= 2", dec)
	}
}

// queryWire posts body to a /v1/query URL over loopback and fails t
// unless the answer is the encoding/json rendering of its own value, sent
// with Content-Length rather than chunked — what jq, curl and
// encoding/json clients rely on.
func queryWire(t *testing.T, url, body string) QueryResponse {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d, %v: %s", body, resp.StatusCode, err, b)
	}
	if resp.ContentLength != int64(len(b)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("%s: Content-Length %d, transfer encoding %v, for a %d-byte body",
			body, resp.ContentLength, resp.TransferEncoding, len(b))
	}
	var qr QueryResponse
	if err := json.Unmarshal(b, &qr); err != nil {
		t.Fatal(err)
	}
	if ref := jsonBody(t, qr); !bytes.Equal(b, ref) {
		t.Fatalf("%s: body differs from encoding/json:\n got %q\nwant %q", body, b, ref)
	}
	return qr
}

// TestQueryWireCompat: a 1 000-value answer, a batch and an aggregate go
// out byte-identical to encoding/json with Content-Length set, and the
// Client reads them back.
func TestQueryWireCompat(t *testing.T) {
	s := newTestServer(t, crackdb.Shared, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, body := range []string{
		`{"lo": 4000, "hi": 5000}`,
		`{"queries": [{"lo": 0, "hi": 10}, {"lo": 20, "hi": 20}, {"lo": -5, "hi": 3}]}`,
		`{"lo": 100, "hi": 300, "aggregate": true}`,
	} {
		if qr := queryWire(t, ts.URL+"/v1/query", body); qr.Results[0].Count == 0 {
			t.Fatalf("%s: empty answer", body)
		}
	}
	res, err := NewClient(ts.URL, nil).QueryRange(context.Background(), 4000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	wantRange(t, res, 4000, 5000)
	if len(res.Values) != 1000 {
		t.Fatalf("client decoded %d values, want 1000", len(res.Values))
	}
}

// BenchmarkQueryResponseCodec compares the codec with the encoding/json
// calls it replaced on a 1 000-value body: json.NewEncoder in the
// handlers, json.NewDecoder on the response stream in the Client.
func BenchmarkQueryResponseCodec(b *testing.B) {
	resp := valuesResponse(1000)
	body := AppendQueryResponse(nil, resp)
	for _, bc := range []struct {
		name string
		fn   func()
	}{
		{"encode", func() { body = AppendQueryResponse(body[:0], resp) }},
		{"decode", func() { _, _ = decodeQueryResponse(body) }},
		{"json-encode", func() { _ = json.NewEncoder(io.Discard).Encode(resp) }},
		{"json-decode", func() { var r QueryResponse; _ = json.NewDecoder(bytes.NewReader(body)).Decode(&r) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fn()
			}
		})
	}
}
