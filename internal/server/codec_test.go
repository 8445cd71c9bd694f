package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
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
	// Runs of every length the parse folds eight bytes at a time, and one
	// past int64, in both signs.
	for n := 1; n <= 20; n++ {
		run := strings.Repeat("9", n)
		f.Add([]byte(`{"results":[{"count":2,"sum":0,"values":[` + run + ",-" + run + `]}]}`))
	}
	// Leading zeros, and the bytes either side of the digits in ASCII
	// ('/' and ':' to '?'), which must end a run.
	for _, v := range []string{"00", "007", "-01", "0123456789", "-0", "1/", "1:", "12;", "123<", "1234=", "12345>", "123456?"} {
		f.Add([]byte(`{"results":[{"count":1,"sum":0,"values":[` + v + `]}]}`))
	}
	// Digits ending inside the body's last eight bytes, where the load
	// reads past the end.
	f.Add([]byte(`{"results":[{"count":1,"sum":1,"values":[12345678]}]}`))
	f.Add([]byte(`{"results":[{"count":1,"sum":1,"values":[1234567`))
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

// wideResponse is a one-result response over n values spread evenly over
// 1 to 19 digits, every other one negative.
func wideResponse(n int) QueryResponse {
	vals := make([]int64, n)
	for i := range vals {
		v := int64(pow10[i%19]) + int64(i)*7919%int64(pow10[i%19]) // i%19+1 digits
		if i%2 == 1 {
			v = -v
		}
		vals[i] = v
	}
	return QueryResponse{Results: []QueryResult{valuesResult(vals)}}
}

// TestDigits checks digitCount and appendValues against strconv at every
// power of ten and one below it, in both signs, and at the int64 ends.
func TestDigits(t *testing.T) {
	vals := []int64{0, math.MinInt64, math.MaxInt64}
	for n := 1; n <= 19; n++ {
		for _, u := range []uint64{pow10[n-1], pow10[n] - 1} {
			if got := digitCount(u); got != n {
				t.Errorf("digitCount(%d) = %d, want %d", u, got, n)
			}
			if u <= math.MaxInt64 {
				vals = append(vals, int64(u), -int64(u))
			}
		}
	}
	var want []byte
	for i, v := range vals {
		if i > 0 {
			want = append(want, ',')
		}
		want = strconv.AppendInt(want, v, 10)
	}
	if got := appendValues([]byte("x"), vals); string(got) != "x"+string(want) {
		t.Fatalf("appendValues:\n got %s\nwant x%s", got, want)
	}
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
// calls it replaced on 1 000-value bodies: json.NewEncoder in the
// handlers, json.NewDecoder on the response stream in the Client. "keys"
// holds 7-digit keys, the shape of a cluster_scan answer; "wide" spreads
// its values over 1 to 19 digits, half of them negative.
func BenchmarkQueryResponseCodec(b *testing.B) {
	for _, shape := range []struct {
		name string
		resp QueryResponse
	}{{"keys", valuesResponse(1000)}, {"wide", wideResponse(1000)}} {
		resp := shape.resp
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
			b.Run(shape.name+"/"+bc.name, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bc.fn()
				}
			})
		}
	}
}

// strictDecode is the reference request decode: a json.Decoder refusing
// unknown fields, and json.Valid refusing anything after the value.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if !json.Valid(data) {
		return errors.New("data after the value")
	}
	return nil
}

// requestFrom builds a one-range request from fuzz bytes: flag bits
// choose which fields are set, and lo and hi read little-endian int64s
// from the rest.
func requestFrom(data []byte) QueryRequest {
	var req QueryRequest
	if len(data) == 0 {
		return req
	}
	flags := data[0]
	data = data[1:]
	next := func() int64 {
		var word [8]byte
		k := copy(word[:], data)
		data = data[k:]
		return int64(binary.LittleEndian.Uint64(word[:]))
	}
	if flags&1 != 0 {
		req.Lo = next()
	}
	if flags&2 != 0 {
		req.Hi = next()
	}
	req.Aggregate = flags&4 != 0
	return req
}

// FuzzQueryRequestCodec pins the request codec to encoding/json in both
// directions: any one-range request encodes to exactly json.Marshal's
// bytes, which take the direct parse, and any input decodes to the strict
// decoder's value, failing exactly when it fails, trailing bytes
// included.
func FuzzQueryRequestCodec(f *testing.F) {
	for _, seed := range []string{
		`{"lo":1,"hi":5}`,
		`{"lo":-9223372036854775808,"hi":9223372036854775807,"aggregate":true}`,
		`{"hi":5}`,
		`{"lo":5}` + "\n",
		`{"aggregate":true}`,
		`{}`,
		`{"lo":1,"hi":5}{"lo":7}`,
		`{"lo":1,"hi":5} trailing`,
		`{"lo":1,"hi":5} ` + "\r\n\t",
		`{"lo":0,"hi":0}`,
		`{"lo":-0,"hi":1}`,
		`{"lo":01,"hi":5}`,
		`{"lo":1.5,"hi":5}`,
		`{"lo":1e3,"hi":5}`,
		`{"lo":9223372036854775808}`,
		`{"lo":12345678901234567890}`,
		`{"hi":5,"lo":1}`,
		`{"lo":1,"lo":2}`,
		`{"LO":1,"Hi":2}`,
		`{"lo":1,"hi":5,"aggregate":false}`,
		`{"lo":1,"hi":5,"extra":1}`,
		`{"lo":1,"hi":5,}`,
		`{"or":[{"lo":1,"hi":2},{"lo":5,"hi":9}],"col":"a"}`,
		`{"queries":[{"lo":1,"hi":2},{"or":[{"lo":0,"hi":0}]}],"aggregate":true}`,
		`{"col":"<a&b>\u2028"}`,
		` {"lo":1}`,
		`null`,
		`{"lo":1`,
		`{"lo":1:,"hi":5}`,
		`{"lo":1/,"hi":5}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got QueryRequest
		wantErr := strictDecode(data, &want)
		err := decodeRequest(data, &got)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("decode %q: error %v, encoding/json error %v", data, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %q:\n got %#v\nwant %#v", data, got, want)
		}
		for _, req := range []QueryRequest{want, requestFrom(data)} {
			if !req.oneRange() {
				continue
			}
			body := appendQueryRequest(nil, req)
			ref, err := json.Marshal(req)
			if err != nil || !bytes.Equal(body, ref) {
				t.Fatalf("encode %#v:\n got %q\nwant %q (%v)", req, body, ref, err)
			}
			if !parseQueryRequest(body, new(QueryRequest)) {
				t.Fatalf("canonical body %q fell back to encoding/json", body)
			}
		}
	})
}

// TestQueryRequestCodecAllocs pins the request path off reflection
// (json.Marshal and a strict json.Decoder cost about 8 allocations for
// this body): encoding into a reused buffer and decoding the canonical
// body allocate nothing.
func TestQueryRequestCodecAllocs(t *testing.T) {
	req := QueryRequest{QueryItem: QueryItem{Lo: 4_000_000, Hi: 4_001_000}, Aggregate: true}
	buf := appendQueryRequest(nil, req)
	if enc := testing.AllocsPerRun(100, func() {
		buf = appendQueryRequest(buf[:0], req)
	}); enc != 0 {
		t.Fatalf("encode: %v allocs/op, want 0", enc)
	}
	var got QueryRequest
	if dec := testing.AllocsPerRun(100, func() {
		if err := decodeRequest(buf, &got); err != nil {
			t.Fatal(err)
		}
	}); dec != 0 {
		t.Fatalf("decode: %v allocs/op, want 0", dec)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("decoded %+v, want %+v", got, req)
	}
}

// BenchmarkQueryRequestCodec compares the request codec with the
// encoding/json calls it replaced on a cluster_scan request: json.Marshal
// in the Client, the strict json.Decoder in DecodeBody.
func BenchmarkQueryRequestCodec(b *testing.B) {
	req := QueryRequest{QueryItem: QueryItem{Lo: 4_000_000, Hi: 4_001_000}}
	body := appendQueryRequest(nil, req)
	for _, bc := range []struct {
		name string
		fn   func()
	}{
		{"encode", func() { body = appendQueryRequest(body[:0], req) }},
		{"decode", func() { var r QueryRequest; _ = decodeRequest(body, &r) }},
		{"json-encode", func() { _, _ = json.Marshal(req) }},
		{"json-decode", func() { var r QueryRequest; _ = strictDecode(body, &r) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fn()
			}
		})
	}
}
