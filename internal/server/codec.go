package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The /v1/query response body is the one payload that grows with the
// answer, so every hop that carries it — server, coordinator, client —
// encodes and decodes it here instead of through encoding/json's
// reflection. The bytes on the wire do not change: AppendQueryResponse
// writes exactly what json.NewEncoder(w).Encode(resp) writes, and the
// decoder parses that canonical form directly while leaving every other
// spelling of the same JSON to json.Unmarshal, which stays the reference
// semantics.

// AppendQueryResponse appends resp's JSON body to dst and returns the
// extended slice. The bytes are identical to what
// json.NewEncoder(w).Encode(resp) writes, trailing newline included:
// nil Results is "null", empty Values is omitted.
func AppendQueryResponse(dst []byte, resp QueryResponse) []byte {
	dst = append(dst, `{"results":`...)
	if resp.Results == nil {
		return append(dst, "null}\n"...)
	}
	dst = append(dst, '[')
	for i, r := range resp.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"count":`...)
		dst = strconv.AppendInt(dst, int64(r.Count), 10)
		dst = append(dst, `,"sum":`...)
		dst = strconv.AppendInt(dst, r.Sum, 10)
		if len(r.Values) > 0 {
			dst = append(dst, `,"values":[`...)
			for j, v := range r.Values {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, v, 10)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// bodyPool recycles query response bodies on both ends of the wire: the
// encode buffer of a handler and the read buffer of a Client.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody keeps one huge answer from pinning its buffer in the pool.
const maxPooledBody = 1 << 20

func putBody(bp *[]byte, body []byte) {
	if cap(body) <= maxPooledBody {
		*bp = body[:0]
		bodyPool.Put(bp)
	}
}

// WriteQueryResponse writes resp as a 200 JSON body in one write with
// Content-Length set, so the body is not chunked.
func WriteQueryResponse(w http.ResponseWriter, resp QueryResponse) {
	bp := bodyPool.Get().(*[]byte)
	body := AppendQueryResponse((*bp)[:0], resp)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	putBody(bp, body)
}

// readQueryResponse reads a /v1/query response body into a pooled buffer
// and decodes it. The decoded response holds no bytes of the buffer, so
// the buffer is recycled before returning.
func readQueryResponse(r io.Reader) (QueryResponse, error) {
	bp := bodyPool.Get().(*[]byte)
	buf := bytes.NewBuffer((*bp)[:0])
	_, err := buf.ReadFrom(r)
	var resp QueryResponse
	if err == nil {
		resp, err = decodeQueryResponse(buf.Bytes())
	}
	putBody(bp, buf.Bytes())
	return resp, err
}

// decodeQueryResponse parses a /v1/query response body. The canonical
// form AppendQueryResponse writes is parsed directly; any other body —
// whitespace, reordered or unknown keys, nulls, malformed input — goes
// to json.Unmarshal, so the result and the error are always exactly
// json.Unmarshal's.
func decodeQueryResponse(body []byte) (QueryResponse, error) {
	if resp, ok := parseQueryResponse(body); ok {
		return resp, nil
	}
	var resp QueryResponse
	err := json.Unmarshal(body, &resp)
	return resp, err
}

// parseQueryResponse parses the canonical body, reporting false on the
// first byte that departs from it. Every body it accepts is valid JSON
// that json.Unmarshal decodes to the same value.
func parseQueryResponse(b []byte) (QueryResponse, bool) {
	var resp QueryResponse
	p, ok := expect(b, 0, `{"results":`)
	if !ok {
		return resp, false
	}
	if q, ok := expect(b, p, "null}"); ok {
		return resp, onlySpace(b[q:])
	}
	if p, ok = expect(b, p, "["); !ok {
		return resp, false
	}
	resp.Results = make([]QueryResult, 0, 1)
	if q, ok := expect(b, p, "]}"); ok {
		return resp, onlySpace(b[q:])
	}
	for {
		var r QueryResult
		var count int64
		if p, ok = expect(b, p, `{"count":`); !ok {
			return resp, false
		}
		// A count beyond int (32-bit platforms) is json.Unmarshal's error.
		if count, p, ok = parseInt(b, p); !ok || int64(int(count)) != count {
			return resp, false
		}
		r.Count = int(count)
		if p, ok = expect(b, p, `,"sum":`); !ok {
			return resp, false
		}
		if r.Sum, p, ok = parseInt(b, p); !ok {
			return resp, false
		}
		if q, ok := expect(b, p, `,"values":[`); ok {
			if r.Values, p, ok = parseValues(b, q, count); !ok {
				return resp, false
			}
		}
		if p, ok = expect(b, p, "}"); !ok {
			return resp, false
		}
		resp.Results = append(resp.Results, r)
		if p < len(b) && b[p] == ',' {
			p++
			continue
		}
		if p, ok = expect(b, p, "]}"); !ok {
			return resp, false
		}
		return resp, onlySpace(b[p:])
	}
}

// parseValues parses the non-empty value list starting at b[p] through
// its closing bracket. The slice is sized from the result's count, capped
// by what the remaining bytes can hold (at least two bytes per value), so
// a well-formed result costs one allocation and a lying count costs no
// more memory than the body.
func parseValues(b []byte, p int, count int64) ([]int64, int, bool) {
	size := min(max(count, 0), int64(len(b)-p)/2+1)
	vals := make([]int64, 0, size)
	for {
		v, q, ok := parseInt(b, p)
		if !ok || q >= len(b) {
			return nil, 0, false
		}
		vals = append(vals, v)
		switch b[q] {
		case ',':
			p = q + 1
		case ']':
			return vals, q + 1, true
		default:
			return nil, 0, false
		}
	}
}

// parseInt parses a JSON integer at b[p] that fits an int64: an optional
// minus, then 0 or a digit run without a leading zero. Fractions and
// exponents are left to the caller's next expect to reject.
func parseInt(b []byte, p int) (int64, int, bool) {
	neg := p < len(b) && b[p] == '-'
	if neg {
		p++
	}
	start := p
	var u uint64
	for p < len(b) && b[p]-'0' <= 9 && p-start < 19 {
		u = u*10 + uint64(b[p]-'0')
		p++
	}
	switch {
	case p == start,
		p < len(b) && b[p]-'0' <= 9,    // a 20th digit: beyond int64
		b[start] == '0' && p-start > 1: // a leading zero
		return 0, 0, false
	case neg && u <= 1<<63:
		return -int64(u), p, true // -(1<<63) wraps to MinInt64 exactly
	case !neg && u <= math.MaxInt64:
		return int64(u), p, true
	}
	return 0, 0, false
}

// expect reports the position after lit when b continues with it at p.
func expect(b []byte, p int, lit string) (int, bool) {
	if len(b)-p < len(lit) || string(b[p:p+len(lit)]) != lit {
		return 0, false
	}
	return p + len(lit), true
}

// onlySpace reports whether b is JSON whitespace only — what may follow a
// top-level value.
func onlySpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}
