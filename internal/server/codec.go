package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// The /v1/query bodies are the ones every query carries, and the response
// grows with the answer, so every hop that carries them — server,
// coordinator, catalog, client — encodes and decodes them here instead of
// through encoding/json's reflection. The bytes on the wire do not change:
// AppendQueryResponse writes exactly what json.NewEncoder(w).Encode(resp)
// writes and appendQueryRequest exactly what json.Marshal(req) writes for
// a one-range request, and the decoders parse those canonical forms
// directly while leaving every other spelling of the same JSON to
// encoding/json, which stays the reference semantics.

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
			dst = append(appendValues(append(dst, `,"values":[`...), r.Values), ']')
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// maxValueLen is the longest rendering of an int64 with its separator:
// "-9223372036854775808,".
const maxValueLen = 21

// appendValues appends vals comma-separated. The destination grows once,
// by the longest possible rendering, and every value's digits are stored
// straight into place, eight per word: with n digits the first store
// holds the leading n mod 8 (or 8) of them, zero-padded past its end,
// and each later store overwrites that padding with the next eight.
func appendValues(dst []byte, vals []int64) []byte {
	dst = slices.Grow(dst, len(vals)*maxValueLen)
	b, p := dst[:cap(dst)], len(dst)
	for _, v := range vals {
		u := uint64(v)
		if v < 0 {
			b[p] = '-'
			p++
			u = -u // MinInt64 negates to 1<<63 exactly
		}
		n := digitCount(u)
		out := b[p : p+maxValueLen-1]
		switch {
		case n <= 8:
			binary.LittleEndian.PutUint64(out, eightDigits(u)>>(64-8*n))
		case n <= 16:
			hi := u / 1e8
			binary.LittleEndian.PutUint64(out, eightDigits(hi)>>(128-8*n))
			binary.LittleEndian.PutUint64(out[n-8:], eightDigits(u-hi*1e8))
		default:
			hi, mid := u/1e16, u/1e8%1e8
			binary.LittleEndian.PutUint64(out, eightDigits(hi)>>(192-8*n))
			binary.LittleEndian.PutUint64(out[n-16:], eightDigits(mid))
			binary.LittleEndian.PutUint64(out[n-8:], eightDigits(u%1e8))
		}
		out[n] = ','
		p += n + 1
	}
	return b[:p-1] // drop the last separator
}

// eightDigits returns the eight ASCII digits of x < 1e8, leading zeros
// included, the most significant in the lowest byte: fold8 run backwards.
// x splits into two 4-digit lanes of 32 bits, each lane into two 2-digit
// lanes of 16 bits, each of those into two digit bytes. A division by 100
// or 10 is a multiply and a shift, exact over the lane's range.
func eightDigits(x uint64) uint64 {
	hi := x / 1e4
	v := hi | (x-hi*1e4)<<32
	q := v * 10486 >> 20 & 0x0000007F0000007F // lane / 100
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000F000F000F000F // lane / 10
	v = q | (v-q*10)<<8
	return v + 0x3030303030303030
}

// pow10 holds the powers of ten a uint64 reaches.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// digitCount returns the number of decimal digits of u (1 for 0).
// n = ⌊Len64(u)·1233/4096⌋ takes Len64(u)·log10(2) down, which is the
// digit count or one short of it, and one comparison with 10^n settles
// which. Or-ing in the low bit makes 0 count as 1 and moves no other
// value across a power of ten.
func digitCount(u uint64) int {
	u |= 1
	n := bits.Len64(u) * 1233 >> 12
	if u >= pow10[n] {
		n++
	}
	return n
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
	bp, body, err := readPooled(r)
	var resp QueryResponse
	if err == nil {
		resp, err = decodeQueryResponse(body)
	}
	putBody(bp, body)
	return resp, err
}

// readPooled reads r to its end into a buffer from bodyPool. The caller
// hands both back to putBody once nothing refers to the bytes.
func readPooled(r io.Reader) (*[]byte, []byte, error) {
	bp := bodyPool.Get().(*[]byte)
	buf := bytes.NewBuffer((*bp)[:0])
	_, err := buf.ReadFrom(r)
	return bp, buf.Bytes(), err
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
// minus, then 0 or a run of at most 19 digits without a leading zero.
// Fractions and exponents are left to the caller's next expect to reject.
// The digits are read eight bytes per step: each step loads a word, finds
// how many of its bytes continue the run, and folds those into the value.
func parseInt(b []byte, p int) (int64, int, bool) {
	neg := p < len(b) && b[p] == '-'
	if neg {
		p++
	}
	start := p
	// Shifting the n digits to the top of the word pads them with
	// leading zeros; with n = 0 the shift clears the word.
	w, n := loadDigits(b, p)
	u := fold8(w << (64 - 8*n))
	p += int(n)
	for n == 8 && p-start <= 16 { // the run goes on past the word
		w, n = loadDigits(b, p)
		u = u*pow10[n] + fold8(w<<(64-8*n))
		p += int(n)
	}
	switch {
	case p == start,
		p-start > 19,                   // beyond int64 (u may have wrapped)
		b[start] == '0' && p-start > 1: // a leading zero
		return 0, 0, false
	case neg && u <= 1<<63:
		return -int64(u), p, true // -(1<<63) wraps to MinInt64 exactly
	case !neg && u <= math.MaxInt64:
		return int64(u), p, true
	}
	return 0, 0, false
}

// loadDigits loads the word at b[p] with each digit byte turned into its
// value 0..9 and counts the digits leading it. A byte is a digit when its
// high nibble is clear and adding 6 carries nothing into it; a carry only
// moves on to later bytes, so the first non-digit and every byte before
// it test exactly.
func loadDigits(b []byte, p int) (uint64, uint) {
	w := load8(b, p) ^ 0x3030303030303030
	return w, uint(bits.TrailingZeros64((w|(w+0x0606060606060606))&0xF0F0F0F0F0F0F0F0)) / 8
}

// load8 reads b[p:p+8] as a little-endian word, a byte past the end of b
// reading as 0, which is not a digit. The tail is gathered byte by byte
// rather than copied, so parseInt calls nothing and keeps its registers.
func load8(b []byte, p int) uint64 {
	if len(b)-p >= 8 {
		return binary.LittleEndian.Uint64(b[p:])
	}
	var w uint64
	for i := len(b) - 1; i >= p; i-- {
		w = w<<8 | uint64(b[i])
	}
	return w
}

// fold8 returns the number the eight digit values 0..9 in w spell, the
// most significant in the lowest byte, in three multiply-adds: the first
// leaves each digit pair in an even byte, the other two combine pairs
// into the top 32 bits.
func fold8(w uint64) uint64 {
	w = w*10 + w>>8
	const lo, hi = 100 + 1e6<<32, 1 + 1e4<<32
	return ((w&0x000000FF000000FF)*lo + (w>>16&0x000000FF000000FF)*hi) >> 32
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

// appendQueryRequest appends the body of a one-range request (see
// oneRange) to dst and returns the extended slice: exactly the bytes
// json.Marshal(req) writes, zero fields omitted.
func appendQueryRequest(dst []byte, req QueryRequest) []byte {
	dst = append(dst, '{')
	if req.Lo != 0 {
		dst = strconv.AppendInt(append(dst, `"lo":`...), req.Lo, 10)
	}
	if req.Hi != 0 {
		dst = strconv.AppendInt(appendKey(dst, `"hi":`), req.Hi, 10)
	}
	if req.Aggregate {
		dst = appendKey(dst, `"aggregate":true`)
	}
	return append(dst, '}')
}

// oneRange reports whether req is a single range with no "or", column or
// batch: the request every coordinator sub-query and QueryRange sends,
// and the one form the codec writes and parses directly.
func (q *QueryRequest) oneRange() bool {
	return len(q.Or) == 0 && q.Col == "" && len(q.Queries) == 0
}

// appendKey appends key, after a comma unless it opens its object.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// decodeRequest decodes a request body into v, which the caller has
// zeroed, exactly as a json.Decoder refusing unknown fields would, and
// refuses anything but whitespace after the value. The body
// appendQueryRequest writes is parsed directly; every other body goes to
// that decoder.
func decodeRequest(body []byte, v any) error {
	if q, ok := v.(*QueryRequest); ok && parseQueryRequest(body, q) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if off := dec.InputOffset(); !onlySpace(body[off:]) {
		return fmt.Errorf("data after the JSON value at offset %d", off)
	}
	return nil
}

// parseQueryRequest parses the body appendQueryRequest writes,
// {"lo":…,"hi":…,"aggregate":true} with any of the three omitted, into q,
// reporting false on the first byte that departs from it. Every body it
// accepts decodes to the same value through encoding/json.
func parseQueryRequest(b []byte, q *QueryRequest) bool {
	p, ok := expect(b, 0, "{")
	if !ok {
		return false
	}
	var r QueryRequest
	if k, ok := key(b, p, `"lo":`); ok {
		if r.Lo, p, ok = parseInt(b, k); !ok {
			return false
		}
	}
	if k, ok := key(b, p, `"hi":`); ok {
		if r.Hi, p, ok = parseInt(b, k); !ok {
			return false
		}
	}
	if k, ok := key(b, p, `"aggregate":true`); ok {
		r.Aggregate, p = true, k
	}
	if p, ok = expect(b, p, "}"); !ok || !onlySpace(b[p:]) {
		return false
	}
	*q = r
	return true
}

// key reports the position after name at b[p], after a comma unless name
// would be its object's first key.
func key(b []byte, p int, name string) (int, bool) {
	if b[p-1] != '{' {
		if p >= len(b) || b[p] != ',' {
			return 0, false
		}
		p++
	}
	return expect(b, p, name)
}
