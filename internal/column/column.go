// Package column implements the column-store storage substrate that
// database cracking operates on.
//
// A cracker column is a fixed-width dense array of int64 values — the same
// representation modern column-stores use on disk and in memory — that is
// physically reorganized in place by the cracking operators. The package
// provides the three physical reorganization primitives every cracking
// algorithm in the paper is built from:
//
//   - CrackInTwo: Hoare-style partition on one pivot (crack on one bound),
//   - CrackInThree: single-pass dual-pivot partition (first query on an
//     uncracked piece, both bounds at once),
//   - SplitAndMaterialize: the MDD1R primitive of Fig. 5 — partition on a
//     random pivot while simultaneously collecting the query's qualifying
//     tuples, and
//   - PartitionState/StepPartition: a resumable, swap-budgeted partition
//     used by progressive stochastic cracking (a single crack completed
//     collaboratively by several queries).
//
// A column optionally carries a second attribute's values as a payload
// permuted in tandem with its own, which is how a sideways cracker map
// keeps a projected attribute aligned. All primitives maintain the cost
// counters the paper reports (tuples touched, swaps performed).
//
// Values-only cracks run a branchless scalar Lomuto loop. On amd64 CPUs
// with AVX-512F (and an OS that saves the ZMM state), an assembly kernel
// runs the same loop eight tuples per step and writes exactly the
// permutation the scalar loop writes, so layouts, counts and snapshots
// are the same on every CPU. CPUID picks the path once at start-up; other
// CPUs, other architectures and -tags purego builds run the scalar loop.
package column

import "fmt"

// Stats accumulates the physical-cost counters the paper's evaluation
// reports. Touched counts tuples examined during reorganization or scans;
// Swaps counts element exchanges.
type Stats struct {
	Touched int64
	Swaps   int64
}

// Reset zeroes the counters.
func (s *Stats) Reset() { s.Touched, s.Swaps = 0, 0 }

// Column is a cracker column: a dense array of values, optionally paired
// with a second attribute's values permuted in tandem. The Payload column
// is what sideways cracking ([18], see internal/table) uses: the projected
// attribute physically travels with the selection attribute, so
// projection never needs random access.
type Column struct {
	Values  []int64
	Payload []int64 // nil when no tandem attribute is attached
	Stats   Stats
}

// New wraps values in a Column. The slice is owned by the column afterwards
// and will be reorganized in place.
func New(values []int64) *Column {
	return &Column{Values: values}
}

// Len returns the number of tuples in the column.
func (c *Column) Len() int { return len(c.Values) }

// Clone returns a deep copy of the column's data (Values and
// Payload). Stats deliberately does NOT travel: the copy starts with
// zeroed counters by construction. That is a contract, not an accident —
// the benchmark harness clones one pristine column per algorithm and
// relies on each clone accumulating only its own Touched/Swaps, so a
// Clone that inherited the source's counters would silently skew every
// per-algorithm cost comparison.
func (c *Column) Clone() *Column {
	cp := &Column{Values: Alloc(len(c.Values))}
	copy(cp.Values, c.Values)
	if c.Payload != nil {
		cp.Payload = Alloc(len(c.Payload))
		copy(cp.Payload, c.Payload)
	}
	return cp
}

// NewWithPayload wraps a selection column and a second attribute whose
// values are permuted in tandem with it (a sideways cracker map).
func NewWithPayload(values, payload []int64) *Column {
	if len(values) != len(payload) {
		panic("column: payload length mismatch")
	}
	return &Column{Values: values, Payload: payload}
}

func (c *Column) swap(i, j int) {
	c.Values[i], c.Values[j] = c.Values[j], c.Values[i]
	if c.Payload != nil {
		c.Payload[i], c.Payload[j] = c.Payload[j], c.Payload[i]
	}
	c.Stats.Swaps++
}

func (c *Column) checkRange(lo, hi int) {
	if lo < 0 || hi > len(c.Values) || lo > hi {
		panic(fmt.Sprintf("column: invalid range [%d,%d) on column of %d tuples", lo, hi, len(c.Values)))
	}
}

// CrackInTwo partitions positions [lo, hi) so that all values < pivot
// precede all values >= pivot, and returns the split position p: after the
// call, Values[lo:p] < pivot <= Values[p:hi]. It is the physical operation
// behind a crack (pivot, p).
//
// Values-only columns take a specialized kernel (crackInTwoVals); columns
// carrying a tandem payload permute both attributes together through the
// generic path.
func (c *Column) CrackInTwo(lo, hi int, pivot int64) int {
	c.checkRange(lo, hi)
	c.Stats.Touched += int64(hi - lo)
	if c.Payload == nil {
		p, swaps := crackInTwoVals(c.Values[lo:hi:hi], pivot)
		c.Stats.Swaps += swaps
		return lo + p
	}
	v := c.Values
	L, R := lo, hi-1
	for L <= R {
		for L <= R && v[L] < pivot {
			L++
		}
		for L <= R && v[R] >= pivot {
			R--
		}
		if L < R {
			c.swap(L, R)
			L++
			R--
		}
	}
	return L
}

// crackInTwoVals is the hot crack-in-two kernel: a branchless Lomuto
// partition over a bare value slice. A Hoare partition's inner scans exit
// on a data-dependent comparison, which on the uniformly shuffled data
// cracking sees is a coin-flip branch — one misprediction every couple of
// tuples dominates the kernel's runtime. This loop instead performs an
// unconditional pair write per tuple and advances the store index with a
// flag-materialized increment, so the loop body carries no data-dependent
// branch at all. The already-partitioned prefix is skipped first, which
// also spares its write traffic.
//
// The scalar loop (lomuto) is the definition. On amd64 CPUs with
// AVX-512 (see crack_amd64.go), crackVector runs the same steps eight
// tuples at a time and writes exactly the permutation the scalar loop
// writes, so layouts, counts and snapshots are the same on every CPU;
// the scalar loop then runs the tail. Other CPUs, other architectures and
// -tags purego builds run the scalar loop throughout.
//
// swaps counts every tuple < pivot that had to move left (those
// encountered after the first tuple >= pivot). That is an upper bound on
// — not equal to — the Hoare pair-exchange count the tandem path
// records: a Hoare exchange fixes two misplaced tuples at once, so
// values-only and payload columns can report different Swaps for
// the same logical operation. Swaps is a kernel-level diagnostic;
// Touched is the machine-independent cost metric the paper compares.
func crackInTwoVals(v []int64, pivot int64) (p int, swaps int64) {
	r := 0
	for r < len(v) && v[r] < pivot {
		r++
	}
	j, i := crackVector(v, pivot, r, r)
	j = lomuto(v, pivot, j, i)
	return j, int64(j - r)
}

// lomuto runs the Lomuto steps for v[i:] and returns the new j. v[:j]
// holds the lows and v[j:i] the run of highs; each step moves v[i] to the
// run's front slot and the front to slot i, and grows the lows by one
// when v[i] < pivot.
func lomuto(v []int64, pivot int64, j, i int) int {
	for ; i < len(v); i++ {
		x := v[i]
		v[i] = v[j]
		v[j] = x
		d := 0
		if x < pivot {
			d = 1
		}
		j += d
	}
	return j
}

// CrackInThree partitions positions [lo, hi) on two pivots a < b so that
// values < a come first, then values in [a, b), then values >= b. It
// returns (p1, p2): Values[lo:p1] < a <= Values[p1:p2] < b <=
// Values[p2:hi]. This is the first-query operation of original cracking
// (Fig. 1, query Q1).
//
// Values-only columns run two branchless crack-in-two passes — the second
// only over the upper part — which beats the classic single-pass dual-pivot
// loop: that loop's three-way switch mispredicts on nearly every tuple of
// shuffled data, while two crackInTwoVals passes carry no data-dependent
// branch. Touched stays the logical cost of the operation (one examination
// of the piece, as the paper counts it); how a kernel schedules its memory
// accesses — Lomuto's unconditional pair writes, the second pass here — is
// below the machine-independent cost model. Columns with a payload keep
// the single-pass generic path.
func (c *Column) CrackInThree(lo, hi int, a, b int64) (p1, p2 int) {
	c.checkRange(lo, hi)
	if a > b {
		panic(fmt.Sprintf("column: CrackInThree with a=%d > b=%d", a, b))
	}
	c.Stats.Touched += int64(hi - lo)
	if c.Payload == nil {
		v := c.Values
		q1, s1 := crackInTwoVals(v[lo:hi:hi], a)
		p1 = lo + q1
		q2, s2 := crackInTwoVals(v[p1:hi:hi], b)
		p2 = p1 + q2
		c.Stats.Swaps += s1 + s2
		return p1, p2
	}
	v := c.Values
	// Dual-pivot partition: [lo,l) < a, [l,i) in [a,b), [i,r] unseen,
	// (r,hi) >= b.
	l, i, r := lo, lo, hi-1
	for i <= r {
		switch x := v[i]; {
		case x < a:
			if i != l {
				c.swap(i, l)
			}
			l++
			i++
		case x >= b:
			c.swap(i, r)
			r--
		default:
			i++
		}
	}
	return l, r + 1
}

// inRange reports a <= x && x < b in one compare: uint64(x-a) is x's rank
// in the int64 order starting at a (the domain spans exactly 2^64 values,
// so the subtraction is exact modular rank), and [a, b) is the rank
// interval [0, uint64(b-a)). Requires a <= b, which every caller
// normalizes first. One predictable compare instead of two keeps the
// materialization kernels branch-lean.
func inRange(x, a, b int64) bool {
	return uint64(x-a) < uint64(b-a)
}

// Position returns the first index p in [lo, hi) such that all values in
// [lo, p) are < pivot, assuming [lo, hi) is already partitioned on pivot.
// It is used in tests to validate crack invariants; O(n).
func (c *Column) Position(lo, hi int, pivot int64) int {
	for i := lo; i < hi; i++ {
		if c.Values[i] >= pivot {
			return i
		}
	}
	return hi
}

// SplitAndMaterialize is the MDD1R primitive (Fig. 5): it partitions
// [lo, hi) on pivot while collecting into out every value in [a, b)
// encountered along the way, returning the grown slice and the split
// position. One pass performs both the random crack and the query's result
// materialization for this piece. Values-only columns run the branchless
// partition loop fused with a single-compare range test; the qualifying
// branch stays, but at typical selectivities it is almost-never-taken and
// predicts perfectly.
func (c *Column) SplitAndMaterialize(lo, hi int, pivot, a, b int64, out []int64) ([]int64, int) {
	c.checkRange(lo, hi)
	c.Stats.Touched += int64(hi - lo)
	if a > b {
		a = b // normalize so the rank compare sees an empty interval
	}
	if c.Payload == nil {
		v := c.Values[lo:hi:hi]
		r := 0
		for r < len(v) && v[r] < pivot {
			if x := v[r]; inRange(x, a, b) {
				out = append(out, x)
			}
			r++
		}
		j := r
		for i := r; i < len(v); i++ {
			x := v[i]
			v[i] = v[j]
			v[j] = x
			if inRange(x, a, b) {
				out = append(out, x)
			}
			d := 0
			if x < pivot {
				d = 1
			}
			j += d
		}
		c.Stats.Swaps += int64(j - r)
		return out, lo + j
	}
	v := c.Values
	L, R := lo, hi-1
	for L <= R {
		for L <= R && v[L] < pivot {
			if x := v[L]; a <= x && x < b {
				out = append(out, x)
			}
			L++
		}
		for L <= R && v[R] >= pivot {
			if x := v[R]; a <= x && x < b {
				out = append(out, x)
			}
			R--
		}
		if L < R {
			c.swap(L, R)
		}
	}
	return out, L
}

// SplitAndMaterializeGE is the specialized end-piece variant used when the
// query's two bounds fall in different pieces (Fig. 6): in the leftmost
// intersecting piece every value >= a qualifies (the piece lies entirely
// below the query's upper bound). It partitions on pivot while collecting
// values >= a.
func (c *Column) SplitAndMaterializeGE(lo, hi int, pivot, a int64, out []int64) ([]int64, int) {
	c.checkRange(lo, hi)
	c.Stats.Touched += int64(hi - lo)
	if c.Payload == nil {
		v := c.Values[lo:hi:hi]
		r := 0
		for r < len(v) && v[r] < pivot {
			if x := v[r]; x >= a {
				out = append(out, x)
			}
			r++
		}
		j := r
		for i := r; i < len(v); i++ {
			x := v[i]
			v[i] = v[j]
			v[j] = x
			if x >= a {
				out = append(out, x)
			}
			d := 0
			if x < pivot {
				d = 1
			}
			j += d
		}
		c.Stats.Swaps += int64(j - r)
		return out, lo + j
	}
	v := c.Values
	L, R := lo, hi-1
	for L <= R {
		for L <= R && v[L] < pivot {
			if v[L] >= a {
				out = append(out, v[L])
			}
			L++
		}
		for L <= R && v[R] >= pivot {
			if v[R] >= a {
				out = append(out, v[R])
			}
			R--
		}
		if L < R {
			c.swap(L, R)
		}
	}
	return out, L
}

// SplitAndMaterializeLT is the mirrored end-piece variant: in the rightmost
// intersecting piece every value < b qualifies. It partitions on pivot
// while collecting values < b.
func (c *Column) SplitAndMaterializeLT(lo, hi int, pivot, b int64, out []int64) ([]int64, int) {
	c.checkRange(lo, hi)
	c.Stats.Touched += int64(hi - lo)
	if c.Payload == nil {
		v := c.Values[lo:hi:hi]
		r := 0
		for r < len(v) && v[r] < pivot {
			if x := v[r]; x < b {
				out = append(out, x)
			}
			r++
		}
		j := r
		for i := r; i < len(v); i++ {
			x := v[i]
			v[i] = v[j]
			v[j] = x
			if x < b {
				out = append(out, x)
			}
			d := 0
			if x < pivot {
				d = 1
			}
			j += d
		}
		c.Stats.Swaps += int64(j - r)
		return out, lo + j
	}
	v := c.Values
	L, R := lo, hi-1
	for L <= R {
		for L <= R && v[L] < pivot {
			if v[L] < b {
				out = append(out, v[L])
			}
			L++
		}
		for L <= R && v[R] >= pivot {
			if v[R] < b {
				out = append(out, v[R])
			}
			R--
		}
		if L < R {
			c.swap(L, R)
		}
	}
	return out, L
}

// ScanMaterialize appends to out every value in [a, b) found in positions
// [lo, hi) without reorganizing, as a plain column-store select operator
// does.
func (c *Column) ScanMaterialize(lo, hi int, a, b int64, out []int64) []int64 {
	c.checkRange(lo, hi)
	c.Stats.Touched += int64(hi - lo)
	if a >= b {
		return out
	}
	for _, x := range c.Values[lo:hi] {
		if inRange(x, a, b) {
			out = append(out, x)
		}
	}
	return out
}

// CountRange counts values in [a, b) within positions [lo, hi) without
// reorganizing or materializing.
func (c *Column) CountRange(lo, hi int, a, b int64) int {
	c.checkRange(lo, hi)
	c.Stats.Touched += int64(hi - lo)
	if a >= b {
		return 0
	}
	n := 0
	for _, x := range c.Values[lo:hi] {
		if inRange(x, a, b) {
			n++
		}
	}
	return n
}
