// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used throughout the cracking engine and the workload generators.
//
// The engine needs randomness that is (a) reproducible from a seed so that
// experiments and tests are deterministic, (b) cheap enough to sit inside
// per-query code paths, and (c) free of global state or locking (the stdlib
// global rand source is locked). xrand implements xoshiro256** seeded via
// splitmix64, the construction recommended by the xoshiro authors.
package xrand

// Rand is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct with New.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the seed and returns the next stage value. It is used
// only to initialize the xoshiro state so that similar seeds yield unrelated
// streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state as if it had been created by New(seed).
func (r *Rand) Seed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniformly distributed int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n called with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns an unbiased random boolean (the FlipCoin primitive).
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Perm returns a random permutation of [0, n) as int64 values, generated
// with an in-place Fisher-Yates shuffle.
func (r *Rand) Perm(n int) []int64 {
	p := make([]int64, n)
	for i := range p {
		p[i] = int64(i)
	}
	r.Shuffle(p)
	return p
}

// shuffleBatch is how many swap targets Shuffle draws before it swaps.
const shuffleBatch = 64

// Shuffle permutes p in place: the textbook Fisher-Yates shuffle, which
// swaps p[i] with p[Intn(i+1)] for i from len(p)-1 down to 1. Its output
// for a seed is part of the dataset's definition (MakeData, and every
// cluster node's slice of it), so it must never change.
//
// It draws the swap targets shuffleBatch at a time, from the same stream
// in the same order, then does that batch's swaps in a loop of loads that
// do not wait on the generator or on each other: on a column larger than
// the cache their misses overlap instead of queueing one per swap.
func (r *Rand) Shuffle(p []int64) {
	var js [shuffleBatch]int
	i := len(p) - 1
	for ; i >= shuffleBatch; i -= shuffleBatch {
		for k := range js {
			js[k] = r.Intn(i - k + 1)
		}
		for k, j := range js {
			p[i-k], p[j] = p[j], p[i-k]
		}
	}
	for ; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
