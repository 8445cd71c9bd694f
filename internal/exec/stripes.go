package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// stripeLock is a reader/writer lock whose readers write no cache line
// another reader writes. A single RWMutex makes every converged read do
// atomic read-modify-writes on one reader count that every core shares, so
// parallel reads ping-pong that line between cores. Here each P
// (GOMAXPROCS at construction) owns a padded stripe holding its own
// RWMutex and read counter. A reader read-locks one stripe only; a writer
// locks every stripe, so it still excludes every reader.
//
// Readers find their stripe through a sync.Pool, whose per-P private slot
// returns the stripe the P used last without a shared write. Correctness
// never depends on which stripe a reader gets — the race detector's pool
// drops some Puts on purpose, and a goroutine may change P between Get and
// Put — only the contention does.
//
// A single RWMutex parks every new reader once a writer waits, which frees
// the Ps for a preempted reader still holding the lock. Stripes alone
// would not: readers of the stripes the writer has not reached yet keep
// every P busy, and the writer waits out whole scheduler time slices. So a
// writer also raises writers, and a reader that sees it raised first waits
// on stripe 0, which the writer locks first and unlocks last. Readers only
// read that word; writers, which lock every stripe anyway, write it.
//
// An elided lock (Single mode, one caller at a time by contract) locks
// nothing: it has one stripe, which every reader gets and counts itself
// on, so the executor above it runs the same code in every mode.
type stripeLock struct {
	stripes []stripe
	elided  bool
	pool    sync.Pool     // of *stripe
	next    atomic.Uint32 // round robin for pool.New
	writers atomic.Int32  // writers waiting for or holding the lock
}

// stripe is one P's share of the lock, padded to 128 bytes so neighbouring
// stripes never share a cache line (nor an adjacent-line prefetch pair).
type stripe struct {
	mu    sync.RWMutex
	reads atomic.Int64 // queries answered under this stripe's read lock
	_     [128 - unsafe.Sizeof(sync.RWMutex{}) - 8]byte
}

func (l *stripeLock) init(elided bool) {
	if l.elided = elided; elided {
		l.stripes = make([]stripe, 1)
		return
	}
	l.stripes = make([]stripe, runtime.GOMAXPROCS(0))
	l.pool.New = func() any {
		return &l.stripes[int(l.next.Add(1)-1)%len(l.stripes)]
	}
}

// rlock read-locks one stripe and returns it for runlock.
func (l *stripeLock) rlock() *stripe {
	if l.elided {
		return &l.stripes[0]
	}
	if l.writers.Load() != 0 {
		l.stripes[0].mu.RLock()
		l.stripes[0].mu.RUnlock()
	}
	s := l.pool.Get().(*stripe)
	s.mu.RLock()
	return s
}

func (l *stripeLock) runlock(s *stripe) {
	if l.elided {
		return
	}
	s.mu.RUnlock()
	l.pool.Put(s)
}

// Lock locks every stripe, in index order so concurrent writers cannot
// deadlock; Unlock releases them in reverse.
func (l *stripeLock) Lock() {
	if l.elided {
		return
	}
	l.writers.Add(1)
	for i := range l.stripes {
		l.stripes[i].mu.Lock()
	}
}

func (l *stripeLock) Unlock() {
	if l.elided {
		return
	}
	for i := len(l.stripes) - 1; i >= 0; i-- {
		l.stripes[i].mu.Unlock()
	}
	l.writers.Add(-1)
}

// reads sums the stripes' read counters.
func (l *stripeLock) reads() int64 {
	var n int64
	for i := range l.stripes {
		n += l.stripes[i].reads.Load()
	}
	return n
}
