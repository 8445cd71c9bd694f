package main

import (
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// summary is how every timing is reported: the median across repetitions,
// with the quartiles and the sample count printed beside it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile interpolates linearly on a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// percentileNS sorts the latency sample in place and returns its q-quantile
// in nanoseconds (nearest rank, so p99 of 10 000 samples has 100 beyond it).
func percentileNS(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	slices.Sort(lat)
	i := int(q * float64(len(lat)))
	if i >= len(lat) {
		i = len(lat) - 1
	}
	return float64(lat[i])
}

func meanNS(lat []int64) float64 {
	if len(lat) == 0 {
		return 0
	}
	var sum int64
	for _, d := range lat {
		sum += d
	}
	return float64(sum) / float64(len(lat))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLive is HeapAlloc after a full collection: what the live DBs, servers
// and the benchmark's own buffers hold.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
