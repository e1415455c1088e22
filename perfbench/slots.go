package main

import (
	"math/bits"
	"sort"
	"syscall"
	"time"
)

// slotLength is the granularity of the per-slot statistics.
const slotLength = time.Second

// The latency histogram is log-linear: 2^subBits sub-buckets per power of
// two of nanoseconds, so a bucket is at most 1/64 (1.6%) wide relative to
// its value, and quantiles interpolate inside it.
const (
	subBits    = 6
	subBuckets = 1 << subBits
	histExp    = 40 // 2^40 ns ≈ 18 minutes: beyond any op here
)

type latHist struct {
	n       int64
	buckets [histExp * subBuckets]int32
}

func bucketOf(ns int64) int {
	if ns < subBuckets {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // ≥ subBits
	sub := int(ns>>(exp-subBits)) & (subBuckets - 1)
	i := (exp-subBits+1)*subBuckets + sub
	if i >= len(latHist{}.buckets) {
		return len(latHist{}.buckets) - 1
	}
	return i
}

// bucketBounds returns bucket i's range [lo, hi) in nanoseconds.
func bucketBounds(i int) (lo, hi float64) {
	if i < subBuckets {
		return float64(i), float64(i + 1)
	}
	exp := i/subBuckets + subBits - 1
	sub := i % subBuckets
	width := float64(uint64(1) << (exp - subBits))
	lo = float64(uint64(1)<<exp) + float64(sub)*width
	return lo, lo + width
}

func (h *latHist) add(d time.Duration) {
	h.buckets[bucketOf(int64(d))]++
	h.n++
}

// quantileMicros returns the q quantile (0 < q < 1) in microseconds,
// interpolating linearly inside the bucket that holds the rank.
func (h *latHist) quantileMicros(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			return (lo + (rank-seen)/float64(c)*(hi-lo)) / 1e3
		}
		seen += float64(c)
	}
	return 0
}

func (h *latHist) reset() { *h = latHist{} }

// slotStat is what one slot of the window measured.
type slotStat struct {
	opsPerSec float64
	p50, p95  float64 // µs
	cpuPerOp  float64 // µs
}

// slotter cuts the timed window into slots of slotLength and keeps each
// slot's throughput, latency quantiles and CPU per op. On a shared host a
// run is slowed in bursts (CPU steal, a neighbour's disk or cache
// traffic); the median slot is not moved by a burst that covers less
// than half of the window, where a whole-window figure is. Not safe for
// concurrent use: the load generator that times the ops owns it.
type slotter struct {
	start time.Time
	cpu0  time.Duration
	ops   int64
	hist  latHist
	slots []slotStat
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// begin opens the first slot at now.
func (s *slotter) begin(now time.Time) {
	s.start, s.cpu0, s.ops = now, cpuNow(), 0
	s.hist.reset()
}

// add records one completed op of latency d.
func (s *slotter) add(d time.Duration) {
	s.ops++
	s.hist.add(d)
}

// tick closes the current slot once it is slotLength old.
func (s *slotter) tick(now time.Time) {
	if now.Sub(s.start) >= slotLength {
		s.close(now)
	}
}

// end closes the last slot, keeping it only if it covers at least half
// a slot.
func (s *slotter) end(now time.Time) {
	if now.Sub(s.start) >= slotLength/2 {
		s.close(now)
	}
}

func (s *slotter) close(now time.Time) {
	if s.ops > 0 {
		cpu := cpuNow()
		s.slots = append(s.slots, slotStat{
			opsPerSec: float64(s.ops) / now.Sub(s.start).Seconds(),
			p50:       s.hist.quantileMicros(0.50),
			p95:       s.hist.quantileMicros(0.95),
			cpuPerOp:  float64(cpu-s.cpu0) / 1e3 / float64(s.ops),
		})
	}
	s.begin(now)
}

// medians returns the median over slots of each slot figure.
func (s *slotter) medians() slotStat {
	col := func(get func(slotStat) float64) []float64 {
		xs := make([]float64, len(s.slots))
		for i, st := range s.slots {
			xs[i] = get(st)
		}
		sort.Float64s(xs)
		return xs
	}
	return slotStat{
		opsPerSec: percentile(col(func(st slotStat) float64 { return st.opsPerSec }), 50),
		p50:       percentile(col(func(st slotStat) float64 { return st.p50 }), 50),
		p95:       percentile(col(func(st slotStat) float64 { return st.p95 }), 50),
		cpuPerOp:  percentile(col(func(st slotStat) float64 { return st.cpuPerOp }), 50),
	}
}
