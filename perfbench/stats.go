package main

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-th percentile (0 ≤ q ≤ 100) of xs by linear
// interpolation between the two closest order statistics, the way
// numpy's default method does. xs must be sorted ascending; an empty
// slice yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 100 {
		return xs[len(xs)-1]
	}
	pos := q / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(xs) {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[hi]-xs[lo])
}

// median sorts a copy of xs and returns its 50th percentile.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// reservoir keeps a uniform random sample of at most cap(buf) latencies
// (Vitter's algorithm R), so percentiles of a multi-million-op run cost a
// fixed amount of memory. Below capacity it holds every sample. Not safe
// for concurrent use: each load generator owns one.
type reservoir struct {
	buf  []uint32 // nanoseconds; a 4.29 s cap is far above any op here
	seen int64
	rng  *rand.Rand
}

func newReservoir(capacity int, seed int64) *reservoir {
	return &reservoir{buf: make([]uint32, 0, capacity), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(d time.Duration) {
	ns := uint32(math.MaxUint32)
	if d >= 0 && d < time.Duration(math.MaxUint32) {
		ns = uint32(d)
	}
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ns)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(len(r.buf)) {
		r.buf[j] = ns
	}
}

// sortedMicros returns the sample in microseconds, ascending.
func (r *reservoir) sortedMicros() []float64 {
	out := make([]float64, len(r.buf))
	for i, ns := range r.buf {
		out[i] = float64(ns) / 1e3
	}
	sort.Float64s(out)
	return out
}

// mean returns the sample mean in microseconds.
func (r *reservoir) meanMicros() float64 {
	if len(r.buf) == 0 {
		return 0
	}
	var sum float64
	for _, ns := range r.buf {
		sum += float64(ns)
	}
	return sum / float64(len(r.buf)) / 1e3
}

// procSnap is the process-wide resource state at one instant: CPU time
// and context switches from getrusage, allocation and GC counts from the
// Go runtime, and the host's CPU ticks from /proc/stat (for steal).
type procSnap struct {
	at         time.Time
	cpu        time.Duration
	vcsw       int64
	ivcsw      int64
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	hostTotal  uint64
	hostSteal  uint64
}

func takeSnap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.vcsw = ru.Nvcsw
		s.ivcsw = ru.Nivcsw
	}
	s.hostTotal, s.hostSteal = hostTicks()
	s.at = time.Now()
	return s
}

// window is the resource use between two snapshots.
type window struct {
	wall     time.Duration
	cpu      time.Duration
	vcsw     int64
	ivcsw    int64
	mallocs  uint64
	bytes    uint64
	gcs      uint32
	stealPct float64
}

func between(a, b procSnap) window {
	w := window{
		wall:    b.at.Sub(a.at),
		cpu:     b.cpu - a.cpu,
		vcsw:    b.vcsw - a.vcsw,
		ivcsw:   b.ivcsw - a.ivcsw,
		mallocs: b.mallocs - a.mallocs,
		bytes:   b.totalAlloc - a.totalAlloc,
		gcs:     b.numGC - a.numGC,
	}
	if dt := b.hostTotal - a.hostTotal; dt > 0 && b.hostTotal >= a.hostTotal {
		w.stealPct = 100 * float64(b.hostSteal-a.hostSteal) / float64(dt)
	}
	return w
}

// hostTicks reads the aggregate "cpu" line of /proc/stat and returns the
// total ticks and the steal ticks. Both are 0 where /proc is missing.
func hostTicks() (total, steal uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so sum the first eight.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
