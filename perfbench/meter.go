package main

import (
	"time"

	"github.com/mnm-model/mnm/internal/metrics"
)

// regSnap is the program's own counters at one instant: the frame plane
// of both nodes, the durable store's WAL, and (in the traced run) the
// span recorder's totals.
type regSnap struct {
	frameSent, frameRetrans int64
	batchFrames, rtt        metrics.HistSnapshot
	fsync                   metrics.HistSnapshot
	walAppends              int64
	spans                   [numLayers]layerStats
	empties, remote         int64
}

func snapRegs(nodes []*metrics.Registry, store *metrics.Registry, rec *recorder) regSnap {
	var s regSnap
	for _, r := range nodes {
		c := r.Counters()
		s.frameSent += c.Total(metrics.FrameSent)
		s.frameRetrans += c.Total(metrics.FrameRetrans)
		s.batchFrames = addHist(s.batchFrames, r.Histogram(metrics.HistBatchFrames).Snapshot())
		s.rtt = addHist(s.rtt, r.Histogram(metrics.HistFrameRTT).Snapshot())
	}
	if store != nil {
		s.fsync = store.Histogram(metrics.HistFsync).Snapshot()
		s.walAppends = store.Counters().Total(metrics.WALAppends)
	}
	if rec != nil {
		for l := layer(0); l < numLayers; l++ {
			s.spans[l] = rec.stats(l)
		}
		s.empties = rec.empties.Load()
		s.remote = rec.remote.Load()
	}
	return s
}

// sub returns the change from a to s.
func (s regSnap) sub(a regSnap) regSnap {
	d := regSnap{
		frameSent:    s.frameSent - a.frameSent,
		frameRetrans: s.frameRetrans - a.frameRetrans,
		batchFrames:  s.batchFrames.Sub(a.batchFrames),
		rtt:          s.rtt.Sub(a.rtt),
		fsync:        s.fsync.Sub(a.fsync),
		walAppends:   s.walAppends - a.walAppends,
		empties:      s.empties - a.empties,
		remote:       s.remote - a.remote,
	}
	for l := range d.spans {
		d.spans[l] = layerStats{
			count: s.spans[l].count - a.spans[l].count,
			total: s.spans[l].total - a.spans[l].total,
			self:  s.spans[l].self - a.spans[l].self,
		}
	}
	return d
}

// acks is the number of ack frames written: every frame a batch carried
// that was not a sequenced data/RPC frame. Batch sizes are recorded as
// value observations (one unit per frame = 1µs of the duration scale).
func (s regSnap) acks() int64 {
	return s.batchFrames.SumNS/int64(time.Microsecond) - s.frameSent - s.frameRetrans
}

func addHist(a, b metrics.HistSnapshot) metrics.HistSnapshot {
	out := metrics.HistSnapshot{Count: a.Count + b.Count, SumNS: a.SumNS + b.SumNS, MaxNS: max(a.MaxNS, b.MaxNS)}
	for i := range out.Buckets {
		out.Buckets[i] = a.Buckets[i] + b.Buckets[i]
	}
	return out
}

// histQuantileMicros estimates the q quantile (0 < q < 1) of a latency
// histogram in microseconds. The program's histograms bucket by powers
// of two (bucket i holds [2^i, 2^(i+1)) µs, bucket 0 also everything
// below 1µs); the estimate interpolates linearly inside the bucket that
// holds the rank, so it moves with the data instead of snapping to a
// bucket bound. Empty histograms yield 0.
func histQuantileMicros(s metrics.HistSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := 0.0, 2.0
			if i > 0 {
				lo, hi = float64(uint64(1)<<i), float64(uint64(1)<<(i+1))
			}
			if maxUS := float64(s.MaxNS) / 1e3; hi > maxUS && maxUS > lo {
				hi = maxUS
			}
			return lo + (rank-seen)/float64(c)*(hi-lo)
		}
		seen += float64(c)
	}
	return float64(s.MaxNS) / 1e3
}
