package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-linear bucket layout (the HDR-histogram shape): each power-of-two
// octave of the uint64 value domain is subdivided into histSub linear
// sub-buckets, so the bucket width is always ≤ 1/histSub of the value —
// a fixed ~3.1% relative-error bound with a fixed 15 KB footprint,
// independent of how many values are observed or how they are
// distributed. Values below histSub are recorded exactly.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits // 32 sub-buckets per octave
	histBuckets = (64-histSubBits)*histSub + histSub
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // position of the top bit, ≥ histSubBits
	return (e-histSubBits+1)*histSub + int((v>>(uint(e)-histSubBits))&(histSub-1))
}

// bucketUpper returns the largest value a bucket covers — what Quantile
// reports, biasing estimates high by at most one part in histSub.
func bucketUpper(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	o := uint(i / histSub)
	s := uint64(i % histSub)
	shift := o - 1 // e - histSubBits for this octave
	return (histSub+s)<<shift + (1 << shift) - 1
}

// Histogram is a concurrent log-linear histogram over uint64 values with
// bounded memory and bounded relative error. Observe is one atomic add on
// the value's bucket plus one on the running sum; quantiles are computed
// from snapshots. A nil *Histogram is a no-op.
//
// scale is the multiplier applied when exporting (Prometheus wants
// seconds; durations are recorded in nanoseconds, so their scale is 1e-9).
type Histogram struct {
	scale  float64
	sum    uint64 // Σ observed values, raw units
	counts [histBuckets]uint64
}

// NewHistogram builds an unregistered histogram over raw values; most
// callers want Registry.Histogram or Registry.Duration.
func NewHistogram() *Histogram { return &Histogram{scale: 1} }

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	atomic.AddUint64(&h.counts[bucketIndex(v)], 1)
	atomic.AddUint64(&h.sum, v)
}

// Snapshot returns a consistent-enough copy for quantile extraction and
// merging. Buckets are loaded atomically one by one, so a snapshot taken
// mid-traffic can be off by the few observations that landed during the
// sweep — fine for monitoring, and exact once writers quiesce.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{}
	if h == nil {
		return s
	}
	s.Sum = atomic.LoadUint64(&h.sum)
	s.counts = make([]uint64, histBuckets)
	for i := range h.counts {
		c := atomic.LoadUint64(&h.counts[i])
		s.counts[i] = c
		s.Count += c
	}
	return s
}

// HistSnapshot is an immutable copy of a histogram's buckets. Snapshots
// merge associatively and commutatively (bucket-wise sums), so per-shard
// or per-window snapshots can be combined in any grouping, and subtract
// (Delta) to carve a cumulative series into collection windows.
type HistSnapshot struct {
	Count  uint64
	Sum    uint64
	counts []uint64
}

// Merge returns the combination of s and o.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	if s.counts == nil && o.counts == nil {
		return out
	}
	out.counts = make([]uint64, histBuckets)
	copy(out.counts, s.counts)
	for i, c := range o.counts {
		out.counts[i] += c
	}
	return out
}

// Delta returns the observations present in s but not in prev — the
// inverse of Merge for the common "cumulative series, periodic snapshot"
// pattern: snapshot at each window boundary, Delta against the previous
// boundary, and the result is exactly that window's distribution (same
// quantile and mean semantics as any other snapshot). If s is not a
// superset of prev (the histogram restarted), s is returned whole.
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	if prev.Count == 0 {
		return s
	}
	if s.Count < prev.Count || s.Sum < prev.Sum {
		return s
	}
	out := HistSnapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum}
	if s.counts == nil {
		return out
	}
	out.counts = make([]uint64, len(s.counts))
	for i, c := range s.counts {
		var p uint64
		if i < len(prev.counts) {
			p = prev.counts[i]
		}
		if c >= p {
			out.counts[i] = c - p
		}
	}
	return out
}

// Quantile returns the q-th quantile (q in [0,1]) as the upper bound of
// the bucket holding that rank: an overestimate by at most ~3.1%
// (1/histSub) of the true value. Returns 0 on an empty snapshot.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 || len(s.counts) == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Mean returns the arithmetic mean of the observed values (exact, from
// the running sum — not a bucket estimate).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// DurationHistogram records time.Durations into a Histogram in
// nanoseconds; the underlying histogram exports in seconds. A nil
// *DurationHistogram is a no-op.
type DurationHistogram struct {
	H *Histogram
}

// Observe records one duration (negatives clamp to zero).
func (d *DurationHistogram) Observe(dur time.Duration) {
	if d == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	d.H.Observe(uint64(dur))
}

// Since records the time elapsed from t0. A zero t0 records nothing.
func (d *DurationHistogram) Since(t0 time.Time) {
	if d == nil || t0.IsZero() {
		return
	}
	d.Observe(time.Since(t0))
}

// Snapshot exposes the underlying histogram's snapshot (values in ns).
func (d *DurationHistogram) Snapshot() HistSnapshot {
	if d == nil {
		return HistSnapshot{}
	}
	return d.H.Snapshot()
}
