// Package obs is the serving stack's observability substrate: lock-free
// latency histograms, a bounded trace ring, Prometheus text exposition
// helpers with a strictness checker, and an opt-in pprof listener.
//
// The central type is Histogram — a fixed-boundary, log-bucketed (HDR-style
// log-linear: power-of-two octaves split into 4 sub-buckets, ≤25% relative
// bucket width, ≤12.5% quantization error after interpolation) concurrent
// histogram of non-negative integer values, typically latencies in
// nanoseconds. The record path is two atomic adds into the recording P's
// stripe (see Stripe): no locks, no allocation, and no write to a cache line
// a record on another core writes — cheap enough to sit on every request and
// every stage of the hot path. Snapshot sums the stripes into an immutable,
// mergeable value that estimates percentiles by linear interpolation inside
// the resolved bucket and carries the exact count and sum.
//
// Every Histogram shares one compile-time bucket layout, so snapshots merge
// across histograms, engines and processes (the seaload client aggregates
// worker histograms the same way the catalog aggregates per-dataset ones).
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: values 0..subCount-1 get exact unit buckets; from there,
// each power-of-two octave [2^e, 2^(e+1)) splits into subCount sub-buckets
// of width 2^(e-subBits). maxShift bounds the top octave; values at or above
// 2^(maxShift+1) land in the overflow (+Inf) bucket. With subBits=2 and
// maxShift=49 the layout covers 1ns..~13d latencies and small counts (batch
// fan-out widths) in 197 buckets of ≤25% width (≤12.5% mean quantization
// error after interpolation).
const (
	subBits  = 2
	subCount = 1 << subBits // sub-buckets per octave
	maxShift = 49           // top octave exponent

	// NumBuckets is the per-histogram counter count: subCount unit buckets,
	// subCount per octave for octaves subBits..maxShift, plus the trailing
	// +Inf overflow bucket.
	NumBuckets = (maxShift-subBits+1)*subCount + subCount + 1

	// maxTracked is the first value that overflows into the +Inf bucket.
	maxTracked = uint64(1) << (maxShift + 1)
)

// bucketIndex maps a value to its bucket. Values < subCount are exact;
// larger values resolve to (octave, sub-bucket) by their top bits.
func bucketIndex(v uint64) int {
	if v >= maxTracked {
		return NumBuckets - 1
	}
	e := bits.Len64(v|1) - 1 // floor(log2 v), 0 for v==0
	if e < subBits {
		return int(v)
	}
	sub := int((v >> (uint(e) - subBits)) & (subCount - 1))
	return (e-subBits)*subCount + sub + subCount
}

// BucketUpper returns bucket i's inclusive upper bound: every value in the
// bucket is ≤ BucketUpper(i) and every value in bucket i+1 is > it. The
// overflow bucket returns MaxUint64.
func BucketUpper(i int) uint64 {
	if i >= NumBuckets-1 {
		return math.MaxUint64
	}
	if i < subCount {
		return uint64(i)
	}
	j := i - subCount
	e := uint(subBits + j/subCount)
	sub := uint64(j % subCount)
	lower := uint64(1)<<e + sub<<(e-subBits)
	return lower + 1<<(e-subBits) - 1
}

// bucketLower returns bucket i's inclusive lower bound.
func bucketLower(i int) uint64 {
	if i == 0 {
		return 0
	}
	return BucketUpper(i-1) + 1
}

// Histogram is a concurrent fixed-boundary log-bucketed histogram, split
// into Stripes cache-line-padded stripes (≈13 KB in all). The zero value is
// ready to use; copying a non-zero Histogram is not (hold it by pointer or
// embed it in a heap-allocated struct).
type Histogram struct {
	_       [cacheLine]byte // keeps stripe 0 off the line of the field before
	stripes [Stripes]histStripe
}

type histStripe struct {
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
	_       [cacheLine]byte
}

// Observe records one non-negative value (negative values clamp to 0) into
// the calling P's stripe. The record path is wait-free and allocation-free.
func (h *Histogram) Observe(v int64) { h.ObserveAt(TakeStripe(), v) }

// ObserveAt is Observe into stripe s, for a caller that took its stripe
// once for several records.
func (h *Histogram) ObserveAt(s Stripe, v int64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	st := &h.stripes[s%Stripes]
	st.buckets[bucketIndex(u)].Add(1)
	st.sum.Add(u)
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Nanoseconds())
}

// Snapshot sums the stripes into an immutable value. Its count is the sum of
// the bucket counts it copied, so the two always agree. Concurrent with
// Observe the copy is weakly consistent bucket by bucket (sum and buckets
// may straddle a racing record by one), which is the usual and harmless
// histogram-scrape semantics; it never tears a single counter. With no
// record in flight every count, the sum and every bucket are exact.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.stripes {
		st := &h.stripes[i]
		s.Sum += st.sum.Load()
		for b := range st.buckets {
			s.Buckets[b] += st.buckets[b].Load()
		}
	}
	for _, c := range s.Buckets {
		s.Count += c
	}
	return s
}

// Snapshot is an immutable point-in-time copy of a Histogram: per-bucket
// counts plus the exact observation count and sum. The zero value is an
// empty snapshot. Snapshots estimate quantiles by linear interpolation
// within the resolved bucket.
type Snapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [NumBuckets]uint64
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded values,
// interpolating linearly inside the bucket the rank resolves to. An empty
// snapshot returns 0; ranks landing in the overflow bucket return its lower
// bound (the estimate saturates, it never invents a value).
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == NumBuckets-1 {
			if i == NumBuckets-1 {
				return float64(bucketLower(i))
			}
			lo, hi := float64(bucketLower(i)), float64(BucketUpper(i))+1
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return 0
}

// Mean returns the exact mean of the recorded values (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Max returns the inclusive upper bound of the highest non-empty bucket —
// an upper estimate of the true maximum (0 when empty).
func (s Snapshot) Max() uint64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return BucketUpper(i)
		}
	}
	return 0
}

// Summary is the JSON-friendly digest of a latency snapshot, in
// microseconds: the flat shape /stats and seaload records use.
type Summary struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
	MaxUS  float64 `json:"max_us"`
}

// Summary digests a nanosecond-valued snapshot into microsecond percentiles.
func (s Snapshot) Summary() Summary {
	const us = 1e3
	return Summary{
		Count:  s.Count,
		MeanUS: s.Mean() / us,
		P50US:  s.Quantile(0.50) / us,
		P90US:  s.Quantile(0.90) / us,
		P99US:  s.Quantile(0.99) / us,
		P999US: s.Quantile(0.999) / us,
		MaxUS:  float64(s.Max()) / us,
	}
}
