package main

import "math/bits"

// The harness keeps its own latency recorder and does not import
// internal/obs, so a change to obs cannot move the ruler.

const (
	// recSubBits sub-buckets per power of two: a bucket is at most 1/128 of
	// its lower bound wide, so an interpolated quantile is within 0.8%.
	recSubBits  = 7
	recSubCount = 1 << recSubBits
	recBuckets  = (64 - recSubBits) * recSubCount
)

// recorder is a fixed-size log-linear histogram of nanosecond durations.
// It is not safe for concurrent use: each client goroutine owns one and the
// run merges them when the clients have stopped.
type recorder struct {
	counts []uint64
	n      uint64
	sum    int64
	max    int64
}

func newRecorder() *recorder { return &recorder{counts: make([]uint64, recBuckets)} }

// bucketOf maps a duration to its bucket: values below recSubCount are
// exact, larger ones keep their top recSubBits+1 bits.
func bucketOf(ns int64) int {
	if ns < recSubCount {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 1 - recSubBits
	return (shift+1)*recSubCount + int(uint64(ns)>>shift) - recSubCount
}

// bucketBounds returns a bucket's lower bound and width.
func bucketBounds(idx int) (low, width float64) {
	group, sub := idx/recSubCount, idx%recSubCount
	if group == 0 {
		return float64(sub), 1
	}
	shift := group - 1
	return float64(uint64(recSubCount+sub) << shift), float64(uint64(1) << shift)
}

func (r *recorder) add(ns int64) {
	r.counts[bucketOf(ns)]++
	r.n++
	r.sum += ns
	if ns > r.max {
		r.max = ns
	}
}

func (r *recorder) merge(o *recorder) {
	for i, c := range o.counts {
		r.counts[i] += c
	}
	r.n += o.n
	r.sum += o.sum
	if o.max > r.max {
		r.max = o.max
	}
}

func (r *recorder) count() uint64 { return r.n }

// mean returns the exact mean in nanoseconds (0 when empty).
func (r *recorder) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return float64(r.sum) / float64(r.n)
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds the rank so that the value is continuous,
// not a bucket edge (0 when empty).
func (r *recorder) quantile(q float64) float64 {
	if r.n == 0 {
		return 0
	}
	rank := q * float64(r.n-1)
	var before uint64
	for idx, c := range r.counts {
		if c == 0 {
			continue
		}
		if rank < float64(before+c) {
			low, width := bucketBounds(idx)
			return low + width*(rank-float64(before)+0.5)/float64(c)
		}
		before += c
	}
	return float64(r.max)
}

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }
