package obs

import (
	"cmp"
	"slices"
	"sync"
)

// Ring is a bounded, concurrency-safe ring buffer holding the most recent N
// values — the storage behind the request-trace endpoints. Writes overwrite
// the oldest entry once full; Last returns newest-first copies. The fixed
// footprint means tracing can stay always-on: the ring never grows and never
// blocks writers on readers for longer than a copy.
//
// A striped ring (NewStripedRing) keeps one full-capacity sub-ring per
// Stripe, so writers on different Ps lock and write different lines, and
// orders entries by their own end time rather than by when they were added.
// Each sub-ring keeps its newest N, so the N newest overall are always held:
// Last is exact as long as an entry's end time is taken just before it is
// added (a span, say).
type Ring[T any] struct {
	size int
	end  func(*T) int64 // nil for a plain ring: newest is last added
	subs []subRing[T]
}

type subRing[T any] struct {
	_    [cacheLine]byte // off the line of the allocation before
	mu   sync.Mutex
	buf  []T
	next int    // next write position
	n    int    // number of valid entries (≤ len(buf))
	seq  uint64 // total writes ever, for loss-free "did I miss any" checks
	_    [cacheLine]byte
}

// NewRing returns a ring holding the most recent size entries (size < 1 is
// clamped to 1), newest being the last added.
func NewRing[T any](size int) *Ring[T] { return newRing[T](size, nil, 1) }

// NewStripedRing returns a ring holding the size entries with the latest
// end, one sub-ring per Stripe.
func NewStripedRing[T any](size int, end func(*T) int64) *Ring[T] {
	return newRing(size, end, Stripes)
}

func newRing[T any](size int, end func(*T) int64, subs int) *Ring[T] {
	if size < 1 {
		size = 1
	}
	r := &Ring[T]{size: size, end: end, subs: make([]subRing[T], subs)}
	for i := range r.subs {
		r.subs[i].buf = make([]T, size)
	}
	return r
}

// Add appends v, overwriting the oldest entry of its sub-ring when full.
func (r *Ring[T]) Add(v T) { r.AddAt(TakeStripe(), v) }

// AddAt is Add into stripe s's sub-ring, for a caller that took its stripe
// once for several records.
func (r *Ring[T]) AddAt(s Stripe, v T) { r.subs[int(s)%len(r.subs)].add(v) }

func (s *subRing[T]) add(v T) {
	s.mu.Lock()
	s.buf[s.next] = v
	s.next = (s.next + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.seq++
	s.mu.Unlock()
}

// appendNewest appends the sub-ring's entries to out, newest first.
func (s *subRing[T]) appendNewest(out []T) []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.n; i++ {
		// next-1 is the newest entry; walk backwards.
		out = append(out, s.buf[(s.next-1-i+2*len(s.buf))%len(s.buf)])
	}
	return out
}

// Last returns up to n entries, newest first. n < 1 or n > stored returns
// everything stored. The result is a copy; callers may retain it.
func (r *Ring[T]) Last(n int) []T {
	all := make([]T, 0, r.size)
	for i := range r.subs {
		all = r.subs[i].appendNewest(all)
	}
	if r.end != nil {
		slices.SortStableFunc(all, func(a, b T) int { return cmp.Compare(r.end(&b), r.end(&a)) })
	}
	if n < 1 || n > r.size {
		n = r.size
	}
	if n < len(all) {
		return slices.Clone(all[:n]) // pin none of the older entries
	}
	return all
}

// Len returns the number of stored entries.
func (r *Ring[T]) Len() int {
	n := 0
	for i := range r.subs {
		s := &r.subs[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return min(n, r.size)
}

// Seq returns the total number of Adds ever, including overwritten ones.
func (r *Ring[T]) Seq() uint64 {
	var seq uint64
	for i := range r.subs {
		s := &r.subs[i]
		s.mu.Lock()
		seq += s.seq
		s.mu.Unlock()
	}
	return seq
}
