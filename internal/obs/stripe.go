package obs

import (
	"sync"
	"sync/atomic"
)

// Stripes is how many ways Histogram, Counter and a striped Ring split their
// writes. Writers on different Ps write different stripes, so a record makes
// no write to a cache line a record on another core also writes; readers sum
// or merge the stripes.
const Stripes = 8

// cacheLine pads stripes apart so no two share a cache line.
const cacheLine = 64

// Stripe names one of the Stripes write slots. Any value is valid; it is
// taken modulo Stripes.
type Stripe uint8

type stripeHint struct{ s Stripe }

var (
	nextStripe atomic.Uint32
	// stripeHints' per-P private slot holds that P's stripe: Get and Put on
	// one P return the same hint without an atomic write, and a P whose hint
	// was dropped (two GCs without a request) or stolen draws a new one.
	stripeHints = sync.Pool{New: func() any {
		return &stripeHint{Stripe(nextStripe.Add(1) - 1)}
	}}
)

// TakeStripe returns the calling P's stripe. It is a hint, not a lock: two
// goroutines may record into one stripe at once, which costs only sharing.
// Take it once per request and pass it to every record the request makes.
func TakeStripe() Stripe {
	h := stripeHints.Get().(*stripeHint)
	s := h.s
	stripeHints.Put(h)
	return s
}

// Counter is a striped event count: Add touches only its stripe's line and
// Load sums every stripe. The zero value is ready to use.
type Counter struct {
	_       [cacheLine]byte // keeps stripe 0 off the line of the field before
	stripes [Stripes]struct {
		n atomic.Uint64
		_ [cacheLine - 8]byte
	}
}

// Add adds n to stripe s.
func (c *Counter) Add(s Stripe, n uint64) { c.stripes[s%Stripes].n.Add(n) }

// Load returns the total over every stripe.
func (c *Counter) Load() uint64 {
	var t uint64
	for i := range c.stripes {
		t += c.stripes[i].n.Load()
	}
	return t
}
