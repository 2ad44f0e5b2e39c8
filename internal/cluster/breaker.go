package cluster

// Per-member circuit breaker for the router's outbound calls. A member that
// fails Threshold consecutive calls stops receiving traffic (open); after
// Cooldown one probe request is let through (half-open), and its outcome
// decides between closing the breaker and re-opening it for another
// cooldown. The breaker exists so a dead or drowning member costs the
// router one failed call per cooldown instead of a timeout per request —
// the difference between a latency blip and a router-wide stall.

import (
	"sync"
	"time"
)

// Breaker states, in the order they cycle.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerStateNames indexes the states for /healthz and /metrics.
var breakerStateNames = [...]string{"closed", "open", "half-open"}

// breaker is one member's circuit. The zero value is not ready; use
// newBreaker.
type breaker struct {
	threshold int           // consecutive failures that open the circuit
	cooldown  time.Duration // open time before the half-open probe
	now       func() time.Time

	mu       sync.Mutex
	state    int
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a call may be sent to the member now. In the open
// state the first Allow after the cooldown transitions to half-open and is
// granted as the probe; concurrent callers keep being refused until the
// probe's Success or Failure resolves the state.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		return false // one probe at a time; it is already in flight
	default: // open
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		return true
	}
}

// Success records a completed call: the circuit closes and the failure
// streak resets, whatever state it was in.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
}

// Failure records a failed call. A half-open probe failure re-opens
// immediately; in the closed state the circuit opens once the streak
// reaches the threshold.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = b.now()
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
		}
	}
}

// State returns the current state name ("closed", "open", "half-open").
func (b *breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerStateNames[b.state]
}

// stateValue returns the state as a metric value (0 closed, 1 open, 2
// half-open).
func (b *breaker) stateValue() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return 1
	case breakerHalfOpen:
		return 2
	default:
		return 0
	}
}
