package engine

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Sharded CLOCK cache whose hits take no lock and write nothing a hit on
// another core writes. Each shard publishes an immutable hash table behind
// an atomic pointer; a hit reads it, records recency in the entry's
// reference bit — storing the bit only when it is clear, so a hot entry is
// written once per pass of the hand, not once per hit — and counts itself on
// the caller's obs.Stripe. Puts and sweeps take the shard's mutex, copy its
// table (twice capacity/shards pointers at most), change the copy and
// publish it.
//
// Eviction is CLOCK (second chance), an approximation of least-recently-used:
// the shard's entries sit on a circle in insertion order; the hand clears
// the set bits it passes and evicts the first entry whose bit is clear. A new
// entry takes its slot with the bit clear, just behind the hand, so it is the
// last the hand reaches. Capacity is divided across shards so the slots add
// up to it exactly.
//
// A key is hashed once per operation: the hash picks the shard and the
// entry's home slot in the shard's table, and the keys sharing a hash are
// told apart by ==, so the hash only has to spread keys, never to separate
// them.

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	hash uint64
	ref  atomic.Bool // set by a hit, cleared by the passing hand
}

// lruTable is an open-addressing table of entries: linear probing from a
// home slot, a power-of-two length, never more than half full, so every
// probe ends at a nil slot. A published table is never written again; a
// put or a sweep changes a copy, a pointer array of 4 KB per 256 entries.
type lruTable[K comparable, V any] []*lruEntry[K, V]

// home is h's first probe slot. The multiply spreads hashes whose low bits
// all agree, as those of one shard do.
func (t lruTable[K, V]) home(h uint64) int {
	return int((h * 0x9E3779B97F4A7C15) >> (64 - bits.Len(uint(len(t)-1))))
}

// find returns key's entry, nil when the table holds none.
func (t lruTable[K, V]) find(key *K, h uint64) *lruEntry[K, V] {
	mask := len(t) - 1
	for i := t.home(h); ; i = (i + 1) & mask {
		if e := t[i]; e == nil || e.hash == h && e.key == *key {
			return e
		}
	}
}

func (t lruTable[K, V]) insert(e *lruEntry[K, V]) {
	mask := len(t) - 1
	i := t.home(e.hash)
	for t[i] != nil {
		i = (i + 1) & mask
	}
	t[i] = e
}

// remove deletes e and shifts back each later entry of its run whose probe
// passes the hole, so no probe stops early at it.
func (t lruTable[K, V]) remove(e *lruEntry[K, V]) {
	mask := len(t) - 1
	i := t.home(e.hash)
	for t[i] != e {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t[j] != nil; j = (j + 1) & mask {
		if k := t.home(t[j].hash); (j-k)&mask >= (j-i)&mask { // i lies in [k, j)
			t[i], i = t[j], j
		}
	}
	t[i] = nil
}

type lruShard[K comparable, V any] struct {
	table atomic.Pointer[lruTable[K, V]] // what hits read; len ≥ 2·capacity
	// mu serializes puts and sweeps; hits never take it.
	mu       sync.Mutex
	capacity int
	clock    []*lruEntry[K, V] // held entries, hand order; len ≤ capacity
	hand     int

	evictions uint64
	_         [64]byte // keeps this shard's mutex off the next one's table line
}

func (s *lruShard[K, V]) init(capacity int) {
	s.capacity = capacity
	t := make(lruTable[K, V], 2<<bits.Len(uint(capacity-1)))
	s.table.Store(&t)
	s.clock = make([]*lruEntry[K, V], 0, capacity)
}

// find returns key's entry in the published table, nil when it holds none.
func (s *lruShard[K, V]) find(key *K, h uint64) *lruEntry[K, V] {
	return s.table.Load().find(key, h)
}

func (s *lruShard[K, V]) put(key *K, h uint64, val V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := slices.Clone(*s.table.Load())
	e := &lruEntry[K, V]{key: *key, val: val, hash: h}
	switch old := s.find(key, h); {
	case old != nil:
		// A replaced value counts as a use, as a hit would.
		e.ref.Store(true)
		t.remove(old)
		s.clock[slices.Index(s.clock, old)] = e
	case len(s.clock) < s.capacity:
		s.clock = slices.Insert(s.clock, s.hand, e)
		s.hand = (s.hand + 1) % len(s.clock)
	default:
		// Hits keep setting bits while the hand moves; after two turns
		// the hand takes whatever it points at.
		for turn := 0; s.clock[s.hand].ref.Load() && turn < 2*len(s.clock); turn++ {
			s.clock[s.hand].ref.Store(false)
			s.hand = (s.hand + 1) % len(s.clock)
		}
		t.remove(s.clock[s.hand])
		s.evictions++
		s.clock[s.hand] = e
		s.hand = (s.hand + 1) % len(s.clock)
	}
	t.insert(e)
	s.table.Store(&t)
}

// cacheShards is the result cache's shard count, clamped to its capacity.
const cacheShards = 16

// shardedLRU distributes keys over CLOCK shards by a caller-supplied hash.
type shardedLRU[K comparable, V any] struct {
	shards       []lruShard[K, V]
	hash         func(K) uint64
	hits, misses obs.Counter
}

// newShardedLRU builds a cache holding up to capacity entries in total,
// spread over shards (both floored to 1, shards clamped to capacity): each
// shard holds capacity/shards slots, and the first capacity%shards one more.
func newShardedLRU[K comparable, V any](capacity, shards int, hash func(K) uint64) *shardedLRU[K, V] {
	if shards < 1 {
		shards = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	if shards > capacity {
		shards = capacity
	}
	c := &shardedLRU[K, V]{shards: make([]lruShard[K, V], shards), hash: hash}
	for i := range c.shards {
		per := capacity / shards
		if i < capacity%shards {
			per++
		}
		c.shards[i].init(per)
	}
	return c
}

func (c *shardedLRU[K, V]) shard(h uint64) *lruShard[K, V] {
	return &c.shards[h%uint64(len(c.shards))]
}

// lookup returns key's value for a caller that has hashed key already (h
// is c.hash of it) and counts the hit or miss on stripe st. With countMiss
// unset an absent key counts nothing: the caller will look it up again
// before computing it (Answer's inline pass), and that second lookup counts
// the miss, so every request is counted once.
func (c *shardedLRU[K, V]) lookup(key *K, h uint64, countMiss bool, st obs.Stripe) (V, bool) {
	e := c.shard(h).find(key, h)
	if e == nil {
		if countMiss {
			c.misses.Add(st, 1)
		}
		var zero V
		return zero, false
	}
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	c.hits.Add(st, 1)
	return e.val, true
}

func (c *shardedLRU[K, V]) get(key K) (V, bool) {
	return c.lookup(&key, c.hash(key), true, obs.TakeStripe())
}

func (c *shardedLRU[K, V]) put(key K, val V) {
	h := c.hash(key)
	c.shard(h).put(&key, h, val)
}

// sweep visits every cached entry under the shard locks and removes those
// for which drop reports true. It is the scoped-invalidation primitive:
// unlike a flush, it removes exactly the entries drop condemns and leaves the
// rest warm, in their clock order.
func (c *shardedLRU[K, V]) sweep(drop func(K, V) bool) (dropped int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		// Turn the circle so the hand is at 0, then compact it in place.
		slices.Reverse(s.clock[:s.hand])
		slices.Reverse(s.clock[s.hand:])
		slices.Reverse(s.clock)
		s.hand = 0
		var t lruTable[K, V]
		kept := s.clock[:0]
		for _, e := range s.clock {
			if !drop(e.key, e.val) {
				kept = append(kept, e)
				continue
			}
			if t == nil {
				t = slices.Clone(*s.table.Load())
			}
			t.remove(e)
			dropped++
		}
		if t != nil {
			clear(s.clock[len(kept):])
			s.clock = kept
			s.table.Store(&t)
		}
		s.mu.Unlock()
	}
	return dropped
}

func (c *shardedLRU[K, V]) stats() (hits, misses, evictions uint64, entries int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		evictions += s.evictions
		entries += len(s.clock)
		s.mu.Unlock()
	}
	return c.hits.Load(), c.misses.Load(), evictions, entries
}
