package engine

import "sync"

// Sharded LRU cache. Each shard is an independent mutex-protected LRU so
// concurrent queries touching different keys rarely contend. Capacity is
// divided evenly across shards; eviction is strictly least-recently-used
// within a shard.

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

type lruShard[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[K]*lruEntry[K, V]
	// head.next is most recently used; tail.prev least recently used.
	head, tail lruEntry[K, V]

	hits, misses, evictions uint64
}

func (s *lruShard[K, V]) init(capacity int) {
	s.capacity = capacity
	s.items = make(map[K]*lruEntry[K, V], capacity)
	s.head.next = &s.tail
	s.tail.prev = &s.head
}

func (s *lruShard[K, V]) unlink(e *lruEntry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (s *lruShard[K, V]) pushFront(e *lruEntry[K, V]) {
	e.next = s.head.next
	e.prev = &s.head
	e.next.prev = e
	s.head.next = e
}

// get returns key's value and marks it most recently used; an absent key
// counts as a miss only when countMiss is set.
func (s *lruShard[K, V]) get(key K, countMiss bool) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if !ok {
		if countMiss {
			s.misses++
		}
		var zero V
		return zero, false
	}
	s.hits++
	s.unlink(e)
	s.pushFront(e)
	return e.val, true
}

func (s *lruShard[K, V]) put(key K, val V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[key]; ok {
		e.val = val
		s.unlink(e)
		s.pushFront(e)
		return
	}
	if len(s.items) >= s.capacity {
		lru := s.tail.prev
		s.unlink(lru)
		delete(s.items, lru.key)
		s.evictions++
	}
	e := &lruEntry[K, V]{key: key, val: val}
	s.items[key] = e
	s.pushFront(e)
}

func (s *lruShard[K, V]) stats() (hits, misses, evictions uint64, entries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.evictions, len(s.items)
}

// shardedLRU distributes keys over shards by a caller-supplied hash.
type shardedLRU[K comparable, V any] struct {
	shards []lruShard[K, V]
	hash   func(K) uint64
}

// newShardedLRU builds a cache holding up to capacity entries in total,
// spread over shards (both floored to 1).
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
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i].init(per)
	}
	return c
}

func (c *shardedLRU[K, V]) shard(key K) *lruShard[K, V] {
	return &c.shards[c.hash(key)%uint64(len(c.shards))]
}

func (c *shardedLRU[K, V]) get(key K) (V, bool) { return c.shard(key).get(key, true) }
func (c *shardedLRU[K, V]) put(key K, val V)    { c.shard(key).put(key, val) }

// hit is get for a caller that will look key up again before computing it
// (Batch's inline pass): a hit counts and refreshes as in get, an absent key
// leaves the miss to that second lookup, so every request is counted once.
func (c *shardedLRU[K, V]) hit(key K) (V, bool) { return c.shard(key).get(key, false) }

// sweep visits every cached entry under the shard locks and removes those
// for which drop reports true. It is the scoped-invalidation primitive:
// unlike a flush, it removes exactly the entries drop condemns and leaves the
// rest warm.
func (c *shardedLRU[K, V]) sweep(drop func(K, V) bool) (dropped int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, e := range s.items {
			if drop(key, e.val) {
				s.unlink(e)
				delete(s.items, key)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

func (c *shardedLRU[K, V]) stats() (hits, misses, evictions uint64, entries int) {
	for i := range c.shards {
		h, m, e, n := c.shards[i].stats()
		hits += h
		misses += m
		evictions += e
		entries += n
	}
	return hits, misses, evictions, entries
}

// fnvMix folds x into an FNV-1a style hash starting from h (pass fnvOffset).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}
