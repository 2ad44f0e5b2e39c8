package engine

import "sync"

// Sharded LRU cache. Each shard is an independent mutex-protected LRU so
// concurrent queries touching different keys rarely contend. Capacity is
// divided across shards so the slots add up to it exactly; eviction is
// strictly least-recently-used within a shard.
//
// A key is hashed once per operation: the hash picks the shard and is the
// shard map's key, and the keys sharing a hash are chained and told apart by
// ==, so the hash only has to spread keys, never to separate them.

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	hash       uint64
	prev, next *lruEntry[K, V]
	same       *lruEntry[K, V] // the next entry whose key shares hash
}

type lruShard[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	n        int // entries held
	items    map[uint64]*lruEntry[K, V]
	// head.next is most recently used; tail.prev least recently used.
	head, tail lruEntry[K, V]

	hits, misses, evictions uint64
}

func (s *lruShard[K, V]) init(capacity int) {
	s.capacity = capacity
	s.items = make(map[uint64]*lruEntry[K, V], capacity)
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

// touch makes e the most recently used entry; one that already is stays put.
func (s *lruShard[K, V]) touch(e *lruEntry[K, V]) {
	if s.head.next != e {
		s.unlink(e)
		s.pushFront(e)
	}
}

// find returns key's entry, nil when the shard does not hold it.
func (s *lruShard[K, V]) find(key *K, h uint64) *lruEntry[K, V] {
	e := s.items[h]
	for e != nil && e.key != *key {
		e = e.same
	}
	return e
}

// remove drops e from the recency list and from its hash chain.
func (s *lruShard[K, V]) remove(e *lruEntry[K, V]) {
	s.unlink(e)
	s.n--
	if p := s.items[e.hash]; p != e {
		for p.same != e {
			p = p.same
		}
		p.same = e.same
	} else if e.same != nil {
		s.items[e.hash] = e.same
	} else {
		delete(s.items, e.hash)
	}
}

// get returns key's value and marks it most recently used; an absent key
// counts as a miss only when countMiss is set.
func (s *lruShard[K, V]) get(key *K, h uint64, countMiss bool) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.find(key, h)
	if e == nil {
		if countMiss {
			s.misses++
		}
		var zero V
		return zero, false
	}
	s.hits++
	s.touch(e)
	return e.val, true
}

func (s *lruShard[K, V]) put(key *K, h uint64, val V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.find(key, h); e != nil {
		e.val = val
		s.touch(e)
		return
	}
	if s.n >= s.capacity {
		s.remove(s.tail.prev)
		s.evictions++
	}
	e := &lruEntry[K, V]{key: *key, val: val, hash: h, same: s.items[h]}
	s.items[h] = e
	s.n++
	s.pushFront(e)
}

func (s *lruShard[K, V]) stats() (hits, misses, evictions uint64, entries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.evictions, s.n
}

// cacheShards is the result cache's shard count, clamped to its capacity.
const cacheShards = 16

// shardedLRU distributes keys over shards by a caller-supplied hash.
type shardedLRU[K comparable, V any] struct {
	shards []lruShard[K, V]
	hash   func(K) uint64
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

// lookup is get for a caller that has hashed key already (h is c.hash of
// it). With countMiss unset an absent key counts nothing: the caller will
// look it up again before computing it (Answer's inline pass), and that
// second lookup counts the miss, so every request is counted once.
func (c *shardedLRU[K, V]) lookup(key *K, h uint64, countMiss bool) (V, bool) {
	return c.shard(h).get(key, h, countMiss)
}

func (c *shardedLRU[K, V]) get(key K) (V, bool) { return c.lookup(&key, c.hash(key), true) }

func (c *shardedLRU[K, V]) put(key K, val V) {
	h := c.hash(key)
	c.shard(h).put(&key, h, val)
}

// sweep visits every cached entry under the shard locks and removes those
// for which drop reports true. It is the scoped-invalidation primitive:
// unlike a flush, it removes exactly the entries drop condemns and leaves the
// rest warm.
func (c *shardedLRU[K, V]) sweep(drop func(K, V) bool) (dropped int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.head.next; e != &s.tail; {
			next := e.next
			if drop(e.key, e.val) {
				s.remove(e)
				dropped++
			}
			e = next
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
