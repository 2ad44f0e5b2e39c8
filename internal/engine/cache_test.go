package engine

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func identHash(k int) uint64 { return uint64(k) }

func TestLRUEvictionOrder(t *testing.T) {
	c := newShardedLRU[int, string](2, 1, identHash)
	c.put(1, "a")
	c.put(2, "b")
	if _, ok := c.get(1); !ok { // 1 becomes most recently used
		t.Fatal("expected hit on 1")
	}
	c.put(3, "c") // evicts 2, the LRU
	if _, ok := c.get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	for _, k := range []int{1, 3} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%d should be cached", k)
		}
	}
	_, _, ev, n := c.stats()
	if ev != 1 || n != 2 {
		t.Fatalf("evictions=%d entries=%d, want 1 and 2", ev, n)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := newShardedLRU[int, string](2, 1, identHash)
	c.put(1, "a")
	c.put(1, "b")
	if v, ok := c.get(1); !ok || v != "b" {
		t.Fatalf("got %q,%v want b,true", v, ok)
	}
	if _, _, ev, n := c.stats(); ev != 0 || n != 1 {
		t.Fatalf("update must not evict: evictions=%d entries=%d", ev, n)
	}
}

func TestLRUSharding(t *testing.T) {
	c := newShardedLRU[int, int](64, 8, identHash)
	for i := 0; i < 64; i++ {
		c.put(i, i*i)
	}
	hit := 0
	for i := 0; i < 64; i++ {
		if v, ok := c.get(i); ok {
			if v != i*i {
				t.Fatalf("key %d: got %d", i, v)
			}
			hit++
		}
	}
	// Even splitting guarantees every shard holds its full quota.
	if hit != 64 {
		t.Fatalf("only %d/64 keys cached", hit)
	}
}

// The shards' slots add up to the capacity exactly: 100 over 16 shards is
// four shards of 7 and twelve of 6, not 16 of 7.
func TestLRUHoldsCapacity(t *testing.T) {
	c := newShardedLRU[int, int](100, 16, identHash)
	for i := 0; i < 1000; i++ {
		c.put(i, i)
	}
	if _, _, _, n := c.stats(); n != 100 {
		t.Fatalf("entries=%d, want 100", n)
	}
}

func TestLRUDegenerateSizes(t *testing.T) {
	c := newShardedLRU[int, int](0, 0, identHash) // floors to 1×1
	c.put(1, 10)
	c.put(2, 20)
	if _, ok := c.get(1); ok {
		t.Fatal("capacity-1 cache kept two entries")
	}
	if v, ok := c.get(2); !ok || v != 20 {
		t.Fatal("latest entry lost")
	}
}

// TestClockEvictionOrder scripts puts and hits on a one-shard CLOCK of
// three and checks the exact victims in order: a hit sets an entry's
// reference bit, the hand clears set bits as it passes and evicts the first
// entry whose bit is clear, and a new entry lands just behind the hand.
// Strict LRU would evict 3 at the second put; its bit spares it, twice.
// Keys sharing one hash (here all of them, in one shard) are told apart by
// ==.
func TestClockEvictionOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		hash func(int) uint64
	}{{"distinct hashes", identHash}, {"one shared hash", func(int) uint64 { return 7 }}} {
		c := newShardedLRU[int, int](3, 1, tc.hash)
		held := func() (keys []int) { // counts nothing, sets no bit
			for _, k := range []int{1, 2, 3, 100, 101, 102, 103} {
				if c.shards[0].find(&k, tc.hash(k)) != nil {
					keys = append(keys, k)
				}
			}
			return keys
		}
		hit := func(k int) {
			if v, ok := c.get(k); !ok || v != 10*k {
				t.Fatalf("%s: get(%d) = %d,%v", tc.name, k, v, ok)
			}
		}
		for k := 1; k <= 3; k++ {
			c.put(k, 10*k)
		}
		// Hand order from the hand: 1 2 3, no bit set.
		for range 3 {
			hit(3) // sets 3's bit once
		}
		hit(1)
		if _, ok := c.get(9); ok {
			t.Fatalf("%s: get(9) hit", tc.name)
		}
		for _, step := range []struct {
			hitFirst int // key hit before the put, 0 for none
			put      int
			victim   int
			want     []int
		}{
			{0, 100, 2, []int{1, 3, 100}},   // clears 1, evicts 2
			{0, 101, 1, []int{3, 100, 101}}, // clears 3, evicts 1
			{3, 102, 100, []int{3, 101, 102}},
			{0, 103, 101, []int{3, 102, 103}}, // clears 3 again
		} {
			if step.hitFirst != 0 {
				hit(step.hitFirst)
			}
			c.put(step.put, 10*step.put)
			if got := held(); !slices.Equal(got, step.want) {
				t.Fatalf("%s: after put %d held %v, want %v (victim %d)", tc.name, step.put, got, step.want, step.victim)
			}
		}
		hits, misses, evictions, n := c.stats()
		if hits != 5 || misses != 1 || evictions != 4 || n != 3 {
			t.Fatalf("%s: hits=%d misses=%d evictions=%d entries=%d, want 5 1 4 3", tc.name, hits, misses, evictions, n)
		}
	}
}

// TestHitTakesNoShardLock holds each shard's mutex, as a put or a sweep
// would, and requires a hit and a miss on that shard to return anyway.
func TestHitTakesNoShardLock(t *testing.T) {
	c := newShardedLRU[int, int](16, 4, identHash)
	for k := 0; k < 16; k++ {
		c.put(k, k)
	}
	for i := range c.shards {
		func() {
			c.shards[i].mu.Lock()
			defer c.shards[i].mu.Unlock()
			done := make(chan bool)
			go func() {
				_, hit := c.get(i)
				_, miss := c.get(i + 16)
				done <- hit && !miss
			}()
			select {
			case ok := <-done:
				if !ok {
					t.Fatalf("shard %d: want a hit on %d and a miss on %d", i, i, i+16)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("shard %d: a lookup waited on the shard mutex", i)
			}
		}()
	}
}

// TestClockConcurrent races hits against puts and sweeps that republish the
// shards' tables: every hit must read the value its key was put with, every
// get is counted once, and afterwards each shard's clock and table hold
// exactly the same entries. Run under -race it checks that a hit reads only
// what a publish has finished writing.
func TestClockConcurrent(t *testing.T) {
	c := newShardedLRU[int, int](64, 4, identHash)
	const workers, perWorker = 4, 20_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				k := rng.Intn(128)
				switch v, ok := c.get(k); {
				case ok && v != k*k:
					t.Errorf("get(%d) = %d", k, v)
					return
				case !ok:
					c.put(k, k*k)
				}
				if w == 0 && i%500 == 0 {
					c.sweep(func(k, _ int) bool { return k%7 == i%7 })
				}
			}
		}()
	}
	wg.Wait()
	hits, misses, _, n := c.stats()
	if hits+misses != workers*perWorker || n > 64 {
		t.Fatalf("hits %d + misses %d != %d gets, or %d entries > 64", hits, misses, workers*perWorker, n)
	}
	for i := range c.shards {
		s := &c.shards[i]
		held := 0
		for _, e := range *s.table.Load() {
			if e != nil {
				held++
			}
		}
		if held != len(s.clock) {
			t.Fatalf("shard %d: table holds %d entries, clock %d", i, held, len(s.clock))
		}
		for _, e := range s.clock {
			if s.find(&e.key, e.hash) != e {
				t.Fatalf("shard %d: clock entry %d is not in the table", i, e.key)
			}
		}
	}
}
