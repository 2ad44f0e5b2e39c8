package engine

import "testing"

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
