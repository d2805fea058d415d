package lru

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestGetMissThenHit(t *testing.T) {
	c := New(4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put("a", []string{"1"})
	v, ok := c.Get("a")
	if !ok || len(v) != 1 || v[0] != "1" {
		t.Fatalf("want hit with [1], got %v %v", v, ok)
	}
}

func TestEvictsLRU(t *testing.T) {
	c := New(2)
	c.Put("a", nil)
	c.Put("b", nil)
	c.Get("a") // promote a; b is now LRU
	c.Put("c", nil)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := New(2)
	c.Put("a", []string{"old"})
	c.Put("a", []string{"new"})
	if c.Len() != 1 {
		t.Fatalf("re-put should not grow cache, len=%d", c.Len())
	}
	v, _ := c.Get("a")
	if v[0] != "new" {
		t.Fatalf("want refreshed value, got %v", v)
	}
}

func TestLenNeverExceedsCapacity(t *testing.T) {
	c := New(8)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), nil)
		if c.Len() > 8 {
			t.Fatalf("len %d exceeds capacity 8", c.Len())
		}
	}
}

func TestReset(t *testing.T) {
	c := New(4)
	c.Put("a", nil)
	c.Get("a") // hit
	c.Get("b") // miss
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", h, m)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("reset should empty the cache")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatal("reset should clear stats")
	}
}

func TestCapacityClamped(t *testing.T) {
	c := New(0)
	c.Put("a", nil)
	if c.capacity != 1 || c.Len() != 1 {
		t.Fatalf("capacity clamp failed: cap=%d len=%d", c.capacity, c.Len())
	}
}

// Property: after any Put sequence, the most recently put key is always
// retrievable and Len <= Capacity.
func TestRecentKeyAlwaysPresent(t *testing.T) {
	f := func(keys []string, capRaw uint8) bool {
		if len(keys) == 0 {
			return true
		}
		c := New(int(capRaw%16) + 1)
		for _, k := range keys {
			c.Put(k, []string{k})
			if _, ok := c.Get(k); !ok {
				return false
			}
			if c.Len() > c.capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
