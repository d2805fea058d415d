package lru

import (
	"fmt"
	"testing"
)

// TestPutAllocs pins the intrusive recency list: an insert costs one entry
// (map growth aside), and an insert into a full cache reuses the evicted
// entry's node and costs nothing.
func TestPutAllocs(t *testing.T) {
	const capacity = 256
	keys := make([]string, 8*capacity)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
	}
	vals := []string{"v"}

	c := New(capacity)
	for _, k := range keys {
		c.Put(k, vals)
	}
	i := 0
	evict := testing.AllocsPerRun(4*capacity, func() {
		c.Put(keys[i%len(keys)], vals)
		i++
	})
	if evict != 0 {
		t.Errorf("evict-and-insert allocates %.2f per Put, want 0", evict)
	}
	if c.Len() != capacity {
		t.Fatalf("len = %d, want %d", c.Len(), capacity)
	}

	fresh := New(len(keys)) // the map is sized for the capacity: no growth
	i = 0
	insert := testing.AllocsPerRun(len(keys)-1, func() {
		fresh.Put(keys[i], vals)
		i++
	})
	if insert > 1 {
		t.Errorf("insert allocates %.2f per Put, want <= 1", insert)
	}
}
