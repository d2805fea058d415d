package lru

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestPutAllocs pins the intrusive recency list: an insert into a full
// cache reuses the evicted entry's node and costs nothing, and filling a
// cache costs a block now and then — each as large as all before it, up
// to 64 entries —, a fraction of an allocation per insert.
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

	// The least of three fills: what the runtime allocates on the side now
	// and then is not on the bill.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fill := ^uint64(0)
	for range 3 {
		fresh := New(len(keys)) // the map is sized for the capacity: no growth
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, k := range keys {
			fresh.Put(k, vals)
		}
		runtime.ReadMemStats(&after)
		fill = min(fill, after.Mallocs-before.Mallocs)
	}
	// Blocks of 16, 16, 32, then 64 each fill 2,048 entries: 34.
	if limit := uint64(len(keys))/64 + 3; fill > limit {
		t.Errorf("filling a cache of %d allocates %d times, want at most %d: a block now and then", len(keys), fill, limit)
	}
}
