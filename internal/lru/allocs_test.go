package lru

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestPutAllocs pins the intrusive recency list: an insert into a full
// cache reuses the evicted entry's node and costs nothing, and filling a
// cache costs a block now and then — each as large as all before it —
// and the index grown for it, a fraction of an allocation per insert.
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
		fresh := New(len(keys))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, k := range keys {
			fresh.Put(k, vals)
		}
		runtime.ReadMemStats(&after)
		fill = min(fill, after.Mallocs-before.Mallocs)
	}
	// Blocks of 16, 16, 32, …, 1,024 fill 2,048 entries, each with the
	// index grown for it: 16.
	t.Logf("filling a cache of %d allocates %d times", len(keys), fill)
	if limit := uint64(len(keys))/64 + 3; fill > limit {
		t.Errorf("filling a cache of %d allocates %d times, want at most %d: a block now and then", len(keys), fill, limit)
	}
}

// TestNewAllocsNothingForCapacity pins that a cache is sized by what it
// holds: New makes the cache alone, the same bytes at capacity 1 and at
// the paper's 1,024, and a first Put the same bytes at any capacity above
// its first block's 16 entries.
func TestNewAllocsNothingForCapacity(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(fn func()) (allocs, bytes uint64) {
		allocs, bytes = ^uint64(0), ^uint64(0)
		for range 3 { // the least of three: the runtime's own allocations now and then are not on the bill
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			allocs, bytes = min(allocs, after.Mallocs-before.Mallocs), min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return allocs, bytes
	}
	var sink *Cache
	oneAllocs, oneBytes := measure(func() { sink = New(1) })
	paperAllocs, paperBytes := measure(func() { sink = New(1024) })
	if oneAllocs != 1 || paperAllocs != 1 || oneBytes != paperBytes {
		t.Errorf("New(1) allocates %d times, %d B; New(1024) %d times, %d B; want the cache alone for both", oneAllocs, oneBytes, paperAllocs, paperBytes)
	}
	vals := []string{"v"}
	small := func(capacity int) func() {
		return func() { sink = New(capacity); sink.Put("k", vals) }
	}
	_, bytes17 := measure(small(17))
	_, bytes1024 := measure(small(1024))
	if bytes17 != bytes1024 {
		t.Errorf("a cache holding one entry allocates %d B at capacity 17 and %d B at 1,024; want the same", bytes17, bytes1024)
	}
	_ = sink
}
