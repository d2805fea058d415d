package ixclient

import (
	"fmt"
	"testing"
)

// TestLookupAllocs pins the bound view's allocation budget: a cache hit
// allocates nothing, and a miss on a warm, full cache — which evicts and
// inserts — allocates at most what the insert needs, over an accessor
// that itself allocates nothing.
func TestLookupAllocs(t *testing.T) {
	f := newFake("kv")
	const capacity = 64
	keys := make([]string, 4*capacity)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
		f.data[keys[i]] = []string{"v"}
	}
	c := New(f, Options{Op: "op", CacheMode: CacheReal, CacheCapacity: capacity})
	b := c.Bind(testCtx(0))
	b.CountKey("a")
	b.CountValues(b.Lookup("a"))

	hit := testing.AllocsPerRun(1000, func() {
		b.CountKey("a")
		b.CountValues(b.Lookup("a"))
	})
	if hit != 0 {
		t.Errorf("cache hit through the bound view allocates %.1f per lookup, want 0", hit)
	}

	// Cycle through four times the capacity: every lookup misses, evicts
	// the least recently used entry and inserts.
	for _, k := range keys {
		b.Lookup(k)
	}
	i := 0
	miss := testing.AllocsPerRun(1000, func() {
		b.Lookup(keys[i%len(keys)])
		i++
	})
	t.Logf("allocations per lookup: hit %.1f, miss with eviction %.1f", hit, miss)
	if miss > 2 {
		t.Errorf("miss on a warm full cache allocates %.1f per lookup, want <= 2", miss)
	}

	direct := c.Bind(testCtx(0))
	direct.Access("a")
	if n := testing.AllocsPerRun(1000, func() { direct.Access("a") }); n != 0 {
		t.Errorf("uncached access through the bound view allocates %.1f per lookup, want 0", n)
	}

	// A shadow hit forwards the key to the index and inserts nothing; a
	// pooled hit is served by the pool and replayed on the job's shadow.
	shadow := New(f, Options{Op: "op", CacheMode: CacheShadow}).Bind(testCtx(0))
	pooled := New(f, Options{Op: "op", CacheMode: CacheReal, SharedCache: NewPool(0)}).Bind(testCtx(0))
	for i, v := range []*Bound{shadow, pooled} {
		v.Lookup("a")
		if n := testing.AllocsPerRun(1000, func() { v.Lookup("a") }); n != 0 {
			t.Errorf("%s hit through the bound view allocates %.1f per lookup, want 0", [...]string{"shadow", "pooled"}[i], n)
		}
	}
}

// TestSnapshotNodeAllocs pins what an attempt guard costs: guarding a
// node's two caches and rolling them back allocates as often at 1,024
// entries per cache as at 16. The guard copies the caches, so it costs a
// constant number of allocations per cache plus an O(entries) copy — paid
// only around backups and injected faults.
func TestSnapshotNodeAllocs(t *testing.T) {
	const caches = 2
	guard := func(entries int) float64 {
		p := NewPool(0)
		for _, ix := range []string{"kx", "ky"} {
			cc := p.cacheFor(ix, 0)
			for i := range entries {
				cc.Put(fmt.Sprintf("k%04d", i), nil)
			}
		}
		cc := p.cacheFor("kx", 0)
		return testing.AllocsPerRun(20, func() {
			rollback := p.SnapshotNode(0)
			cc.Put("hot", nil)
			rollback()
		})
	}
	small, large := guard(16), guard(1024)
	t.Logf("guard and rollback of %d caches: %.0f allocations at 16 entries each, %.0f at 1,024", caches, small, large)
	if small-large > 2 || large-small > 2 {
		t.Errorf("guard and rollback allocate %.0f times at 16 entries per cache and %.0f at 1,024, want within 2", small, large)
	}
	if limit := 12.0 * caches; max(small, large) > limit {
		t.Errorf("guard and rollback of %d caches allocate %.0f times, want at most %.0f", caches, max(small, large), limit)
	}
}
