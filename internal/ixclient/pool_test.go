package ixclient

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// newPooledPair returns two clients (standing in for two jobs) attached
// to one pool over independent accessor instances of the same index.
func newPooledPair(p *Pool) (a, b *Client, fa, fb *fakeIndex) {
	fa, fb = newFake("kv"), newFake("kv")
	a = New(fa, Options{Op: "op", CacheMode: CacheReal, SharedCache: p})
	b = New(fb, Options{Op: "op", CacheMode: CacheReal, SharedCache: p})
	return a, b, fa, fb
}

func TestPoolSharesHitsAcrossClients(t *testing.T) {
	p := NewPool(0)
	a, b, fa, fb := newPooledPair(p)

	// Job A misses and warms the pool.
	if got := a.Lookup(testCtx(0), "a"); got[0] != "va" {
		t.Fatalf("job A lookup = %v", got)
	}
	if fa.calls != 1 {
		t.Fatalf("job A index calls = %d, want 1", fa.calls)
	}
	// Job B on the same node hits the pooled cache: its index is never
	// consulted, but its own shadow still records a (cold) miss so the
	// R it reports matches an isolated run.
	ctxB := testCtx(0)
	if got := b.Lookup(ctxB, "a"); got[0] != "va" {
		t.Fatalf("job B lookup = %v", got)
	}
	if fb.calls != 0 {
		t.Fatalf("job B index calls = %d, want 0 (pool hit)", fb.calls)
	}
	if m := ctxB.Counter(CtrMisses("op", "kv")); m != 1 {
		t.Fatalf("job B shadow misses = %d, want 1 (per-job R stays isolated)", m)
	}
	if hits, misses := p.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("pool stats = %d/%d, want 1 hit, 1 miss", hits, misses)
	}
	// A different node starts cold even with the pool warm elsewhere.
	if got := b.Lookup(testCtx(1), "a"); got[0] != "va" {
		t.Fatalf("job B node-1 lookup = %v", got)
	}
	if fb.calls != 1 {
		t.Fatalf("pooled caches must stay per-node; calls = %d, want 1", fb.calls)
	}
}

func TestPoolShadowRMatchesIsolated(t *testing.T) {
	// The same key stream through (a) an isolated CacheReal client and
	// (b) a pooled client whose pool another job pre-warmed must report
	// identical probe/miss counters: the pool accelerates serving, the
	// shadow keeps the measured R per-job.
	stream := []string{"a", "b", "a", "c", "b", "a", "c", "c", "b"}

	iso := New(newFake("kv"), Options{Op: "op", CacheMode: CacheReal})
	isoCtx := testCtx(0)
	for _, k := range stream {
		iso.Lookup(isoCtx, k)
	}

	p := NewPool(0)
	warm, pooled, _, _ := newPooledPair(p)
	for _, k := range []string{"a", "b", "c"} {
		warm.Lookup(testCtx(0), k)
	}
	pooledCtx := testCtx(0)
	for _, k := range stream {
		pooled.Lookup(pooledCtx, k)
	}

	probes, misses := CtrProbes("op", "kv"), CtrMisses("op", "kv")
	if isoCtx.Counter(probes) != pooledCtx.Counter(probes) {
		t.Fatalf("probes diverge: isolated %d, pooled %d", isoCtx.Counter(probes), pooledCtx.Counter(probes))
	}
	if isoCtx.Counter(misses) != pooledCtx.Counter(misses) {
		t.Fatalf("misses diverge: isolated %d, pooled %d — per-job R must match the isolated value",
			isoCtx.Counter(misses), pooledCtx.Counter(misses))
	}
	// And the pool did accelerate: the pooled job's index saw no calls
	// beyond what the shadow model predicts for a warm cache.
	if hits, _ := p.Stats(); hits == 0 {
		t.Fatal("pooled run should have hit the pre-warmed pool")
	}
}

func TestPoolSnapshotRollback(t *testing.T) {
	p := NewPool(0)
	a, b, _, _ := newPooledPair(p)
	a.Lookup(testCtx(0), "a")
	b.Lookup(testCtx(0), "b")
	wantHits, wantMisses := p.Stats()

	rollback := p.SnapshotNode(0)
	a.Lookup(testCtx(0), "c")
	b.Lookup(testCtx(0), "c")
	rollback()

	if hits, misses := p.Stats(); hits != wantHits || misses != wantMisses {
		t.Fatalf("pool stats after rollback = %d/%d, want %d/%d", hits, misses, wantHits, wantMisses)
	}
	cc := p.cacheFor("kv", 0)
	if _, ok := cc.Get("c"); ok {
		t.Fatal("rolled-back entry survived in the pool")
	}
	if _, ok := cc.Get("a"); !ok {
		t.Fatal("pre-snapshot entry lost by rollback")
	}

	// Random Gets and Puts inside the guard, on two indices of the guarded
	// node and enough keys to evict: the rollback leaves the pool's Dump —
	// entries, recency order, values, hit/miss counts — as it was, node
	// 1's caches included. Once through a client's private pool and once
	// through a shared one.
	for _, capacity := range []int{1, 3, 8, 64} {
		for seed := int64(0); seed < 20; seed++ {
			client := New(newFake("kv"), Options{Op: "op", CacheMode: CacheReal, CacheCapacity: capacity})
			shared := NewPool(capacity)
			for _, g := range []struct {
				name  string
				pool  *Pool
				guard func(sim.NodeID) func()
			}{
				{"private", client.real, client.SnapshotNode},
				{"shared", shared, shared.SnapshotNode},
			} {
				rng := rand.New(rand.NewSource(seed))
				stream := func(node sim.NodeID, n int) {
					for i := range n {
						cc := g.pool.cacheFor([]string{"kx", "ky"}[rng.Intn(2)], node)
						key := fmt.Sprintf("k%d", rng.Intn(2*capacity+2))
						if rng.Intn(2) == 0 {
							cc.Get(key)
						} else {
							cc.Put(key, []string{fmt.Sprint(i)})
						}
					}
				}
				stream(0, 8*capacity)
				stream(1, 20)
				want := g.pool.Dump()
				rollback := g.guard(0)
				stream(0, 8*capacity)
				for _, ix := range []string{"kx", "ky"} {
					if n := g.pool.cacheFor(ix, 0).Len(); n != capacity {
						t.Fatalf("%s pool, capacity %d, seed %d: the guarded stream left %s with %d entries, want it full and evicting", g.name, capacity, seed, ix, n)
					}
				}
				rollback()
				if got := g.pool.Dump(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s pool, capacity %d, seed %d: rollback left\n %+v\nwant\n %+v", g.name, capacity, seed, got, want)
				}
			}
		}
	}
}

func TestPoolSnapshotResetsLateCaches(t *testing.T) {
	p := NewPool(0)
	a, _, _, _ := newPooledPair(p)
	rollback := p.SnapshotNode(0)
	a.Lookup(testCtx(0), "a") // creates the (kv, 0) cache after the guard
	rollback()
	if got := p.cacheFor("kv", 0).Len(); got != 0 {
		t.Fatalf("cache created after the snapshot must reset on rollback, has %d entries", got)
	}
}

func TestPoolResetNode(t *testing.T) {
	p := NewPool(0)
	a, _, _, _ := newPooledPair(p)
	a.Lookup(testCtx(0), "a")
	a.Lookup(testCtx(1), "a")
	p.ResetNode(0)
	if p.cacheFor("kv", 0).Len() != 0 {
		t.Fatal("node 0 pool cache should be cold after reset")
	}
	if p.cacheFor("kv", 1).Len() != 1 {
		t.Fatal("node 1 pool cache must survive node 0's reset")
	}
}

// TestPoolNodeScopedOps holds SnapshotNode and ResetNode to one node: two
// clients on two indices share a pool warmed on three nodes, and a guarded
// attempt on node 1 that also touches node 2 — then node 1's crash — must
// leave every other node's caches and statistics as they were. Dump keeps
// its (index, node) order throughout.
func TestPoolNodeScopedOps(t *testing.T) {
	p := NewPool(0)
	x := New(newFake("kx"), Options{Op: "op", CacheMode: CacheReal, SharedCache: p})
	y := New(newFake("ky"), Options{Op: "op", CacheMode: CacheReal, SharedCache: p})
	for _, n := range []sim.NodeID{2, 0, 1} {
		for _, c := range []*Client{y, x} {
			for _, k := range []string{"a", "a", "b"} {
				c.Lookup(testCtx(n), k)
			}
		}
	}
	byNode := func(entries []PoolEntry) map[sim.NodeID][]PoolEntry {
		m := make(map[sim.NodeID][]PoolEntry)
		for i, e := range entries {
			if i > 0 {
				if prev := entries[i-1]; prev.Index > e.Index || prev.Index == e.Index && prev.Node >= e.Node {
					t.Fatalf("Dump lists %s/%d after %s/%d, want (index, node) order", e.Index, e.Node, prev.Index, prev.Node)
				}
			}
			m[e.Node] = append(m[e.Node], e)
		}
		return m
	}
	before := byNode(p.Dump())
	if len(before) != 3 || len(before[1]) != 2 {
		t.Fatalf("warm pool holds %v", before)
	}

	rollback := p.SnapshotNode(1)
	x.Lookup(testCtx(1), "c")
	y.Lookup(testCtx(1), "a")
	x.Lookup(testCtx(2), "c") // outside the guard's node: kept
	rollback()
	after := byNode(p.Dump())
	if !reflect.DeepEqual(after[0], before[0]) || !reflect.DeepEqual(after[1], before[1]) {
		t.Fatalf("rollback on node 1: node 0 %v → %v, node 1 %v → %v", before[0], after[0], before[1], after[1])
	}
	if kx2 := after[2][0]; kx2.Index != "kx" || !reflect.DeepEqual(kx2.Keys, []string{"a", "b", "c"}) || kx2.Misses != 3 {
		t.Fatalf("node 2's kx cache after node 1's rollback = %+v, want c kept", kx2)
	}

	p.ResetNode(1)
	reset := byNode(p.Dump())
	if _, ok := reset[1]; ok {
		t.Fatalf("node 1 keeps caches after its reset: %v", reset[1])
	}
	if !reflect.DeepEqual(reset[0], after[0]) || !reflect.DeepEqual(reset[2], after[2]) {
		t.Fatalf("ResetNode(1) touched other nodes: %v → %v", after, reset)
	}
}

// readOnlyIndex serves the fake's data and counts nothing, so tasks of
// many nodes may share it.
type readOnlyIndex struct{ *fakeIndex }

func (r readOnlyIndex) Lookup(key string) ([]string, error) { return r.data[key], nil }

// TestPoolConcurrentNodes runs tasks of eight nodes at once through a
// private real, a shadow and a pooled client, guarding, rolling back and
// crashing their own node while another goroutine dumps the shared pool:
// every lookup answers right, and the race detector sees the pools'
// locking.
func TestPoolConcurrentNodes(t *testing.T) {
	shared := NewPool(0)
	acc := readOnlyIndex{newFake("kv")}
	clients := []*Client{
		New(acc, Options{Op: "op", CacheMode: CacheReal, CacheCapacity: 2}),
		New(acc, Options{Op: "op", CacheMode: CacheShadow, CacheCapacity: 2}),
		New(acc, Options{Op: "op", CacheMode: CacheReal, SharedCache: shared}),
	}
	var wg sync.WaitGroup
	for n := 0; n < 8; n++ {
		wg.Add(1)
		go func(node sim.NodeID) {
			defer wg.Done()
			cluster := sim.NewCluster(sim.DefaultConfig())
			for i := 0; i < 100; i++ {
				ctx := mapreduce.NewTaskContext(cluster, node, i, mapreduce.MapTask)
				guards := []func(){shared.SnapshotNode(node)}
				for _, c := range clients {
					guards = append(guards, c.SnapshotNode(node))
				}
				for _, c := range clients {
					for _, k := range []string{"a", "b", "c", "a"} {
						if got := c.Lookup(ctx, k); !reflect.DeepEqual(got, acc.data[k]) {
							t.Errorf("node %d: Lookup(%s) = %v", node, k, got)
							return
						}
					}
				}
				switch i % 3 {
				case 0:
					for _, g := range guards {
						g()
					}
				case 1:
					shared.ResetNode(node)
					for _, c := range clients {
						c.ResetNode(node)
					}
				}
			}
		}(sim.NodeID(n))
	}
	for i := 0; i < 50; i++ {
		shared.Dump()
		shared.Stats()
	}
	wg.Wait()
}

// BenchmarkSnapshotNode10kNodes times the per-attempt cache guard at 10k
// warmed nodes: "private" is Client.SnapshotNode over the client's own
// pool, "pooled" Pool.SnapshotNode over a shared pool warmed on every
// node. Both copy and restore the guarded node's caches alone.
func BenchmarkSnapshotNode10kNodes(b *testing.B) {
	const nodes = 10000
	const warm = 128

	build := func() *Client {
		c := New(newFake("kv"), Options{Op: "op", CacheMode: CacheReal})
		for n := 0; n < nodes; n++ {
			cc := c.real.cacheFor("kv", sim.NodeID(n))
			for i := 0; i < warm; i++ {
				cc.Put(fmt.Sprintf("k%06d", i), nil)
			}
		}
		return c
	}

	b.Run("private", func(b *testing.B) {
		c := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			node := sim.NodeID(i % nodes)
			rollback := c.SnapshotNode(node)
			c.real.cacheFor("kv", node).Put("hot", nil)
			rollback()
		}
	})
	b.Run("pooled", func(b *testing.B) {
		p := NewPool(0)
		for n := 0; n < nodes; n++ {
			cc := p.cacheFor("kv", sim.NodeID(n))
			for i := 0; i < warm; i++ {
				cc.Put(fmt.Sprintf("k%06d", i), nil)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			node := sim.NodeID(i % nodes)
			rollback := p.SnapshotNode(node)
			p.cacheFor("kv", node).Put("hot", nil)
			rollback()
		}
	})
}
