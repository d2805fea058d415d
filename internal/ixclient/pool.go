package ixclient

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"efind/internal/lru"
	"efind/internal/sim"
)

// Pool is a set of per-(index, node) LRU lookup caches — the paper's
// per-machine lookup cache of §3.2 — with the per-node snapshot/rollback
// the engine's fault tolerance needs. Every Client keeps its private
// caches (real or shadow) in a Pool of its own. Shared, a Pool is the
// cross-job lookup cache of the multi-tenant job service: caches
// that outlive any single job, so a tenant's repeated query family finds
// the per-machine caches already warm (service soft state). Clients attach
// via Options.SharedCache; a pooled client serves real hits from the pool
// but keeps its own per-job shadow cache, so the miss ratio R each job's
// optimizer observes is the value the job would measure running alone
// (per-job shadow accounting).
//
// Caches are kept by node first, so the per-attempt guard (SnapshotNode)
// and a crash (ResetNode) touch one node's caches, never the whole pool.
//
// Concurrency and determinism: the pool and its caches are individually
// locked, so access is memory-safe under any schedule. Determinism of
// pooled contents relies on the job service's execution discipline — the
// service runs one job's phase at a time in deterministic grant order, so
// the pool state a phase observes is a pure function of the admission
// trace and seed. Visibility is therefore phase-granular: a phase sees
// the pool as of the phases that completed before it in grant order, not
// the fine-grained virtual-time interleaving of individual lookups.
type Pool struct {
	capacity int

	mu    sync.Mutex
	nodes map[sim.NodeID][]poolCache // append-only per node until ResetNode
}

// poolCache is one index's cache on a node. A node holds a cache per
// index its tasks looked up — a handful — so a scan finds it.
type poolCache struct {
	index string
	cache *lru.Cache
}

// NewPool returns an empty pool whose per-(index, node) caches hold up to
// capacity entries each (0 = the paper's 1024).
func NewPool(capacity int) *Pool {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Pool{capacity: capacity, nodes: make(map[sim.NodeID][]poolCache)}
}

// cacheFor returns the pool's cache for one index on one node, creating
// it lazily. Every client using the pool shares it.
func (p *Pool) cacheFor(index string, node sim.NodeID) *lru.Cache {
	p.mu.Lock()
	defer p.mu.Unlock()
	caches := p.nodes[node]
	for _, e := range caches {
		if e.index == index {
			return e.cache
		}
	}
	cc := lru.New(p.capacity)
	p.nodes[node] = append(caches, poolCache{index, cc})
	return cc
}

// SnapshotNode copies every cache of one node (lru.Cache.Snapshot) and
// returns a rollback that restores them, resetting any cache the node
// acquired after the snapshot (mapreduce.NodeState). A shared pool is
// guarded once in a plan's list of node state, not through each client.
// A guard costs a constant number of allocations per cache plus a copy
// of its entries (TestSnapshotNodeAllocs).
func (p *Pool) SnapshotNode(node sim.NodeID) func() {
	p.mu.Lock()
	before := p.nodes[node] // its entries never change: the list only grows
	p.mu.Unlock()
	snaps := make([]*lru.Snapshot, len(before))
	for i, e := range before {
		snaps[i] = e.cache.Snapshot()
	}
	return func() {
		for i, e := range before {
			e.cache.Restore(snaps[i])
		}
		p.mu.Lock()
		for _, e := range p.nodes[node] {
			if !slices.Contains(before, e) {
				e.cache.Reset()
			}
		}
		p.mu.Unlock()
	}
}

// ResetNode drops every cache on one node: a crashed machine reboots with
// its soft state cold, for every index and every job alike.
func (p *Pool) ResetNode(node sim.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.nodes, node)
}

// PoolEntry is one pooled cache's snapshot, produced by Dump and consumed
// by Restore — the job service checkpoints these so a recovered
// coordinator re-warms the cross-job caches to their exact pre-crash
// contents (entries in recency order, statistics included).
type PoolEntry struct {
	Index string
	Node  sim.NodeID
	lru.Snapshot
}

// Dump returns every pooled cache's state in deterministic (index, node)
// order. Empty caches with history (hits/misses) are included; a Dump of
// a fresh pool is empty.
func (p *Pool) Dump() []PoolEntry {
	p.mu.Lock()
	n := 0
	for _, caches := range p.nodes {
		n += len(caches)
	}
	out := make([]PoolEntry, 0, n)
	for node, caches := range p.nodes {
		for _, e := range caches {
			out = append(out, PoolEntry{Index: e.index, Node: node})
		}
	}
	p.mu.Unlock()
	slices.SortFunc(out, func(a, b PoolEntry) int {
		return cmp.Or(strings.Compare(a.Index, b.Index), cmp.Compare(a.Node, b.Node))
	})
	for i := range out {
		out[i].Snapshot = *p.cacheFor(out[i].Index, out[i].Node).Snapshot()
	}
	return out
}

// Restore replaces the pool's contents with a dumped state. Caches not
// named in entries are dropped.
func (p *Pool) Restore(entries []PoolEntry) {
	p.mu.Lock()
	p.nodes = make(map[sim.NodeID][]poolCache)
	p.mu.Unlock()
	for i := range entries {
		p.cacheFor(entries[i].Index, entries[i].Node).Restore(&entries[i].Snapshot)
	}
}

// Stats sums probe hits and misses over every cache — the service-level
// view of how much cross-job reuse a shared pool delivers.
func (p *Pool) Stats() (hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, caches := range p.nodes {
		for _, e := range caches {
			h, m := e.cache.Stats()
			hits += h
			misses += m
		}
	}
	return hits, misses
}

// HitRatio returns hits/(hits+misses) across the pool, or 0 when the
// pool has never been probed.
func (p *Pool) HitRatio() float64 {
	hits, misses := p.Stats()
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
