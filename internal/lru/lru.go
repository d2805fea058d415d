// Package lru provides the fixed-capacity, LRU-evicting lookup cache used
// by EFind's lookup-cache strategy (§3.2). The paper fixes the capacity at
// 1024 index key/value entries; capacity sweeps are exposed as an ablation.
package lru

import (
	"hash/maphash"
	"math/bits"
	"sync"
)

// Cache is a string-keyed LRU cache. It is safe for concurrent use: the
// EFind runtime shares one cache per machine across all of that machine's
// tasks, and the parallel executor runs tasks of different machines on
// different goroutines. (Tasks of the same machine are serialized by the
// executor, so the lock is uncontended in practice; it exists so that the
// structure is safe no matter how callers schedule around it.)
type Cache struct {
	mu       sync.Mutex
	capacity int
	// root is the sentinel of the recency ring: root.next is the most
	// recently used entry, root.prev the least. The links live in the
	// entries themselves, so an insert that evicts costs no allocation (the
	// victim's entry is reused), and the others take theirs from blocks.
	root entry
	// index finds an entry by key: open addressing with linear probing, nil
	// for a free slot, over a power-of-two table of at least twice the
	// entries made, so it is at most half full. It grows when a block is
	// made, never sized by the capacity; count is the live entries.
	index []*entry
	count int
	// Entries come from blocks: spare is the rest of the newest, made the
	// blocks' total since the last reset. Each block is as large as all
	// before it, from 16 entries, never past the capacity.
	spare []entry
	made  int

	hits   int64
	misses int64
}

type entry struct {
	key        string
	hash       uint64 // of key: a probe compares it first, a move rehashes nothing
	values     []string
	prev, next *entry
}

// hashSeed keys the index's hash. Probe sequences differ from process to
// process; nothing observable depends on them.
var hashSeed = maphash.MakeSeed()

// unlink takes e out of the ring.
func (e *entry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// linkAfter puts e into the ring right after at.
func (e *entry) linkAfter(at *entry) {
	e.prev, e.next = at, at.next
	at.next.prev = e
	at.next = e
}

// moveAfter relinks e right after at (the sentinel for "to the front").
func (e *entry) moveAfter(at *entry) {
	if e == at || at.next == e {
		return
	}
	e.unlink()
	e.linkAfter(at)
}

// New returns a cache holding up to capacity entries. Capacity is clamped
// to at least 1.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{capacity: capacity}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// find returns the entry holding key, or nil.
func (c *Cache) find(key string, hash uint64) *entry {
	if len(c.index) == 0 {
		return nil
	}
	mask := len(c.index) - 1
	for i := int(hash) & mask; ; i = (i + 1) & mask {
		e := c.index[i]
		if e == nil || e.hash == hash && e.key == key {
			return e
		}
	}
}

// insert puts e, whose key is not indexed, into the first free slot from
// its home. The index is at most half full, so there is one.
func (c *Cache) insert(e *entry) {
	mask := len(c.index) - 1
	i := int(e.hash) & mask
	for c.index[i] != nil {
		i = (i + 1) & mask
	}
	c.index[i] = e
}

// remove takes e out of the index, shifting each later entry of its run
// back into the hole when its home allows, so no probe meets a gap that
// would end it early (backward-shift deletion: no tombstones).
func (c *Cache) remove(e *entry) {
	mask := len(c.index) - 1
	hole := int(e.hash) & mask
	for c.index[hole] != e {
		hole = (hole + 1) & mask
	}
	for i := (hole + 1) & mask; c.index[i] != nil; i = (i + 1) & mask {
		// The entry at i may fill the hole if its home is not in (hole, i].
		if f := c.index[i]; (i-int(f.hash))&mask >= (i-hole)&mask {
			c.index[hole], hole = f, i
		}
	}
	c.index[hole] = nil
}

// grow makes the index at least twice n slots, rehashing what it holds.
func (c *Cache) grow(n int) {
	if n == 0 || 2*n <= len(c.index) {
		return
	}
	old := c.index
	c.index = make([]*entry, 1<<bits.Len(uint(2*n-1)))
	for _, e := range old {
		if e != nil {
			c.insert(e)
		}
	}
}

// Get returns the cached lookup result for key and whether it was present,
// promoting the entry to most-recently-used on a hit.
func (c *Cache) Get(key string) ([]string, bool) {
	hash := maphash.String(hashSeed, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.find(key, hash); e != nil {
		e.moveAfter(&c.root)
		c.hits++
		return e.values, true
	}
	c.misses++
	return nil, false
}

// Put stores the lookup result for key, evicting the least-recently-used
// entry if the cache is full. Re-putting an existing key refreshes it.
func (c *Cache) Put(key string, values []string) {
	hash := maphash.String(hashSeed, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.find(key, hash); e != nil {
		e.moveAfter(&c.root)
		e.values = values
		return
	}
	var e *entry
	if c.count >= c.capacity {
		// Full: the least recently used entry makes room, and its node
		// carries the new key.
		e = c.root.prev
		c.remove(e)
		e.unlink()
		e.key, e.hash, e.values = key, hash, values
	} else {
		e = c.newEntry(key, hash, values)
		c.count++
	}
	e.linkAfter(&c.root)
	c.insert(e)
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Stats returns the hit and miss counts since creation or the last Reset.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reset()
}

// newEntry takes a spare entry, else starts a block and grows the index
// for it: an insert below capacity calls it, so a block has room under it.
func (c *Cache) newEntry(key string, hash uint64, values []string) (e *entry) {
	if len(c.spare) == 0 {
		n := min(max(c.made, 16), c.capacity-c.made)
		c.spare, c.made = make([]entry, n), c.made+n
		c.grow(c.made)
	}
	e, c.spare = &c.spare[0], c.spare[1:]
	*e = entry{key: key, hash: hash, values: values}
	return e
}

// reset drops the blocks and the index too, so no value from before it
// stays alive.
func (c *Cache) reset() {
	c.root.prev, c.root.next = &c.root, &c.root
	c.index, c.count = nil, 0
	c.spare, c.made = nil, 0
	c.hits, c.misses = 0, 0
}

// Snapshot is a point-in-time copy of a cache's entries and statistics,
// and the one form a cache's state takes outside it: the MapReduce
// engine's fault tolerance restores a pre-attempt snapshot, so a failed
// task attempt's pollution of its node's shared caches does not skew the
// measured miss ratio R, and the job service checkpoints snapshots so a
// recovered coordinator re-warms its caches exactly.
type Snapshot struct {
	Keys         []string // oldest → newest
	Values       [][]string
	Hits, Misses int64
}

// Snapshot captures the cache's current entries (in recency order) and
// hit/miss statistics. Entry values are shared, not deep-copied: the cache
// never mutates stored value slices in place.
func (c *Cache) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Snapshot{
		Keys:   make([]string, 0, c.count),
		Values: make([][]string, 0, c.count),
		Hits:   c.hits,
		Misses: c.misses,
	}
	for e := c.root.prev; e != &c.root; e = e.prev {
		s.Keys = append(s.Keys, e.key)
		s.Values = append(s.Values, e.values)
	}
	return s
}

// Restore rewinds the cache to a snapshot taken from it (or from a cache
// of the same capacity). Its entries are one block, and the index is
// sized for them once.
func (c *Cache) Restore(s *Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reset()
	n := len(s.Keys)
	c.spare, c.made, c.count = make([]entry, n), n, n
	c.grow(n)
	for i, k := range s.Keys {
		e := c.newEntry(k, maphash.String(hashSeed, k), s.Values[i])
		e.linkAfter(&c.root)
		c.insert(e)
	}
	c.hits, c.misses = s.Hits, s.Misses
}
