// Package lru provides the fixed-capacity, LRU-evicting lookup cache used
// by EFind's lookup-cache strategy (§3.2). The paper fixes the capacity at
// 1024 index key/value entries; capacity sweeps are exposed as an ablation.
package lru

import "sync"

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
	root  entry
	items map[string]*entry
	// Entries come from blocks: spare is the rest of the newest, made the
	// blocks' total since the last reset. Blocks double from 16 entries to
	// 64, never past the capacity.
	spare []entry
	made  int

	hits   int64
	misses int64
}

type entry struct {
	key        string
	values     []string
	prev, next *entry
}

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
	c := &Cache{capacity: capacity, items: make(map[string]*entry, capacity)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the cached lookup result for key and whether it was present,
// promoting the entry to most-recently-used on a hit.
func (c *Cache) Get(key string) ([]string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.moveAfter(&c.root)
		e.values = values
		return
	}
	var e *entry
	if len(c.items) >= c.capacity {
		// Full: the least recently used entry makes room, and its node
		// carries the new key.
		e = c.root.prev
		delete(c.items, e.key)
		e.unlink()
		e.key, e.values = key, values
	} else {
		e = c.newEntry(key, values)
	}
	e.linkAfter(&c.root)
	c.items[key] = e
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
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

// newEntry takes a spare entry, else starts a block: an insert below
// capacity calls it, so a block has room under it.
func (c *Cache) newEntry(key string, values []string) (e *entry) {
	if len(c.spare) == 0 {
		n := min(max(c.made, 16), 64, c.capacity-c.made)
		c.spare, c.made = make([]entry, n), c.made+n
	}
	e, c.spare = &c.spare[0], c.spare[1:]
	*e = entry{key: key, values: values}
	return e
}

// reset drops the blocks too, so no value from before it stays alive.
func (c *Cache) reset() {
	c.root.prev, c.root.next = &c.root, &c.root
	c.items = make(map[string]*entry, c.capacity)
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
		Keys:   make([]string, 0, len(c.items)),
		Values: make([][]string, 0, len(c.items)),
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
// of the same capacity). Its entries are one block.
func (c *Cache) Restore(s *Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reset()
	c.spare, c.made = make([]entry, len(s.Keys)), len(s.Keys)
	for i, k := range s.Keys {
		e := c.newEntry(k, s.Values[i])
		e.linkAfter(&c.root)
		c.items[k] = e
	}
	c.hits, c.misses = s.Hits, s.Misses
}
