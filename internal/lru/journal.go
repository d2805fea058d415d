package lru

// Journal-based undo: Begin starts recording inverse operations, and the
// returned Undo rewinds them LIFO on Rollback. This replaces the eager
// Snapshot/Restore pair on the engine's fault-tolerance path: a task
// attempt guard is O(1) at Begin plus O(ops during the attempt) at
// Rollback, instead of O(cache entries) per guard — the difference
// between guarding 1024-entry caches across 10k nodes and not being able
// to afford it (see BenchmarkSnapshotVsJournal).
//
// A cache records into at most one journal. A new Begin supersedes any
// journal still open — the superseded Undo becomes inert (its Rollback
// and Commit are no-ops) — matching the engine's attempt discipline: a
// node runs one attempt at a time, and each attempt's guard is taken
// before the next attempt starts. Reset and Restore also void an open
// journal, since a rollback across a wholesale rewind is meaningless.

const (
	opGetHit uint8 = iota
	opPutNew
	opPutUpdate
)

// undoOp is one recorded inverse operation. Element positions are stored
// as predecessor keys, not entry pointers: an evicting insert reuses the
// victim's entry for the new key and its undo reuses the insert's for the
// evicted key, so pointers recorded earlier would go stale, while keys
// always resolve through the items map at rollback time.
type undoOp struct {
	kind       uint8
	front      bool // the moved element had no predecessor (was front)
	evict      bool // opPutNew: the insert evicted the LRU entry
	key        string
	prevKey    string   // predecessor of key before a move (when !front)
	evictedKey string   // opPutNew+evict: the evicted key
	values     []string // opPutUpdate: prior values; opPutNew+evict: evicted values
}

// Undo rewinds a cache to its state at the matching Begin.
type Undo struct {
	c      *Cache
	ops    []undoOp
	hits   int64
	misses int64
	active bool
}

// Begin starts journaling and returns the handle that rewinds (Rollback)
// or releases (Commit) everything recorded after this point. Any journal
// still open on the cache is superseded and becomes inert.
func (c *Cache) Begin() *Undo {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal != nil {
		c.journal.active = false
	}
	u := &Undo{c: c, hits: c.hits, misses: c.misses, active: true}
	c.journal = u
	return u
}

// Rollback rewinds the cache — entries, recency order, and hit/miss
// statistics — to its state at Begin, and stops journaling. No-op if this
// journal was superseded, committed, or already rolled back.
func (u *Undo) Rollback() {
	c := u.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !u.active {
		return
	}
	u.active = false
	c.journal = nil
	for i := len(u.ops) - 1; i >= 0; i-- {
		op := &u.ops[i]
		switch op.kind {
		case opGetHit:
			if !op.front {
				c.items[op.key].moveAfter(c.items[op.prevKey])
			}
		case opPutUpdate:
			e := c.items[op.key]
			e.values = op.values
			if !op.front {
				e.moveAfter(c.items[op.prevKey])
			}
		case opPutNew:
			// The insert's entry carries the evicted key back, or is dropped.
			e := c.items[op.key]
			e.unlink()
			delete(c.items, op.key)
			if op.evict {
				e.key, e.values = op.evictedKey, op.values
				e.linkAfter(c.root.prev)
				c.items[op.evictedKey] = e
			} else {
				*e, c.free = entry{next: c.free}, e
			}
		}
	}
	c.hits, c.misses = u.hits, u.misses
}

// Commit releases the journal without rewinding: the recorded operations
// stand, and the cache stops journaling. No-op if superseded or resolved.
func (u *Undo) Commit() {
	c := u.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !u.active {
		return
	}
	u.active = false
	c.journal = nil
	u.ops = nil
}

// recordMove captures the pre-move position of e (by predecessor key)
// into op. Caller holds c.mu.
func (c *Cache) recordMove(op *undoOp, e *entry) {
	if e.prev != &c.root {
		op.prevKey = e.prev.key
	} else {
		op.front = true
	}
}
