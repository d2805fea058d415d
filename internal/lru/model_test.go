package lru

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"testing"
)

// model is the reference the cache is held to: a map of values and a list
// of keys, oldest → newest.
type model struct {
	capacity     int
	order        []string
	values       map[string][]string
	hits, misses int64
}

func newModel(capacity int) *model {
	return &model{capacity: capacity, values: map[string][]string{}}
}

func (m *model) clone() *model {
	c := *m
	c.order, c.values = slices.Clone(m.order), make(map[string][]string, len(m.values))
	for k, v := range m.values {
		c.values[k] = v
	}
	return &c
}

// touch makes key the newest.
func (m *model) touch(key string) {
	m.order = append(slices.DeleteFunc(m.order, func(k string) bool { return k == key }), key)
}

func (m *model) get(key string) {
	if _, ok := m.values[key]; !ok {
		m.misses++
		return
	}
	m.hits++
	m.touch(key)
}

func (m *model) put(key string, values []string) {
	if _, ok := m.values[key]; !ok && len(m.order) == m.capacity {
		delete(m.values, m.order[0])
		m.order = m.order[1:]
	}
	m.values[key] = values
	m.touch(key)
}

// dump returns the cache's full observable state: entries oldest→newest
// with their values, plus hit/miss counters. Comparing dumps compares
// recency order, contents, and statistics at once.
func dump(c *Cache) []string {
	var out []string
	hits, misses := c.Stats()
	out = append(out, fmt.Sprintf("hits=%d misses=%d", hits, misses))
	s := c.Snapshot()
	for i, k := range s.Keys {
		out = append(out, fmt.Sprintf("%s=%v", k, s.Values[i]))
	}
	return out
}

// check holds the cache to the model — entries oldest → newest, each
// value the very slice the model holds, statistics — and its links,
// index and blocks to their invariants: the ring runs through exactly the
// indexed entries, each found by its key from its home slot, the index
// is at most half full, and the blocks hold no more than the capacity.
func (m *model) check(t *testing.T, c *Cache, seed int64, step int) {
	t.Helper()
	where := func() string { return fmt.Sprintf("seed %d capacity %d step %d", seed, c.capacity, step) }
	indexed := 0
	for _, e := range c.index {
		if e != nil {
			indexed++
		}
	}
	if c.hits != m.hits || c.misses != m.misses || c.count != len(m.order) || indexed != len(m.order) {
		t.Fatalf("%s: %d entries, %d indexed, hits %d, misses %d; want %d, %d, %d", where(), c.count, indexed, c.hits, c.misses, len(m.order), m.hits, m.misses)
	}
	if 2*indexed > len(c.index) {
		t.Fatalf("%s: %d entries in an index of %d slots", where(), indexed, len(c.index))
	}
	e := c.root.prev
	for _, k := range m.order {
		if e == &c.root || e.key != k || c.find(k, maphash.String(hashSeed, k)) != e || e.prev.next != e || &e.values[0] != &m.values[k][0] {
			t.Fatalf("%s: cache\n %v\nmodel\n %v", where(), dump(c), m.order)
		}
		e = e.prev
	}
	if e != &c.root {
		t.Fatalf("%s: the ring holds more than the index", where())
	}
	if c.made > c.capacity {
		t.Fatalf("%s: blocks of %d entries in a cache of capacity %d", where(), c.made, c.capacity)
	}
}

// TestCacheMatchesModel: random Put, Get, Reset and Snapshot/Restore
// streams leave the cache — entries, recency order, values, statistics —
// as they leave the map-and-list reference, at capacities that take one
// block and several, and with every value new, so an entry reused from a
// block, an eviction or a restore that kept an old value shows.
func TestCacheMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, capacity := range []int{1, 5, 16, 40, 300} {
			runModel(t, seed, capacity, 3000, false)
		}
	}
}

// TestIndexMatchesModel is the same differential run at the capacities
// the index meets in use — one and two slots' worth, the TPC-H cache's
// 64, the paper's 1,024 —, each cache filled first so that the stream
// evicts on insert into a full cache from its first steps, and its index
// moves entries back over the holes evictions leave.
func TestIndexMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, capacity := range []int{1, 2, 64, 1024} {
			if evicted := runModel(t, seed, capacity, max(3000, 4*capacity), true); evicted == 0 {
				t.Fatalf("seed %d capacity %d: no insert evicted", seed, capacity)
			}
		}
	}
}

// runModel drives a cache and the model with one seeded stream of steps,
// checking the cache after each, and returns how many inserts evicted.
// With fill, the cache is filled to capacity before the stream starts.
func runModel(t *testing.T, seed int64, capacity, steps int, fill bool) (evicted int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, m := New(capacity), newModel(capacity)
	keys := make([]string, 2*capacity+4)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	put := func(key string, v []string) {
		if _, ok := m.values[key]; !ok && len(m.order) == capacity {
			evicted++
		}
		c.Put(key, v)
		m.put(key, v)
	}
	if fill {
		for i, k := range keys[:capacity] {
			put(k, []string{fmt.Sprint("fill", i)})
		}
		m.check(t, c, seed, -1)
	}
	var (
		snap  *Snapshot
		taken *model
	)
	for step := 0; step < steps; step++ {
		key := keys[rng.Intn(len(keys))]
		switch op := rng.Intn(179); {
		case op < 90:
			put(key, []string{fmt.Sprint(step)})
		case op < 170:
			c.Get(key)
			m.get(key)
		case op < 172:
			c.Reset()
			m = newModel(capacity)
			if c.spare != nil || c.index != nil {
				t.Fatalf("seed %d capacity %d step %d: a reset cache keeps a block or the index of the entries before it", seed, capacity, step)
			}
		case op < 176:
			snap, taken = c.Snapshot(), m.clone()
		case op < 179 && snap != nil:
			c.Restore(snap)
			m = taken.clone()
		}
		m.check(t, c, seed, step)
	}
	return evicted
}
