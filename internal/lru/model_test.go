package lru

import (
	"fmt"
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
// value the very slice the model holds, statistics — and its links and
// blocks to their invariants: the ring runs through exactly the mapped
// entries, and the blocks hold no more than the capacity.
func (m *model) check(t *testing.T, c *Cache, seed int64, step int) {
	t.Helper()
	where := func() string { return fmt.Sprintf("seed %d capacity %d step %d", seed, c.capacity, step) }
	if c.hits != m.hits || c.misses != m.misses || len(c.items) != len(m.order) {
		t.Fatalf("%s: %d entries, hits %d, misses %d; want %d, %d, %d", where(), len(c.items), c.hits, c.misses, len(m.order), m.hits, m.misses)
	}
	e := c.root.prev
	for _, k := range m.order {
		if e == &c.root || e.key != k || c.items[k] != e || e.prev.next != e || &e.values[0] != &m.values[k][0] {
			t.Fatalf("%s: cache\n %v\nmodel\n %v", where(), dump(c), m.order)
		}
		e = e.prev
	}
	if e != &c.root {
		t.Fatalf("%s: the ring holds more than the map", where())
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
			rng := rand.New(rand.NewSource(seed))
			c, m := New(capacity), newModel(capacity)
			keys := make([]string, 2*capacity+4)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
			}
			var (
				snap  *Snapshot
				taken *model
			)
			for step := 0; step < 3000; step++ {
				key := keys[rng.Intn(len(keys))]
				switch op := rng.Intn(179); {
				case op < 90:
					v := []string{fmt.Sprint(step)}
					c.Put(key, v)
					m.put(key, v)
				case op < 170:
					c.Get(key)
					m.get(key)
				case op < 172:
					c.Reset()
					m = newModel(capacity)
					if c.spare != nil {
						t.Fatalf("seed %d capacity %d step %d: a reset cache keeps a block of the entries before it", seed, capacity, step)
					}
				case op < 176:
					snap, taken = c.Snapshot(), m.clone()
				case op < 179 && snap != nil:
					c.Restore(snap)
					m = taken.clone()
				}
				m.check(t, c, seed, step)
			}
		}
	}
}
