// Package btree implements an in-memory B+tree with string keys. Leaves
// are chained for ordered iteration and range scans. No package of the
// module imports it; the benchmark's btree.* probe rows are its only
// users.
package btree

import "sort"

// degree is the maximum number of keys per node; nodes split at degree
// and merge/borrow below degree/2. 32 keeps trees shallow for the
// partition sizes the simulation uses.
const degree = 32

// Tree is a B+tree mapping string keys to arbitrary values. The zero
// value is not usable; call New.
type Tree struct {
	root *node
	size int
}

type node struct {
	leaf     bool
	keys     []string
	children []*node       // interior nodes: len(keys)+1 children
	values   []interface{} // leaves: parallel to keys
	next     *node         // leaf chain
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.size }

// Get returns the value for key and whether it exists.
func (t *Tree) Get(key string) (interface{}, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i := sort.SearchStrings(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.values[i], true
	}
	return nil, false
}

// Put inserts or replaces the value for key.
func (t *Tree) Put(key string, value interface{}) {
	newChild, splitKey := t.insert(t.root, key, value)
	if newChild != nil {
		t.root = &node{
			keys:     []string{splitKey},
			children: []*node{t.root, newChild},
		}
	}
}

// insert descends to the leaf, inserts, and propagates splits upward.
// It returns a new right sibling and its separator key when the node split.
func (t *Tree) insert(n *node, key string, value interface{}) (*node, string) {
	if n.leaf {
		i := sort.SearchStrings(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.values[i] = value
			return nil, ""
		}
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.values = append(n.values, nil)
		copy(n.values[i+1:], n.values[i:])
		n.values[i] = value
		t.size++
		if len(n.keys) > degree {
			return n.splitLeaf()
		}
		return nil, ""
	}
	ci := childIndex(n.keys, key)
	newChild, splitKey := t.insert(n.children[ci], key, value)
	if newChild == nil {
		return nil, ""
	}
	n.keys = append(n.keys, "")
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = splitKey
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = newChild
	if len(n.keys) > degree {
		return n.splitInterior()
	}
	return nil, ""
}

func (n *node) splitLeaf() (*node, string) {
	mid := len(n.keys) / 2
	right := &node{
		leaf:   true,
		keys:   append([]string(nil), n.keys[mid:]...),
		values: append([]interface{}(nil), n.values[mid:]...),
		next:   n.next,
	}
	n.keys = n.keys[:mid:mid]
	n.values = n.values[:mid:mid]
	n.next = right
	return right, right.keys[0]
}

func (n *node) splitInterior() (*node, string) {
	mid := len(n.keys) / 2
	splitKey := n.keys[mid]
	right := &node{
		keys:     append([]string(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return right, splitKey
}

// Delete removes key, reporting whether it was present. Underflowed leaves
// are tolerated (no rebalancing) — the structure stays correct, only
// slightly less dense, which is fine for the read-mostly index workloads
// EFind assumes ("an index lookup with the same key returns the same
// result during a job").
func (t *Tree) Delete(key string) bool {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i := sort.SearchStrings(n.keys, key)
	if i >= len(n.keys) || n.keys[i] != key {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.values = append(n.values[:i], n.values[i+1:]...)
	t.size--
	return true
}

// childIndex picks the child to descend into for key: the first separator
// strictly greater than key.
func childIndex(keys []string, key string) int {
	return sort.Search(len(keys), func(i int) bool { return key < keys[i] })
}

// Ascend calls fn for every key/value pair in ascending key order,
// stopping early if fn returns false.
func (t *Tree) Ascend(fn func(key string, value interface{}) bool) {
	t.AscendRange("", "", fn)
}

// AscendRange calls fn for pairs with from <= key < to in ascending order
// ("" for from means from the start; "" for to means to the end),
// stopping early if fn returns false.
func (t *Tree) AscendRange(from, to string, fn func(key string, value interface{}) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, from)]
	}
	start := sort.SearchStrings(n.keys, from)
	for n != nil {
		for i := start; i < len(n.keys); i++ {
			if to != "" && n.keys[i] >= to {
				return
			}
			if !fn(n.keys[i], n.values[i]) {
				return
			}
		}
		n = n.next
		start = 0
	}
}

// Keys returns all keys in ascending order.
func (t *Tree) Keys() []string {
	out := make([]string, 0, t.size)
	t.Ascend(func(k string, _ interface{}) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Min returns the smallest key, or "" and false when empty.
func (t *Tree) Min() (string, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	// The leftmost leaf can be empty after deletions; follow the chain.
	for n != nil && len(n.keys) == 0 {
		n = n.next
	}
	if n == nil {
		return "", false
	}
	return n.keys[0], true
}

// Max returns the largest key, or "" and false when empty.
func (t *Tree) Max() (string, bool) {
	var last string
	found := false
	t.Ascend(func(k string, _ interface{}) bool {
		last, found = k, true
		return true
	})
	return last, found
}
