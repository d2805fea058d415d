// Package kvstore is a simulated distributed key-value index service in
// the image of the paper's Cassandra deployment: keys are spread over a
// fixed number of partitions (hash- or range-partitioned), each partition
// is replicated across nodes and held in a hash map (order lives only in
// a frozen store's snapshot files, see filebacked.go), the partition
// scheme is queryable (the paper controls Cassandra placement via
// PropertyFileSnitch precisely so EFind can know it), and every lookup
// costs a configurable serve time T_j.
package kvstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"efind/internal/fstore"
	"efind/internal/index"
	"efind/internal/sim"
)

// Store is a distributed KV index. Create with NewHash or NewRange, load
// with Put/Load, then serve Lookup traffic. Lookups are safe to issue
// from concurrently executing tasks (the parallel engine does); loads
// take a write lock, mirroring a store that is bulk-loaded before the
// job's read-only query traffic.
type Store struct {
	name      string
	scheme    index.Scheme
	mu        sync.RWMutex
	parts     []map[string][]string
	serveTime float64
	lookups   atomic.Int64
	misses    atomic.Int64

	// File-backed backend (see filebacked.go): when snaps is non-nil,
	// lookups are served from per-partition fstore snapshots under dir;
	// the maps remain the source of truth for rebuilds. stale marks
	// partitions mutated since their snapshot was written.
	dir        string
	snaps      []*fstore.Snapshot
	stale      []bool
	openOpts   fstore.Options
	generation int64
	rebuilds   atomic.Int64
}

var _ index.Partitioned = (*Store)(nil)

// NewHash creates a hash-partitioned store (the paper's setup: 32
// partitions via HashPartitioner, each replicated to 3 nodes).
func NewHash(cluster *sim.Cluster, name string, partitions, replicas int, serveTime float64) *Store {
	if partitions < 1 {
		partitions = 1
	}
	s := &Store{
		name: name,
		scheme: index.Scheme{
			Partitions: partitions,
			Fn:         func(key string) int { return hashPartition(key, partitions) },
		},
		serveTime: serveTime,
	}
	s.initParts(cluster, replicas)
	return s
}

// NewRange creates a range-partitioned store with the given split points:
// partition i holds keys in [splits[i-1], splits[i]), with open ends. A
// store with len(splits)+1 partitions results.
func NewRange(cluster *sim.Cluster, name string, splits []string, replicas int, serveTime float64) *Store {
	bounds := append([]string(nil), splits...)
	sort.Strings(bounds)
	partitions := len(bounds) + 1
	s := &Store{
		name: name,
		scheme: index.Scheme{
			Partitions: partitions,
			Fn: func(key string) int { // first bound > key, without building a key
				return sort.Search(len(bounds), func(i int) bool { return bounds[i] > key })
			},
		},
		serveTime: serveTime,
	}
	s.initParts(cluster, replicas)
	return s
}

func (s *Store) initParts(cluster *sim.Cluster, replicas int) {
	if replicas < 1 {
		replicas = 1
	}
	s.parts = make([]map[string][]string, s.scheme.Partitions)
	s.scheme.Hosts = make([][]sim.NodeID, s.scheme.Partitions)
	for i := range s.parts {
		s.parts[i] = make(map[string][]string)
		s.scheme.Hosts[i] = cluster.PlaceReplicas(replicas)
	}
}

// Name implements index.Accessor.
func (s *Store) Name() string { return s.name }

// Put appends a value under key (a key can hold several values, like a
// non-unique secondary index). On a file-backed store, the key's
// partition snapshot is marked stale and rebuilt on its next lookup.
// Values are only ever appended: a slice Lookup returned keeps reading
// what it held.
func (s *Store) Put(key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.scheme.Fn(key)
	if s.stale != nil {
		s.stale[p] = true
	}
	s.parts[p][key] = append(s.parts[p][key], value)
}

// Load bulk-inserts pairs.
func (s *Store) Load(pairs map[string][]string) {
	for k, vs := range pairs {
		for _, v := range vs {
			s.Put(k, v)
		}
	}
}

// Lookup implements index.Accessor. A missing key returns an empty result,
// not an error (the paper's lookups return a possibly empty list {iv}).
// File-backed stores serve it from the mapped snapshot: misses stop at
// the fixed-size slot section and never touch value pages.
func (s *Store) Lookup(key string) ([]string, error) {
	s.lookups.Add(1)
	v, ok, err := s.get(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		s.misses.Add(1)
		return nil, nil
	}
	return v, nil
}

// BatchLookup resolves many keys in one request — the multi-get a real
// store (Cassandra, HBase) answers with one round trip per involved
// partition. Results align positionally with keys; missing keys yield nil
// entries and count as misses, exactly as per-key Lookup calls would, and
// each key is read under the read lock. The job runtime never calls it:
// it exists only for bench's kvstore.batch_lookup_ns_per_key and
// ixclient.batch_ns_per_key rows and goes with them (ROADMAP 3(f)).
func (s *Store) BatchLookup(keys []string) ([][]string, error) {
	s.lookups.Add(int64(len(keys)))
	out := make([][]string, len(keys))
	for i, k := range keys {
		v, ok, err := s.get(k)
		if err != nil {
			return nil, err
		}
		if ok {
			out[i] = v
		} else {
			s.misses.Add(1)
		}
	}
	return out, nil
}

// ServeTime implements index.Accessor (the T_j term).
func (s *Store) ServeTime() float64 { return s.serveTime }

// HostsFor implements index.Accessor.
func (s *Store) HostsFor(key string) []sim.NodeID {
	return s.scheme.Hosts[s.scheme.Fn(key)]
}

// Scheme implements index.Partitioned.
func (s *Store) Scheme() *index.Scheme { return &s.scheme }

// Lookups returns how many lookups the store has served — the observable
// the redundancy-reducing strategies shrink.
func (s *Store) Lookups() int64 { return s.lookups.Load() }

// Misses returns how many lookups found no value.
func (s *Store) Misses() int64 { return s.misses.Load() }

// ResetStats clears the lookup counters (between experiment runs).
func (s *Store) ResetStats() {
	s.lookups.Store(0)
	s.misses.Store(0)
}

// Len returns the total number of distinct keys stored.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, p := range s.parts {
		n += len(p)
	}
	return n
}

// String describes the store.
func (s *Store) String() string {
	return fmt.Sprintf("kvstore(%s, %d partitions, %d keys)", s.name, s.scheme.Partitions, s.Len())
}

// hashPartition matches the paper's use of Hadoop's HashPartitioner for
// the index partitions.
func hashPartition(key string, n int) int {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}
