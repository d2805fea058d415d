// Package index defines the contract between EFind and the data sources it
// connects to. The paper uses "index" broadly: database-like indices,
// inverted indices, key-value stores, knowledge bases, and cloud services
// all qualify, as long as a lookup with the same key returns the same
// result for the duration of a job. EFind itself implements no index; it
// consumes this interface.
package index

import (
	"errors"

	"efind/internal/sim"
)

// Accessor is the paper's IndexAccessor: one implementation per index
// type, reusable across jobs. Lookup takes an index key ik and returns the
// result list {iv}.
type Accessor interface {
	// Name identifies the index in plans, statistics, and counters.
	Name() string
	// Lookup returns the values for key. Lookups must be idempotent for
	// the duration of a job (EFind's only assumption about indices).
	Lookup(key string) ([]string, error)
	// ServeTime is the index-local computation time per lookup in virtual
	// seconds (the paper's T_j term).
	ServeTime() float64
	// HostsFor returns the nodes that can serve the key locally, or nil
	// when unknown (e.g. an external service outside the cluster).
	HostsFor(key string) []sim.NodeID
}

// Scheme describes how a distributed index partitions its keys, as exposed
// by e.g. the root of a distributed B-tree or a Cassandra ring. EFind
// applies it in the shuffling job of the re-partitioning strategy so that
// lookup keys are co-partitioned with the index (§3.4).
type Scheme struct {
	// Partitions is the number of index partitions.
	Partitions int
	// Fn maps a key to its partition.
	Fn func(key string) int
	// Hosts lists the replica nodes of each partition.
	Hosts [][]sim.NodeID
}

// Partitioned is implemented by indices that can communicate their
// partition scheme to EFind (the paper's partition method + flag on the
// IndexAccessor class).
type Partitioned interface {
	Accessor
	Scheme() *Scheme
}

// BuildEntry is one index entry extracted from a scanned record by a
// buildable index (key → value, like a Put).
type BuildEntry struct {
	Key, Value string
}

// Buildable is implemented by indices that can be built incrementally as
// a side-effect of map scans (HAIL/LIAH-style adaptive indexing,
// internal/adaptix). A buildable index is usable at any build coverage:
// Lookup serves covered splits from the built structure and falls back
// to scanning the uncovered remainder, so results are always exact —
// only ServeTime changes as coverage grows.
//
// The engine-facing protocol: the plan compiler asks OfferSplits for the
// splits this run should build, the piggyback map stage extracts entries
// from the records it scans anyway and Stages them per (node, split),
// and the runtime Commits the staged splits at one serial point after
// the job (or Abandons them on failure). Staging is per-node soft state
// like the lookup caches, rewound by the same protocol
// (mapreduce.NodeState: SnapshotNode/ResetNode), so failed or
// speculative attempts never leak half-scanned splits into the index.
type Buildable interface {
	Accessor
	// BuildProgress returns how many of the total build units (input
	// splits) have been committed.
	BuildProgress() (covered, total int)
	// IsBuilt reports whether one build unit is committed (the plan
	// compiler uses it to re-freeze offer sets for subset phases).
	IsBuilt(split int) bool
	// ScanServeTime is the extra serve time per lookup per uncovered
	// split (the scan fallback's share of Tj).
	ScanServeTime() float64
	// BuildCharge is the virtual time the piggyback build stage charges
	// per scanned record of an offered split.
	BuildCharge() float64
	// OfferSplits returns the splits one run offers to build: the
	// lowest-numbered uncovered splits, capped by the index's offer rate.
	OfferSplits() []int
	// Extract derives the index entries of one scanned record.
	Extract(key, value string) []BuildEntry
	// Stage records the entries of one fully scanned split, pre-commit.
	Stage(node sim.NodeID, split int, entries []BuildEntry)
	// SnapshotNode marks the node's staging state ahead of a task
	// attempt; the returned rollback discards splits staged since.
	SnapshotNode(node sim.NodeID) func()
	// ResetNode discards everything the node has staged (node crash).
	ResetNode(node sim.NodeID)
	// Commit installs the staged splits into the index and its registry,
	// returning how many splits became covered. Must be called at a
	// serial point (between jobs).
	Commit() int
	// Abandon discards all staged state without committing (job failure).
	Abandon()
}

// ErrTransient marks an index error as retryable: accessors wrap it
// (fmt.Errorf("...: %w", index.ErrTransient)) to tell the client's retry
// ladder that re-attempting the lookup could succeed. Errors not
// marked transient fail fast — a deterministic logic error would fail
// identically on every attempt.
var ErrTransient = errors.New("transient index error")
