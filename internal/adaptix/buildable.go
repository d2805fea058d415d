package adaptix

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"efind/internal/dfs"
	"efind/internal/index"
	"efind/internal/kvstore"
	"efind/internal/sim"
)

// Config describes one buildable index: a kvstore that accumulates the
// built entries, the source file whose splits are the build units, and
// the extraction function that derives index entries from scanned
// records.
type Config struct {
	// Name identifies the index in plans, counters, and the registry.
	Name string
	// Source is the file whose chunks are the build units; a lookup's
	// scan fallback reads its uncovered chunks.
	Source *dfs.File
	// Extract derives the index entries of one source record (e.g.
	// "index the join attribute inside Value under the record's key"). An
	// entry may share the record's strings: a file-backed chunk gives each
	// record its own (dfs.Chunk.Records), so a kept entry pins no chunk.
	Extract func(key, value string) []index.BuildEntry
	// Store holds committed entries and serves the covered share of
	// every lookup; its ServeTime is the fully-built T_j.
	Store *kvstore.Store
	// Registry tracks which splits are committed, shared across jobs.
	Registry *Registry
	// ScanTime is the per-lookup serve-time penalty of each uncovered
	// split (the scan fallback's share of T_j); at coverage c the
	// accessor's serve time is Store.ServeTime() + (total-c)*ScanTime.
	ScanTime float64
	// BuildTime is the virtual time the piggyback build stage charges
	// per scanned record of an offered split.
	BuildTime float64
	// OfferRate is the fraction of total splits one run offers to build
	// (LIAH's offer rate rho). 0.25 covers the input in four runs; 0
	// disables building, leaving the accessor a pure scan-fallback index.
	OfferRate float64
}

// stagedSplit is one fully scanned split's entries awaiting commit.
type stagedSplit struct {
	split   int
	entries []index.BuildEntry
}

// Buildable is an index.Buildable accessor over a kvstore plus a scan
// fallback. It is usable at any build coverage; lookups are exact
// regardless of how much has been built. Safe for concurrent use by
// parallel tasks; Commit and Abandon must only be called at serial
// points (between jobs), which the core runtime guarantees.
type Buildable struct {
	cfg   Config
	total int

	mu sync.Mutex
	// staged holds each node's staged splits in staging order: a guard
	// is a length, its rollback a truncation. A split two attempts
	// scanned is staged on both nodes; Commit installs it once.
	staged map[sim.NodeID][]stagedSplit
	// resident tracks splits whose entries this process has put into the
	// store (via Commit, BuildAll, or Materialize), so Materialize never
	// double-inserts what is already being served.
	resident map[int]bool
	// scans memoizes the per-split scan fallback: split → extracted
	// key → values in record order. Entries are dropped once a split
	// commits (the store serves it from then on).
	scans map[int]map[string][]string

	// unc caches uncovered(): every lookup walks the uncovered splits, and
	// coverage changes only between jobs.
	unc atomic.Pointer[coverage]
}

// coverage is the registry's uncovered splits of one index as of a
// registry generation.
type coverage struct {
	gen    uint64
	splits []int
}

var _ index.Buildable = (*Buildable)(nil)

// New wraps cfg into a Buildable, registering the index with the
// registry (idempotently, so coverage recovered from a checkpoint
// stays).
func New(cfg Config) (*Buildable, error) {
	switch {
	case cfg.Name == "":
		return nil, fmt.Errorf("adaptix: Config.Name required")
	case cfg.Source == nil:
		return nil, fmt.Errorf("adaptix: Config.Source required")
	case cfg.Extract == nil:
		return nil, fmt.Errorf("adaptix: Config.Extract required")
	case cfg.Store == nil:
		return nil, fmt.Errorf("adaptix: Config.Store required")
	case cfg.Registry == nil:
		return nil, fmt.Errorf("adaptix: Config.Registry required")
	}
	b := &Buildable{
		cfg:      cfg,
		total:    len(cfg.Source.Chunks),
		staged:   make(map[sim.NodeID][]stagedSplit),
		scans:    make(map[int]map[string][]string),
		resident: make(map[int]bool),
	}
	cfg.Registry.Register(cfg.Name, b.total)
	return b, nil
}

// Name implements index.Accessor.
func (b *Buildable) Name() string { return b.cfg.Name }

// Source returns the file whose splits are the build units. The plan
// compiler checks it against the job input before piggybacking a build
// stage — entries extracted from a different file's records would index
// the wrong data.
func (b *Buildable) Source() *dfs.File { return b.cfg.Source }

// Lookup implements index.Accessor: the covered share of the key's
// values comes from the store, the uncovered remainder from a memoized
// scan of the source chunks. Value order is store commit order followed
// by uncovered splits in ascending split order — deterministic, though
// not necessarily global record order when coverage grew non-prefix
// (a mid-job plan change building only the splits it still had to read).
func (b *Buildable) Lookup(key string) ([]string, error) {
	vals, err := b.cfg.Store.Lookup(key)
	if err != nil {
		return nil, err
	}
	for _, s := range b.uncovered() {
		m, err := b.scanOf(s)
		if err != nil {
			return nil, err
		}
		// Capped, so append copies rather than writing into spare capacity
		// of the store's own slice, which concurrent lookups share.
		vals = append(vals[:len(vals):len(vals)], m[key]...)
	}
	return vals, nil
}

// ServeTime implements index.Accessor: the store's fully-built T_j plus
// the scan penalty of every still-uncovered split. Coverage only changes
// at serial points, so the value is stable for the duration of a job —
// the cost model's IndexFacts.TjAt mirrors this formula.
func (b *Buildable) ServeTime() float64 {
	covered, total := b.BuildProgress()
	return b.cfg.Store.ServeTime() + float64(total-covered)*b.cfg.ScanTime
}

// HostsFor implements index.Accessor. Until the build completes a lookup
// has to touch the scan fallback, which no single node can serve
// locally, so placement is unknown; at full coverage the store's
// placement applies.
func (b *Buildable) HostsFor(key string) []sim.NodeID {
	if covered, total := b.BuildProgress(); covered < total {
		return nil
	}
	return b.cfg.Store.HostsFor(key)
}

// BuildProgress implements index.Buildable over the source's splits: a
// registry loaded from a checkpoint of a larger source may count
// coverage past them, which no lookup of this index can use.
func (b *Buildable) BuildProgress() (covered, total int) {
	return b.total - len(b.uncovered()), b.total
}

// IsBuilt implements index.Buildable.
func (b *Buildable) IsBuilt(split int) bool {
	return b.cfg.Registry.IsCovered(b.cfg.Name, split)
}

// ScanServeTime implements index.Buildable.
func (b *Buildable) ScanServeTime() float64 { return b.cfg.ScanTime }

// BuildCharge implements index.Buildable.
func (b *Buildable) BuildCharge() float64 { return b.cfg.BuildTime }

// OfferSplits implements index.Buildable: the ceil(rate*total) lowest
// uncovered splits, ascending. The lowest-first policy keeps coverage a
// prefix when whole-input jobs build, which keeps lookup value order
// aligned with record order.
func (b *Buildable) OfferSplits() []int {
	if b.cfg.OfferRate <= 0 {
		return nil
	}
	n := int(float64(b.total)*b.cfg.OfferRate + 0.999999)
	if n < 1 {
		n = 1
	}
	unc := b.uncovered()
	return slices.Clone(unc[:min(n, len(unc))])
}

// Extract implements index.Buildable.
func (b *Buildable) Extract(key, value string) []index.BuildEntry {
	return b.cfg.Extract(key, value)
}

// Stage implements index.Buildable: records one fully scanned split's
// entries pre-commit, on the node that scanned it.
func (b *Buildable) Stage(node sim.NodeID, split int, entries []index.BuildEntry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.staged[node] = append(b.staged[node], stagedSplit{split, entries})
}

// SnapshotNode implements index.Buildable: marks the node's staged
// splits ahead of a task attempt; the returned rollback drops what the
// node staged since, so a failed or losing-speculative attempt leaves no
// trace. A reset, commit or abandon in between only shortens the list.
func (b *Buildable) SnapshotNode(node sim.NodeID) func() {
	b.mu.Lock()
	mark := len(b.staged[node])
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if list := b.staged[node]; mark < len(list) {
			b.staged[node] = list[:mark]
		}
	}
}

// ResetNode implements index.Buildable: discards everything the node
// has staged (node crash — the splits re-stage when the recovery wave
// re-runs the dead node's tasks).
func (b *Buildable) ResetNode(node sim.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.staged, node)
}

// Commit implements index.Buildable: installs the staged splits into the
// store and registry, each once, in ascending split order, returning how
// many became newly covered. Runs at a serial point between jobs, so
// concurrent lookups never observe a half-committed split.
func (b *Buildable) Commit() int {
	b.mu.Lock()
	var all []stagedSplit
	for _, list := range b.staged {
		all = append(all, list...)
	}
	clear(b.staged)
	b.mu.Unlock()
	// Copies of a split hold equal entries (Extract is deterministic over
	// the same records), so which one installs does not matter.
	slices.SortFunc(all, func(x, y stagedSplit) int { return cmp.Compare(x.split, y.split) })
	built := 0
	for i, st := range all {
		if i > 0 && all[i-1].split == st.split || b.cfg.Registry.IsCovered(b.cfg.Name, st.split) {
			continue
		}
		if b.install(st.split, st.entries) {
			built++
		}
	}
	return built
}

// Abandon implements index.Buildable: discards all staged state without
// committing (the job failed; its scans may be incomplete).
func (b *Buildable) Abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	clear(b.staged)
}

// Materialize re-extracts every registry-covered split into the store.
// A recovered coordinator restores registry coverage from its durable
// checkpoint, but the store behind the index is rebuilt fresh; replaying
// the deterministic Extract over exactly the covered splits reproduces
// the entries the pre-crash commits installed, bit for bit. Splits this
// process already put into the store (a prior Materialize or Commit) are
// skipped, so the call is idempotent. A covered split the source does
// not have (a checkpoint of another file) is an error.
func (b *Buildable) Materialize() error {
	covered, _ := b.cfg.Registry.CoveredSplits(b.cfg.Name)
	b.mu.Lock()
	covered = slices.DeleteFunc(covered, func(s int) bool { return b.resident[s] })
	b.mu.Unlock()
	return b.installAll(covered)
}

// BuildAll scans and commits every uncovered split immediately — the
// offline bulk build an experiment's pre-built leg uses as the
// convergence target.
func (b *Buildable) BuildAll() error { return b.installAll(b.uncovered()) }

// installAll extracts and installs the given splits, in order.
func (b *Buildable) installAll(splits []int) error {
	for _, s := range splits {
		entries, err := b.extract(s)
		if err != nil {
			return err
		}
		b.install(s, entries)
	}
	return nil
}

// install puts one split's entries into the store and marks the split
// built and resident, reporting whether it was newly covered. Its scan
// memo goes: the store serves the split from now on.
func (b *Buildable) install(s int, entries []index.BuildEntry) bool {
	for _, e := range entries {
		b.cfg.Store.Put(e.Key, e.Value)
	}
	built := b.cfg.Registry.MarkBuilt(b.cfg.Name, s)
	b.mu.Lock()
	b.resident[s] = true
	delete(b.scans, s)
	b.mu.Unlock()
	return built
}

// extract reads split s and derives every record's entries, in record
// order.
func (b *Buildable) extract(s int) ([]index.BuildEntry, error) {
	chunks := b.cfg.Source.Chunks
	if s < 0 || s >= len(chunks) {
		return nil, fmt.Errorf("adaptix: index %q: split %d is outside its source's %d chunks", b.cfg.Name, s, len(chunks))
	}
	recs, err := chunks[s].Records()
	if err != nil {
		return nil, err
	}
	var out []index.BuildEntry
	for _, rec := range recs {
		out = append(out, b.cfg.Extract(rec.Key, rec.Value)...)
	}
	return out, nil
}

// uncovered returns the uncovered splits ascending, shared: callers must
// not modify it. The list is rebuilt only when the registry's coverage
// has changed since it was cached, by this index or by anyone else (a
// registry loaded from a checkpoint).
func (b *Buildable) uncovered() []int {
	gen := b.cfg.Registry.gen.Load()
	if c := b.unc.Load(); c != nil && c.gen == gen {
		return c.splits
	}
	splits, gen := b.cfg.Registry.uncovered(b.cfg.Name, b.total)
	b.unc.Store(&coverage{gen: gen, splits: splits})
	return splits
}

// scanOf returns split s's memoized scan map, computing it on first use.
// Computation holds the mutex: parallel lookups of a cold split
// serialize, which costs wall time only (virtual time is charged by the
// cost model, not measured) and keeps the memo deterministic.
func (b *Buildable) scanOf(s int) (map[string][]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if m, ok := b.scans[s]; ok {
		return m, nil
	}
	entries, err := b.extract(s)
	if err != nil {
		return nil, err
	}
	m := make(map[string][]string)
	for _, e := range entries {
		m[e.Key] = append(m[e.Key], e.Value)
	}
	b.scans[s] = m
	return m, nil
}
