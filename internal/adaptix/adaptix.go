// Package adaptix implements adaptive index creation: indices built
// incrementally as a side-effect of running MapReduce jobs, in the image
// of HAIL/LIAH (Dittrich et al.). EFind itself assumes every index
// pre-exists; adaptix closes that gap with a fifth strategy family — a
// job whose map phase scans the input anyway extracts index entries for
// a configurable fraction of its splits (the offer rate), stages them
// per task attempt, and commits them between jobs, so repeated jobs
// converge from scan-cost plans to indexed plans.
//
// The package has two halves. Registry tracks per-index build progress
// (which input splits are covered); the job service's checkpoint makes it
// durable (jobsvc.Durability.Registry). Buildable wraps a kvstore.Store
// plus its source file into an index.Buildable accessor that is usable at
// any coverage: lookups serve covered splits from the store and fall back
// to scanning the uncovered remainder, so results are always exact and
// only the serve time shrinks as coverage grows.
package adaptix

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// progress is one index's build state: how many build units (input
// splits) exist and which are committed.
type progress struct {
	total   int
	covered map[int]bool
}

// Registry tracks per-index build progress. It is shared across jobs —
// jobsvc hands all tenants the same registry so one tenant's builds
// benefit every tenant's planner — and is safe for concurrent use. All
// mutation happens at serial points (Buildable.Commit between jobs), so
// a running job observes frozen coverage.
type Registry struct {
	mu      sync.Mutex
	indices map[string]*progress
	// gen counts coverage changes (under mu): a Buildable's cached list
	// of uncovered splits is good while gen has not moved.
	gen atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{indices: make(map[string]*progress)}
}

// Register declares an index with the given number of build units. It is
// idempotent: re-registering keeps existing coverage, so coverage
// recovered from a checkpoint survives accessor reconstruction. Growing
// the total (the source file gained chunks) is accepted; shrinking is
// ignored.
func (r *Registry) Register(name string, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.indices[name]
	if !ok {
		r.indices[name] = &progress{total: total, covered: make(map[int]bool)}
		r.gen.Add(1)
		return
	}
	if total > p.total {
		p.total = total
		r.gen.Add(1)
	}
}

// IsCovered reports whether one build unit is committed.
func (r *Registry) IsCovered(name string, split int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.indices[name]
	return ok && p.covered[split]
}

// MarkBuilt commits one build unit, reporting whether it was newly
// covered (idempotent: duplicate marks return false). Splits outside
// [0, total) are rejected — a corrupted persisted registry must not
// inflate completeness.
func (r *Registry) MarkBuilt(name string, split int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.indices[name]
	if !ok || split < 0 || split >= p.total || p.covered[split] {
		return false
	}
	p.covered[split] = true
	r.gen.Add(1)
	return true
}

// uncovered returns the index's uncovered splits among the first total,
// ascending, and the generation they were read at.
func (r *Registry) uncovered(name string, total int) ([]int, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.indices[name]
	out := make([]int, 0, total)
	for s := 0; s < total; s++ {
		if p == nil || !p.covered[s] {
			out = append(out, s)
		}
	}
	return out, r.gen.Load()
}

// CoveredSplits returns the committed build units in ascending order and
// the index's total build units. Unknown indices report (nil, 0).
func (r *Registry) CoveredSplits(name string) (splits []int, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.indices[name]
	if !ok {
		return nil, 0
	}
	splits = make([]int, 0, len(p.covered))
	for s := range p.covered {
		splits = append(splits, s)
	}
	sort.Ints(splits)
	return splits, p.total
}

// Names returns the registered index names in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.indices))
	for n := range r.indices {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Fingerprint renders the whole registry as one deterministic string —
// the bit-identity tests compare it across serial and parallel
// executors, so it iterates everything in sorted order.
func (r *Registry) Fingerprint() string {
	var b strings.Builder
	for _, name := range r.Names() {
		covered, total := r.CoveredSplits(name)
		fmt.Fprintf(&b, "%s total=%d covered=%v\n", name, total, covered)
	}
	return b.String()
}
