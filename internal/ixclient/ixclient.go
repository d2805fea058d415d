// Package ixclient is the index access path of the EFind runtime: a
// Client wraps any index.Accessor so the executor's strategy logic only
// ever asks "values for this key, please", and every cross-cutting
// concern runs in one place, in one fixed order, on every access:
//
//   - span: an index-lookup trace span around the whole access when the
//     task is traced (internal/obs); free when tracing is off;
//   - cache: the paper's per-node LRU lookup cache (§3.2), real for the
//     lookup-cache strategy and key-only shadow for the baseline's
//     R-measurement, including the per-attempt snapshot/rollback the
//     engine's fault tolerance needs (skipped by Access);
//   - policy: the error policy — count-and-continue (paper-faithful) or
//     fail the job with the index name and lookup key — over the retry
//     ladder: capped exponential backoff with deterministic seeded jitter
//     for transient index errors;
//   - availability: the chaos plan's index partition outages — a down
//     partition fails the attempt with a transient error before anything
//     is charged;
//   - accessor and accounting: the index itself, then the serve-time
//     charge T_j, network transfer charges and the lookup/miss/error
//     counters. The Nik/Sik/FM-sketch statistics the optimizer consumes
//     are counted by the stages through the same view (CountKey,
//     CountValues).
//
// The steps are plain methods of the per-task view (access.go). Every key
// is charged and counted as its own request, as the paper's cost model
// prices it. The one exception is Client.LookupBatch with Options.Batch
// on, a multi-get charged one round trip per partition: it exists only
// for bench's ixclient.batch_ns_per_key and kvstore.batch_lookup_ns_per_key
// rows and goes with them (ROADMAP 3(f)).
package ixclient

import (
	"errors"
	"fmt"
	"sync/atomic"

	"efind/internal/chaos"
	"efind/internal/index"
	"efind/internal/lru"
	"efind/internal/mapreduce"
	"efind/internal/sim"
	"efind/internal/sketch"
)

// CacheMode selects how the client's Lookup path uses the per-node cache.
type CacheMode int

// Cache modes.
const (
	// CacheOff bypasses the cache entirely (shuffle-strategy group
	// lookups are already deduplicated by the shuffle).
	CacheOff CacheMode = iota
	// CacheShadow probes a key-only shadow cache to measure the miss
	// ratio R without the cache being active (§4.2's "simple version of
	// the lookup cache"), then always performs the real lookup.
	CacheShadow
	// CacheReal serves hits from the per-node LRU cache and performs the
	// real lookup only on misses (the lookup-cache strategy, §3.2).
	CacheReal
)

// ErrorPolicy decides what an index error does to the running job.
type ErrorPolicy int

// Error policies.
const (
	// ErrorCount charges the failed access, bumps the per-index error
	// counter, and yields an empty result — the paper's behaviour:
	// indices are black boxes and EFind cannot retry more sensibly.
	ErrorCount ErrorPolicy = iota
	// ErrorFailJob aborts the running task — and with it the job — on
	// the first index error, reporting the index name and lookup key.
	ErrorFailJob
)

// RetryPolicy configures the retry ladder. The zero value disables it.
type RetryPolicy struct {
	// Max is the number of re-attempts after the first failed access.
	Max int
	// Backoff is the virtual time charged before the first re-attempt.
	Backoff float64
	// Factor multiplies the backoff between attempts (0 = 2).
	Factor float64
	// Cap bounds a single backoff wait (0 = uncapped). Without a cap,
	// long retry ladders against a dead partition grow exponentially past
	// any outage window instead of polling it at a steady cadence.
	Cap float64
	// Jitter spreads each wait by a deterministic seeded factor in
	// [1-Jitter, 1+Jitter], keyed by lookup key and attempt. Fixed-delay
	// retries make synchronized retry storms against a recovering
	// partition; jittered ones desynchronize while staying bit-identical
	// run to run (0 = no jitter).
	Jitter float64
	// Seed drives the jitter draws.
	Seed int64
}

// Options configures a Client.
type Options struct {
	// Op is the operator name for counter namespacing.
	Op string
	// CacheMode selects the Lookup path's cache behaviour.
	CacheMode CacheMode
	// CacheCapacity bounds each per-node cache (0 = 1024, the paper's).
	CacheCapacity int
	// ErrorPolicy decides what index errors do to the job.
	ErrorPolicy ErrorPolicy
	// Retry configures transient-error retries.
	Retry RetryPolicy
	// Batch enables LookupBatch's multi-get: cache misses travel as one
	// request, resolved by the accessor's BatchLookup when it has one,
	// charged one network round trip per remote partition group instead
	// of one per remote key. Only bench's two batch probe rows set it; it
	// goes with them (ROADMAP 3(f)).
	Batch bool
	// Chaos, when set and carrying outages, turns on the availability
	// check: an access whose key falls in a partition inside an outage
	// window fails with chaos.ErrUnavailable (transient, so the retry
	// ladder polls for recovery) before any serve or network charge.
	Chaos *chaos.Plan
	// SharedCache attaches the client to a cross-job cache pool: with
	// CacheReal, real hits are served from the pool's per-(index, node)
	// caches — shared with every other pooled client, warm across jobs —
	// while the probe/miss counters feeding the optimizer's R come from a
	// private per-job shadow cache, so each job still measures the miss
	// ratio it would see running alone. Nil keeps the caches private to
	// the client (the one-shot path).
	SharedCache *Pool
}

// DefaultCacheCapacity is the paper's lookup cache size (1024 entries).
const DefaultCacheCapacity = 1024

// IndexError reports a failed index access under ErrorFailJob.
type IndexError struct {
	Op, Index, Key string
	Err            error
}

func (e *IndexError) Error() string {
	return fmt.Sprintf("efind: operator %q index %q: lookup key %q: %v", e.Op, e.Index, e.Key, e.Err)
}

func (e *IndexError) Unwrap() error { return e.Err }

// lookupError carries the failing key up to the entry points so the
// job-failure report can name it.
type lookupError struct {
	key string
	err error
}

func (e *lookupError) Error() string { return fmt.Sprintf("key %q: %v", e.key, e.err) }
func (e *lookupError) Unwrap() error { return e.err }

// Client is the cached, retrying, accounted view of one index from one
// operator decision. It is safe for concurrent use: tasks of
// different nodes run on real goroutines, the per-node caches live in
// Pools, which lock, and the counter slots are swapped atomically.
type Client struct {
	acc    index.Accessor
	multi  multiGetter   // nil when the accessor has no multi-get
	scheme *index.Scheme // nil when the accessor is not partitioned
	opts   Options

	// Built once: the index name, the FM sketch name, the span name, the
	// retry ladder's backoff, and the outage plan (nil when it has no
	// outages).
	ix      string
	skKeys  string
	span    string
	backoff chaos.Backoff
	outages *chaos.Plan

	// The per-node caches, nil under CacheOff. real serves CacheReal hits:
	// Options.SharedCache or a Pool private to the client. shadow, always
	// private, measures R key-only for CacheShadow and pooled CacheReal.
	real, shadow *Pool

	// slots are the client's counters in the table of the engine its tasks
	// run on (Resolve).
	slots atomic.Pointer[clientSlots]
}

// multiGetter is an accessor's multi-get: one request resolves many keys,
// results aligned with them (kvstore.Store.BatchLookup).
type multiGetter interface {
	BatchLookup(keys []string) ([][]string, error)
}

// clientSlots are a client's counters as slots of one table.
type clientSlots struct {
	table *mapreduce.CounterTable
	s     [numCounters]mapreduce.Slot
}

// New wraps an accessor with the access path configured by opts.
func New(acc index.Accessor, opts Options) *Client {
	if opts.CacheCapacity <= 0 {
		opts.CacheCapacity = DefaultCacheCapacity
	}
	ix := acc.Name()
	r := opts.Retry
	c := &Client{
		acc:     acc,
		opts:    opts,
		ix:      ix,
		skKeys:  SkKeys(opts.Op, ix),
		span:    "lookup " + opts.Op + "/" + ix,
		backoff: chaos.Backoff{Base: r.Backoff, Factor: r.Factor, Cap: r.Cap, Jitter: r.Jitter, Seed: r.Seed},
	}
	c.multi, _ = acc.(multiGetter)
	if p, ok := acc.(index.Partitioned); ok {
		c.scheme = p.Scheme()
	}
	if opts.Chaos != nil && opts.Chaos.HasOutages() {
		c.outages = opts.Chaos
	}
	switch {
	case opts.CacheMode == CacheOff:
	case opts.CacheMode == CacheShadow:
		c.shadow = NewPool(opts.CacheCapacity)
	case opts.SharedCache != nil:
		c.real, c.shadow = opts.SharedCache, NewPool(opts.CacheCapacity)
	default:
		c.real = NewPool(opts.CacheCapacity)
	}
	return c
}

// private is the client's own Pool: shadow if set, else real.
func (c *Client) private() *Pool {
	if c.shadow != nil {
		return c.shadow
	}
	return c.real
}

// Resolve gives the client's counters their slots in tab, the table of the
// engine whose tasks bind it (the EFind runtime's plan compiler calls it).
func (c *Client) Resolve(tab *mapreduce.CounterTable) { c.slotsIn(tab) }

func (c *Client) slotsIn(tab *mapreduce.CounterTable) *clientSlots {
	if r := c.slots.Load(); r != nil && r.table == tab {
		return r
	}
	op, ix, r := c.opts.Op, c.ix, &clientSlots{table: tab}
	for i, name := range [numCounters]string{
		cKeys: CtrKeys(op, ix), cKeyBytes: CtrKeyBytes(op, ix), cValBytes: CtrValBytes(op, ix),
		cLookups: CtrLookups(op, ix), cServeNS: CtrServeNS(op, ix), cNetRoundTrips: CtrNetRoundTrips(op, ix),
		cProbes: CtrProbes(op, ix), cMisses: CtrMisses(op, ix), cErrors: CtrErrors(op, ix),
		cRetries: CtrRetries(op, ix), cUnavailable: chaos.CtrUnavailable,
	} {
		r.s[i] = tab.Slot(name)
	}
	c.slots.Store(r)
	return r
}

// Bound is a Client bound to one task: the per-task view a stage takes
// when it first opens (Client.Bind), rebinds to each later task it opens
// for (Rebind), and looks keys up through. It holds what is constant for
// the task — the counters' slots, each bound on the task on first use, so
// a counter exists iff it was counted, the FM sketch, and the node's
// caches, each looked up in its pool on first use (a crash drops them
// only once the phase is scheduled, JobRun.crash) — and the scratch a
// single-key access needs (its one-key list, the one-slot results and
// miss lists), so a cache hit allocates nothing and a miss only what the
// cache insert needs.
//
// A view belongs to one task at a time: tasks of one worker are
// serialized but tasks of different workers run on real goroutines, so
// scratch lives here and never on the shared Client. The slices Lookup and
// Access return are the accessor's (or the cache's) value lists and may be
// kept; only the one-slot containers around them are reused.
type Bound struct {
	c     *Client
	t     *mapreduce.TaskContext
	slots *clientSlots
	fm    *sketch.FM

	real, shadow *lru.Cache // nil until the task's first cached access

	key, missKey  [1]string
	res, fetchRes [1][]string
	missIdx       [1]int
}

// Bind returns the client's view for one task.
func (c *Client) Bind(t *mapreduce.TaskContext) *Bound {
	return &Bound{c: c, t: t, slots: c.slotsIn(t.CounterTable())}
}

// Rebind points the view at another task, as Bind would for it: a stage
// reopened for its frame's next task keeps its views instead of building
// new ones. The sketch handle and the caches are the task's node's, so
// they are fetched anew.
func (b *Bound) Rebind(t *mapreduce.TaskContext) {
	b.t, b.slots, b.fm = t, b.c.slotsIn(t.CounterTable()), nil
	b.real, b.shadow = nil, nil
}

// cache returns the task's node's cache in pool p, which *held keeps
// from the task's first look on.
func (b *Bound) cache(p *Pool, held **lru.Cache) *lru.Cache {
	if *held == nil {
		*held = p.cacheFor(b.c.ix, b.t.Node)
	}
	return *held
}

// add counts delta on counter i, binding it on the task on first use.
func (b *Bound) add(i int, delta int64) { b.t.Cell(b.slots.s[i]).Add(delta) }

// single runs a one-key request on the view's one-key list.
func (b *Bound) single(key string, cacheable bool) []string {
	b.key[0] = key
	vals, err := b.access(b.key[:], cacheable, false)
	if err != nil {
		b.c.abort(b.t, err, key)
	}
	return vals[0]
}

// Lookup resolves one key through the whole access path, the cache per
// the client's CacheMode included.
func (b *Bound) Lookup(key string) []string { return b.single(key, true) }

// Access resolves one key bypassing the cache — the shuffle strategies'
// group lookups are already deduplicated, so caching them would
// double-count the redundancy the shuffle removed.
func (b *Bound) Access(key string) []string { return b.single(key, false) }

// CountKey records the per-key statistics (Nik, Sik, the FM sketch) for
// one extracted lookup key occurrence.
func (b *Bound) CountKey(key string) {
	b.add(cKeys, 1)
	b.add(cKeyBytes, int64(len(key)))
	if b.fm == nil {
		b.fm = b.t.Sketch(b.c.skKeys, FMWidth)
	}
	b.fm.Add(key)
}

// CountValues records Siv for one key occurrence once its values are
// known (from the index, the cache, or a shuffle-attached result).
func (b *Bound) CountValues(values []string) {
	b.add(cValBytes, int64(valueBytes(values)))
}

// Lookup and Access on the Client are the same operations for callers
// outside a stage, which have no task-long view to keep: each binds a
// throwaway one.

// Lookup is Bind(t).Lookup(key).
func (c *Client) Lookup(t *mapreduce.TaskContext, key string) []string { return c.Bind(t).Lookup(key) }

// Access is Bind(t).Access(key).
func (c *Client) Access(t *mapreduce.TaskContext, key string) []string { return c.Bind(t).Access(key) }

// LookupBatch resolves many keys. With Options.Batch off (or an accessor
// without a multi-get) it is per-key Lookup calls, charged identically to
// them; with it on, cache misses travel as one request and remote
// partitions are charged one round trip each. The returned list is the
// caller's to keep. No stage calls it: it exists only for bench's
// ixclient.batch_ns_per_key row and goes with it (ROADMAP 3(f)).
func (c *Client) LookupBatch(t *mapreduce.TaskContext, keys []string) [][]string {
	if len(keys) == 0 {
		return nil
	}
	b := c.Bind(t)
	if !c.opts.Batch || c.multi == nil {
		out := make([][]string, len(keys))
		for i, k := range keys {
			out[i] = b.Lookup(k)
		}
		return out
	}
	vals, err := b.access(keys, true, true)
	if err != nil {
		c.abort(t, err, keys[0])
	}
	return vals
}

// abort fails the running task under ErrorFailJob. ErrorCount errors
// never reach here — resolve swallows them.
func (c *Client) abort(t *mapreduce.TaskContext, err error, fallbackKey string) {
	key := fallbackKey
	var le *lookupError
	if errors.As(err, &le) {
		key = le.key
		err = le.err
	}
	t.Abort(&IndexError{Op: c.opts.Op, Index: c.ix, Key: key, Err: err})
}

// SnapshotNode guards the client's private caches on one node and returns
// a rollback that rewinds them (Pool.SnapshotNode). The engine's fault
// tolerance uses it so a failed task attempt does not leave the node's
// shared caches warmed — which would skew the measured miss ratio R the
// cost model consumes. Pooled caches (Options.SharedCache) are NOT guarded
// here — they are shared across clients, so the plan-level guard copies
// them once via the pool's own SnapshotNode.
func (c *Client) SnapshotNode(node sim.NodeID) func() {
	if p := c.private(); p != nil {
		return p.SnapshotNode(node)
	}
	return func() {}
}

// ResetNode drops the client's private caches on one node. The engine's
// chaos machinery calls it when the node crashes: a rebooted TaskTracker
// restarts with cold per-machine lookup caches, real and shadow alike.
func (c *Client) ResetNode(node sim.NodeID) {
	if p := c.private(); p != nil {
		p.ResetNode(node)
	}
}

// valueBytes sizes a lookup result the way the wire format would.
func valueBytes(values []string) int {
	n := 0
	for _, v := range values {
		n += len(v) + 4
	}
	return n
}
