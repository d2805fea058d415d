// Package ixclient is the index access path of the EFind runtime: a
// Client wraps any index.Accessor with a stack of composable middleware
// so the executor's strategy logic only ever asks "values for this key,
// please" and every cross-cutting concern lives in exactly one place:
//
//   - cache: the paper's per-node LRU lookup cache (§3.2), real for the
//     lookup-cache strategy and key-only shadow for the baseline's
//     R-measurement, including the per-attempt snapshot/rollback the
//     engine's fault tolerance needs;
//   - policy: the error policy — count-and-continue (paper-faithful) or
//     fail the job with the index name and lookup key;
//   - retry: capped exponential backoff with deterministic seeded jitter
//     for transient index errors, plus an optional client-side deadline;
//   - availability: the chaos plan's index partition outages — a down
//     partition fails the access with a transient error before anything
//     is charged (absent when the plan has no outages);
//   - accounting: the serve-time charge T_j, network transfer charges,
//     lookup/probe/miss/error counters, and the Nik/Sik/FM-sketch
//     statistics the optimizer consumes;
//   - terminal: the accessor itself, with a multi-get fast path for
//     BatchAccessor indices when batching is enabled.
//
// An outermost spans stage additionally records an index-lookup trace
// span per access when the task is traced (internal/obs); it is free
// when tracing is off.
//
// The stack is assembled once per (operator decision, index) pair. With
// batching off, the chain charges and counts bit-identically to the
// pre-refactor executor; batching is the one deliberate cost deviation
// (see DESIGN.md, "Index client pipeline").
package ixclient

import (
	"errors"
	"fmt"
	"sync"

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

// RetryPolicy configures the retry middleware. The zero value disables
// retries and the deadline, which keeps the chain bit-identical to the
// pre-middleware executor.
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
	// Timeout is a client-side deadline: an index whose serve time
	// exceeds it has the access abandoned after Timeout virtual seconds
	// and surfaces a transient error (0 = no deadline).
	Timeout float64
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
	// Retry configures transient-error retries and the deadline.
	Retry RetryPolicy
	// Batch enables the multi-get fast path: LookupBatch forwards cache
	// misses as one request, resolved via BatchAccessor when the index
	// implements it, charged one network round trip per remote partition
	// group instead of one per remote key.
	Batch bool
	// Chaos, when set and carrying outages, inserts the availability
	// middleware: an access whose key falls in a partition inside an
	// outage window fails with chaos.ErrUnavailable (transient, so the
	// retry ladder polls for recovery) before any serve or network charge.
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

// Request is one index access travelling through the middleware chain.
type Request struct {
	// Task is the executing task's context; charges and counters land on
	// it, and Task.Node keys the per-node caches.
	Task *mapreduce.TaskContext
	// Keys are the lookup keys. Single lookups are 1-element requests.
	Keys []string
	// Batched marks the request as eligible for the multi-get fast path.
	Batched bool

	// view is the per-task bound view the request travels on: the
	// client's own middleware counts through its cells and borrows its
	// scratch. Every Client entry point sets it.
	view *Bound
}

// Handler resolves a request to one value list per key.
type Handler func(*Request) ([][]string, error)

// Middleware wraps a handler with one orthogonal concern.
type Middleware func(Handler) Handler

// Chain wraps h in the given middleware, first element innermost.
func Chain(h Handler, mw ...Middleware) Handler {
	for _, m := range mw {
		h = m(h)
	}
	return h
}

// IndexError reports a failed index access under ErrorFailJob.
type IndexError struct {
	Op, Index, Key string
	Err            error
}

func (e *IndexError) Error() string {
	return fmt.Sprintf("efind: operator %q index %q: lookup key %q: %v", e.Op, e.Index, e.Key, e.Err)
}

func (e *IndexError) Unwrap() error { return e.Err }

// ErrTimeout marks a lookup abandoned at the client-side deadline. It is
// transient: retrying against a replica or a recovered index could
// succeed, so the retry middleware re-attempts it.
var ErrTimeout = fmt.Errorf("lookup deadline exceeded: %w", index.ErrTransient)

// lookupError carries the failing key up the chain so the job-failure
// report can name it.
type lookupError struct {
	key string
	err error
}

func (e *lookupError) Error() string { return fmt.Sprintf("key %q: %v", e.key, e.err) }
func (e *lookupError) Unwrap() error { return e.err }

// Client is the batched, cached, retrying, accounted view of one index
// from one operator decision. It is safe for concurrent use: tasks of
// different nodes run on real goroutines, and all mutable state (the
// per-node caches) is guarded.
type Client struct {
	acc     index.Accessor
	batcher index.BatchAccessor // nil when the accessor has no multi-get
	prober  index.Prober        // nil when the accessor has no index-only probe
	scheme  *index.Scheme       // nil when the accessor is not partitioned
	opts    Options

	// Built once: the counter names, the FM sketch name.
	names  [numCounters]string
	skKeys string

	inline Handler // cache → policy → retry → accounting → terminal
	direct Handler // the same chain without the cache stage

	mu     sync.Mutex
	real   map[sim.NodeID]*lru.Cache
	shadow map[sim.NodeID]*lru.Cache
}

// New wraps an accessor with the middleware stack configured by opts.
func New(acc index.Accessor, opts Options) *Client {
	if opts.CacheCapacity <= 0 {
		opts.CacheCapacity = DefaultCacheCapacity
	}
	c := &Client{
		acc:    acc,
		opts:   opts,
		real:   make(map[sim.NodeID]*lru.Cache),
		shadow: make(map[sim.NodeID]*lru.Cache),
		names:  counterNames(opts.Op, acc.Name()),
		skKeys: SkKeys(opts.Op, acc.Name()),
	}
	if b, ok := acc.(index.BatchAccessor); ok {
		c.batcher = b
	}
	if p, ok := acc.(index.Prober); ok {
		c.prober = p
	}
	if p, ok := acc.(index.Partitioned); ok {
		c.scheme = p.Scheme()
	}
	inner := Chain(c.terminal, c.accounting, c.availability, c.retry, c.policy)
	c.direct = Chain(inner, c.spans)
	c.inline = c.direct
	if opts.CacheMode != CacheOff {
		c.inline = Chain(inner, c.cache, c.spans)
	}
	return c
}

// Accessor returns the wrapped index.
func (c *Client) Accessor() index.Accessor { return c.acc }

// Bound is a Client bound to one task: the per-task view a stage takes
// when it opens (Client.Bind) and then looks keys up through. It holds
// what is constant for the task — the counter cells and the FM sketch,
// each resolved on first use, so a counter exists iff it was counted —
// and the scratch a single-key access needs (the request, its one-key
// list, the one-slot results and miss lists), so a cache hit allocates
// nothing and a miss only what the cache insert needs.
//
// A view belongs to its task: tasks of one node are serialized but tasks
// of different nodes run on real goroutines, so scratch lives here and
// never on the shared Client. The slices Lookup and Access return are the
// accessor's (or the cache's) value lists and may be kept; only the
// one-slot containers around them are reused.
type Bound struct {
	c     *Client
	t     *mapreduce.TaskContext
	cells [numCounters]*mapreduce.Cell
	fm    *sketch.FM

	req, missReq Request
	key, missKey [1]string
	res, termRes [1][]string
	missIdx      [1]int
}

// Bind returns the client's view for one task.
func (c *Client) Bind(t *mapreduce.TaskContext) *Bound {
	b := &Bound{c: c, t: t}
	b.req = Request{Task: t, view: b}
	b.missReq = Request{Task: t, view: b}
	return b
}

// add counts delta on counter i, resolving its cell on first use.
func (b *Bound) add(i int, delta int64) {
	cell := b.cells[i]
	if cell == nil {
		cell = b.t.Cell(b.c.names[i])
		b.cells[i] = cell
	}
	cell.Add(delta)
}

// results returns the request's result list: fresh, except for the
// single-key entry points, which get the given one-slot scratch — they
// hand their caller the value list inside, never the container. Batched
// requests always get a fresh list, because LookupBatch's caller keeps it.
func (r *Request) results(scratch *[1][]string) [][]string {
	if len(r.Keys) == 1 && !r.Batched {
		scratch[0] = nil
		return scratch[:]
	}
	return make([][]string, len(r.Keys))
}

// single runs a one-key request through h on the view's reusable request.
func (b *Bound) single(h Handler, key string) []string {
	b.key[0] = key
	b.req.Keys, b.req.Batched = b.key[:], false
	vals, err := h(&b.req)
	if err != nil {
		b.c.abort(b.t, err, key)
	}
	return vals[0]
}

// Lookup resolves one key through the full stack (cache per the client's
// CacheMode, then retry, accounting, and the index itself).
func (b *Bound) Lookup(key string) []string { return b.single(b.c.inline, key) }

// Access resolves one key bypassing the cache stage — the shuffle
// strategies' group lookups are already deduplicated, so caching them
// would double-count the redundancy the shuffle removed.
func (b *Bound) Access(key string) []string { return b.single(b.c.direct, key) }

// LookupBatch resolves many keys. With batching off (or an index without
// a multi-get) it degenerates to per-key Lookup calls and is charged
// identically to them; with batching on, cache misses travel as one
// request and remote partitions are charged one round trip each. The
// returned list is the caller's to keep.
func (b *Bound) LookupBatch(keys []string) [][]string {
	if len(keys) == 0 {
		return nil
	}
	c := b.c
	if !c.opts.Batch || c.batcher == nil {
		out := make([][]string, len(keys))
		for i, k := range keys {
			out[i] = b.Lookup(k)
		}
		return out
	}
	b.req.Keys, b.req.Batched = keys, true
	vals, err := c.inline(&b.req)
	if err != nil {
		c.abort(b.t, err, keys[0])
	}
	return vals
}

// Probe answers "is key present, and how many value bytes would a
// lookup materialize?" without materializing values. It is charged like
// a lookup — serve time T_j and, for remote keys, one round trip whose
// payload is the key plus a fixed presence+size answer — but the result
// transfer (and result decode) never happens, which is what makes
// index-only filtering cheaper than lookup-then-discard. Indices without
// an index-only path fall back to a full direct access.
func (b *Bound) Probe(key string) (found bool, valueBytes int) {
	c, t := b.c, b.t
	if c.prober == nil {
		vals := b.Access(key)
		n := 0
		for _, v := range vals {
			n += len(v)
		}
		return len(vals) > 0, n
	}
	serve := c.acc.ServeTime()
	t.Charge(serve)
	b.add(cServeNS, int64(serve*1e9))
	b.add(cIndexProbes, 1)
	found, bytes, err := c.prober.Probe(key)
	if err != nil {
		b.add(cErrors, 1)
		if c.opts.ErrorPolicy == ErrorFailJob {
			c.abort(t, err, key)
		}
		return false, 0
	}
	hosts := c.acc.HostsFor(key)
	if hosts == nil || !sim.ContainsNode(hosts, t.Node) {
		// The answer is presence plus a size — a fixed 8-byte reply.
		t.ChargeNet(float64(len(key) + 4 + 8))
		b.add(cNetRoundTrips, 1)
	}
	return found, bytes
}

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

// Lookup, Access, LookupBatch and Probe on the Client are the same
// operations for callers outside a stage, which have no task-long view to
// keep: each binds a throwaway one.

// Lookup is Bind(t).Lookup(key).
func (c *Client) Lookup(t *mapreduce.TaskContext, key string) []string { return c.Bind(t).Lookup(key) }

// Access is Bind(t).Access(key).
func (c *Client) Access(t *mapreduce.TaskContext, key string) []string { return c.Bind(t).Access(key) }

// LookupBatch is Bind(t).LookupBatch(keys).
func (c *Client) LookupBatch(t *mapreduce.TaskContext, keys []string) [][]string {
	return c.Bind(t).LookupBatch(keys)
}

// Probe is Bind(t).Probe(key).
func (c *Client) Probe(t *mapreduce.TaskContext, key string) (found bool, valueBytes int) {
	return c.Bind(t).Probe(key)
}

// abort fails the running task under ErrorFailJob. ErrorCount errors
// never reach here — the policy stage swallows them.
func (c *Client) abort(t *mapreduce.TaskContext, err error, fallbackKey string) {
	key := fallbackKey
	var le *lookupError
	if errors.As(err, &le) {
		key = le.key
		err = le.err
	}
	t.Abort(&IndexError{Op: c.opts.Op, Index: c.acc.Name(), Key: key, Err: err})
}

// cacheFor returns the node's cache (real or shadow), creating it lazily.
// The cache is shared by all tasks on the node, matching the paper's
// per-machine lookup cache.
func (c *Client) cacheFor(node sim.NodeID, shadow bool) *lru.Cache {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.real
	if shadow {
		m = c.shadow
	}
	cc, ok := m[node]
	if !ok {
		cc = lru.New(c.opts.CacheCapacity)
		m[node] = cc
	}
	return cc
}

// SnapshotNode guards the client's cache state on one node and returns a
// rollback that rewinds it, resetting any cache the node created after
// the snapshot. The engine's fault tolerance uses it so a failed task
// attempt does not leave the node's shared caches warmed — which would
// skew the measured miss ratio R the cost model consumes.
//
// The guard is journal-based (lru.Cache.Begin): O(1) at snapshot time
// plus O(cache operations during the attempt) at rollback, instead of
// copying every cache entry eagerly — the difference between guarding
// 1024-entry caches across 10k nodes and not affording it (see
// BenchmarkSnapshotNode10kNodes). A guard that is never rolled back costs
// nothing further: the next attempt's Begin on the same cache supersedes
// its journal. Pooled caches (Options.SharedCache) are NOT guarded here —
// they are shared across clients, so the plan-level guard journals them
// exactly once via Pool.SnapshotNode.
func (c *Client) SnapshotNode(node sim.NodeID) func() {
	c.mu.Lock()
	var caches []*lru.Cache
	var undos []*lru.Undo
	for _, m := range []map[sim.NodeID]*lru.Cache{c.real, c.shadow} {
		if cc, ok := m[node]; ok {
			caches = append(caches, cc)
			undos = append(undos, cc.Begin())
		}
	}
	c.mu.Unlock()
	return func() {
		for _, u := range undos {
			u.Rollback()
		}
		known := make(map[*lru.Cache]bool, len(caches))
		for _, cc := range caches {
			known[cc] = true
		}
		c.mu.Lock()
		for _, m := range []map[sim.NodeID]*lru.Cache{c.real, c.shadow} {
			if cc, ok := m[node]; ok && !known[cc] {
				cc.Reset()
			}
		}
		c.mu.Unlock()
	}
}

// ResetNode drops the client's caches on one node. The engine's chaos
// machinery calls it when the node crashes: a rebooted TaskTracker
// restarts with cold per-machine lookup caches, real and shadow alike.
func (c *Client) ResetNode(node sim.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.real, node)
	delete(c.shadow, node)
}

// valueBytes sizes a lookup result the way the wire format would.
func valueBytes(values []string) int {
	n := 0
	for _, v := range values {
		n += len(v) + 4
	}
	return n
}
