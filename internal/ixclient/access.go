package ixclient

import (
	"errors"

	"efind/internal/chaos"
	"efind/internal/index"
	"efind/internal/lru"
	"efind/internal/sim"
)

// access is one request's whole path: an index-lookup span around the
// cache step (when the request is cacheable and the client caches) and
// resolve. The span shows where a task waits on index serving — cache
// probes, backoff waits and serve time all land inside it; with tracing
// off, StartSpan returns the zero region and costs one branch.
func (b *Bound) access(keys []string, cacheable, batched bool) ([][]string, error) {
	sp := b.t.StartSpan(b.c.span, "index")
	var vals [][]string
	var err error
	switch mode := b.c.opts.CacheMode; {
	case !cacheable || mode == CacheOff:
		vals, err = b.resolve(keys, batched)
	case mode == CacheShadow:
		shadow := b.c.shadow.cacheFor(b.c.ix, b.t.Node)
		for _, k := range keys {
			b.probeShadow(shadow, k)
		}
		vals, err = b.resolve(keys, batched)
	default:
		vals, err = b.cached(keys, batched)
	}
	sp.End()
	return vals, err
}

// cached is the CacheReal step: hits are served locally and only the
// misses are resolved, as one request. Results that come back without
// error are cached — including the empty results the error policy
// substitutes for counted errors, so a counted failure is not retried
// by the next lookup of its key.
//
// With a pooled real cache the hits come from the cross-job shared
// cache, but the probe/miss counters the optimizer turns into R come from
// the client's own key-only shadow replaying the same stream — an LRU
// over keys promotes and evicts identically whether or not values are
// attached, so the shadow's miss sequence is exactly what a private real
// cache would measure.
func (b *Bound) cached(keys []string, batched bool) ([][]string, error) {
	c, t := b.c, b.t
	cache := c.real.cacheFor(c.ix, t.Node)
	var shadow *lru.Cache
	if c.shadow != nil {
		shadow = c.shadow.cacheFor(c.ix, t.Node)
	}
	probeTime := t.Cluster().Config().CacheProbeTime
	out := results(keys, batched, &b.res)
	missIdx, missKeys := b.missIdx[:0], b.missKey[:0]
	for i, k := range keys {
		t.Charge(probeTime)
		hit, ok := cache.Get(k)
		if shadow != nil {
			b.probeShadow(shadow, k)
		} else {
			b.add(cProbes, 1)
			if !ok {
				b.add(cMisses, 1)
			}
		}
		if ok {
			out[i] = hit
		} else {
			missIdx, missKeys = append(missIdx, i), append(missKeys, k)
		}
	}
	if len(missIdx) == 0 {
		return out, nil
	}
	// The cache keeps the accessor's value list, never a scratch container.
	vals, err := b.resolve(missKeys, batched)
	if err != nil {
		return out, err
	}
	for j, i := range missIdx {
		out[i] = vals[j]
		cache.Put(missKeys[j], vals[j])
	}
	return out, nil
}

// probeShadow replays one key on a key-only shadow cache, counting the
// probe and, when the key is new to it, the miss.
func (b *Bound) probeShadow(shadow *lru.Cache, k string) {
	b.add(cProbes, 1)
	if _, ok := shadow.Get(k); !ok {
		b.add(cMisses, 1)
		shadow.Put(k, nil)
	}
}

// resolve applies the error policy to the retry ladder's outcome: the
// error counter ticks once per failed request, not per attempt.
// ErrorCount then swallows the error, substituting empty results so the
// cache step and postProcess see a normal lookup that found nothing — the
// paper-faithful behaviour. ErrorFailJob returns the error to the entry
// points, which abort the task.
//
// The ladder re-attempts transient failures with capped exponential
// backoff and deterministic seeded jitter, charged as virtual time. Only
// errors marked transient (index.ErrTransient: an outage window, a
// flaky index) are retried; a deterministic logic error would fail
// identically every attempt. The backoff charge advances Task.Now, so an
// outage whose window ends inside the retry budget is survived.
func (b *Bound) resolve(keys []string, batched bool) ([][]string, error) {
	c := b.c
	vals, err := b.attempt(keys, batched)
	for n := 0; n < c.opts.Retry.Max && err != nil && errors.Is(err, index.ErrTransient); n++ {
		if w := c.backoff.Wait(keys[0], n); w > 0 {
			b.t.Charge(w)
		}
		b.add(cRetries, 1)
		vals, err = b.attempt(keys, batched)
	}
	if err != nil {
		b.add(cErrors, 1)
		if c.opts.ErrorPolicy == ErrorCount {
			if vals == nil {
				vals = make([][]string, len(keys))
			}
			return vals, nil
		}
	}
	return vals, err
}

// attempt is one try at the index. First the chaos plan's partition
// outages: a key whose partition is down at the task's current virtual
// time fails the attempt with chaos.ErrUnavailable before any serve or
// network charge — a dead partition answers nothing, so nothing is
// billed. The error is transient, so the retry ladder polls for the
// window's end; once retries are exhausted it climbs to the core runtime,
// which degrades the operator's strategy before failing the job. Then the
// accessor, and the charges the cost model expects: the serve time T_j and the network
// transfer of key and result when no replica of the key's partition lives
// on the task node.
func (b *Bound) attempt(keys []string, batched bool) ([][]string, error) {
	c, t := b.c, b.t
	if c.outages != nil {
		now := t.Now()
		for _, k := range keys {
			if c.outages.PartitionDown(c.ix, c.partition(k), now) {
				b.add(cUnavailable, 1)
				return make([][]string, len(keys)), &lookupError{key: k, err: chaos.ErrUnavailable}
			}
		}
	}
	serve := c.acc.ServeTime()
	vals, err := b.fetch(keys, batched)
	if vals == nil {
		vals = make([][]string, len(keys))
	}
	if batched && len(keys) > 1 {
		b.chargeBatched(keys, vals, serve)
	} else {
		b.chargePerKey(keys, vals, serve)
	}
	return vals, err
}

// fetch invokes the accessor: the multi-get fast path for batched
// multi-key requests, a per-key loop otherwise.
func (b *Bound) fetch(keys []string, batched bool) ([][]string, error) {
	c := b.c
	if batched && len(keys) > 1 && c.multi != nil {
		vals, err := c.multi.BatchLookup(keys)
		if err != nil {
			return vals, &lookupError{key: keys[0], err: err}
		}
		return vals, nil
	}
	out := results(keys, batched, &b.fetchRes)
	for i, k := range keys {
		v, err := c.acc.Lookup(k)
		if err != nil {
			return out, &lookupError{key: k, err: err}
		}
		out[i] = v
	}
	return out, nil
}

// chargePerKey is the paper-faithful costing: every key is its own
// request — serve time per key, and a network round trip per key whose
// partition has no replica on the task node.
func (b *Bound) chargePerKey(keys []string, vals [][]string, serve float64) {
	c, t := b.c, b.t
	for i, k := range keys {
		t.Charge(serve)
		b.add(cServeNS, int64(serve*1e9))
		b.add(cLookups, 1)
		hosts := c.acc.HostsFor(k)
		if hosts == nil || !sim.ContainsNode(hosts, t.Node) {
			t.ChargeNet(float64(len(k) + 4 + valueBytes(vals[i])))
			b.add(cNetRoundTrips, 1)
		}
	}
}

// chargeBatched groups the request's keys by index partition (single
// group for unpartitioned indices) and charges one multi-get per group:
// the serve time amortizes over the group, and remote groups cost one
// network round trip carrying every key and result of the group. Only
// Client.LookupBatch's multi-get is charged so; the cost model has no
// formula for it.
func (b *Bound) chargeBatched(keys []string, vals [][]string, serve float64) {
	c, t := b.c, b.t
	order, groups := c.groupByPartition(keys)
	for _, g := range order {
		members := groups[g]
		t.Charge(serve)
		b.add(cServeNS, int64(serve*1e9))
		b.add(cLookups, int64(len(members)))
		hosts := c.acc.HostsFor(keys[members[0]])
		if hosts == nil || !sim.ContainsNode(hosts, t.Node) {
			bytes := 0
			for _, i := range members {
				bytes += len(keys[i]) + 4 + valueBytes(vals[i])
			}
			t.ChargeNet(float64(bytes))
			b.add(cNetRoundTrips, 1)
		}
	}
}

// groupByPartition splits key indices into per-partition groups in
// first-seen order (deterministic). Unpartitioned indices form one group.
func (c *Client) groupByPartition(keys []string) ([]int, map[int][]int) {
	groups := make(map[int][]int)
	var order []int
	for i, k := range keys {
		p := c.partition(k)
		if _, seen := groups[p]; !seen {
			order = append(order, p)
		}
		groups[p] = append(groups[p], i)
	}
	return order, groups
}

// partition is the index partition holding key (0 when unpartitioned).
func (c *Client) partition(k string) int {
	if c.scheme == nil {
		return 0
	}
	return c.scheme.Fn(k)
}

// results returns a request's result list: fresh, except for the
// single-key entry points, which get the given one-slot scratch — they
// hand their caller the value list inside, never the container. Batched
// requests always get a fresh list, because LookupBatch's caller keeps it.
func results(keys []string, batched bool, scratch *[1][]string) [][]string {
	if len(keys) == 1 && !batched {
		scratch[0] = nil
		return scratch[:]
	}
	return make([][]string, len(keys))
}
