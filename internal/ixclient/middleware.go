package ixclient

import (
	"errors"

	"efind/internal/chaos"
	"efind/internal/index"
	"efind/internal/lru"
	"efind/internal/sim"
)

// spans wraps the whole access in an index-lookup span so traces show
// where a task waits on index serving (cache probes, backoff waits, and
// serve time all land inside it). The span name is built once per
// client; with tracing off, StartSpan returns the zero region and the
// stage costs one branch and no allocation.
func (c *Client) spans(next Handler) Handler {
	name := "lookup " + c.opts.Op + "/" + c.acc.Name()
	return func(r *Request) ([][]string, error) {
		sp := r.Task.StartSpan(name, "index")
		vals, err := next(r)
		sp.End()
		return vals, err
	}
}

// cache is the outermost charging stage of the inline chain. CacheReal serves hits
// locally and forwards only misses; CacheShadow records probe/miss
// statistics on a key-only cache and forwards everything. Results that
// come back without error are cached — including the empty results the
// policy stage substitutes for counted errors, exactly as the
// pre-middleware executor cached the nil result of a failed lookup.
func (c *Client) cache(next Handler) Handler {
	if c.opts.CacheMode == CacheShadow {
		return func(r *Request) ([][]string, error) {
			shadow := c.cacheFor(r.Task.Node, true)
			for _, k := range r.Keys {
				probeShadow(r.view, shadow, k)
			}
			return next(r)
		}
	}
	// Pooled real cache: hits come from the cross-job shared cache, but
	// the probe/miss counters the optimizer turns into R come from a
	// private per-job key-only shadow replaying the same stream — an LRU
	// over keys promotes and evicts identically whether or not values are
	// attached, so the shadow's miss sequence is exactly what a private
	// real cache would measure.
	pool, ix := c.opts.SharedCache, c.acc.Name()
	return func(r *Request) ([][]string, error) {
		t, b := r.Task, r.view
		var cache, shadow *lru.Cache
		if pool != nil {
			cache, shadow = pool.cacheFor(ix, t.Node), c.cacheFor(t.Node, true)
		} else {
			cache = c.cacheFor(t.Node, false)
		}
		probeTime := t.Cluster().Config().CacheProbeTime
		out := r.results(&b.res)
		missIdx, missKeys := b.missIdx[:0], b.missKey[:0]
		for i, k := range r.Keys {
			t.Charge(probeTime)
			hit, ok := cache.Get(k)
			if shadow != nil {
				probeShadow(b, shadow, k)
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
		// The misses go downstream in one request; what comes back fills
		// out and the cache. The cache keeps the accessor's value list,
		// never a scratch container.
		b.missReq.Keys, b.missReq.Batched = missKeys, r.Batched
		vals, err := next(&b.missReq)
		if err != nil {
			return out, err
		}
		for j, i := range missIdx {
			out[i] = vals[j]
			cache.Put(missKeys[j], vals[j])
		}
		return out, nil
	}
}

// probeShadow replays one key on a key-only shadow cache, counting the
// probe and, when the key is new to it, the miss.
func probeShadow(b *Bound, shadow *lru.Cache, k string) {
	b.add(cProbes, 1)
	if _, ok := shadow.Get(k); !ok {
		b.add(cMisses, 1)
		shadow.Put(k, nil)
	}
}

// policy applies the error policy to an access whose retries (if any) are
// exhausted: the error counter ticks once per failed access, not per
// attempt. ErrorCount then swallows the error, substituting empty results
// so downstream (the cache stage, postProcess) sees a normal lookup that
// found nothing — the paper-faithful behaviour. ErrorFailJob lets the
// error climb to the Client entry points, which abort the task.
func (c *Client) policy(next Handler) Handler {
	return func(r *Request) ([][]string, error) {
		vals, err := next(r)
		if err != nil {
			r.view.add(cErrors, 1)
			if c.opts.ErrorPolicy == ErrorCount {
				if vals == nil {
					vals = make([][]string, len(r.Keys))
				}
				return vals, nil
			}
		}
		return vals, err
	}
}

// retry re-attempts transient failures with capped exponential backoff
// and deterministic seeded jitter, charged as virtual time. Only errors
// marked transient (index.ErrTransient: the client-side deadline, an
// outage window) are retried; a deterministic logic error would fail
// identically every attempt. The backoff charge advances Task.Now, so an
// outage whose window ends inside the retry budget is survived: the
// re-attempt after the window sees the partition back up.
func (c *Client) retry(next Handler) Handler {
	p := c.opts.Retry
	if p.Max <= 0 {
		return next
	}
	b := chaos.Backoff{Base: p.Backoff, Factor: p.Factor, Cap: p.Cap, Jitter: p.Jitter, Seed: p.Seed}
	return func(r *Request) ([][]string, error) {
		vals, err := next(r)
		for attempt := 0; attempt < p.Max && err != nil && errors.Is(err, index.ErrTransient); attempt++ {
			if w := b.Wait(r.Keys[0], attempt); w > 0 {
				r.Task.Charge(w)
			}
			r.view.add(cRetries, 1)
			vals, err = next(r)
		}
		return vals, err
	}
}

// availability enforces the chaos plan's index partition outages: an
// access whose key falls in a partition that is down at the task's
// current virtual time fails with chaos.ErrUnavailable before any serve
// or network charge — a dead partition answers nothing, so nothing is
// billed. The error is transient, so the retry stage above polls for the
// window's end; once retries are exhausted it climbs to the core runtime,
// which degrades the operator's strategy (failure-triggered
// re-optimization) before failing the job. The stage vanishes entirely on
// plans without outages.
func (c *Client) availability(next Handler) Handler {
	plan := c.opts.Chaos
	if plan == nil || !plan.HasOutages() {
		return next
	}
	ix := c.acc.Name()
	return func(r *Request) ([][]string, error) {
		now := r.Task.Now()
		for _, k := range r.Keys {
			part := 0
			if c.scheme != nil {
				part = c.scheme.Fn(k)
			}
			if plan.PartitionDown(ix, part, now) {
				r.Task.Inc(chaos.CtrUnavailable, 1)
				return make([][]string, len(r.Keys)), &lookupError{key: k, err: chaos.ErrUnavailable}
			}
		}
		return next(r)
	}
}

// accounting charges every access the way the cost model expects: the
// serve time T_j, the network transfer of key and result when no replica
// of the key's partition lives on the task node, and the per-index
// lookup/serve/error counters. Batched multi-key requests are charged one
// serve round and one network round trip per partition group — the
// deliberate batching cost deviation (DESIGN.md).
func (c *Client) accounting(next Handler) Handler {
	return func(r *Request) ([][]string, error) {
		t := r.Task
		serve := c.acc.ServeTime()
		if d := c.opts.Retry.Timeout; d > 0 && serve > d {
			// The index cannot answer inside the deadline: the client
			// abandons the access after charging the wait.
			t.Charge(float64(len(r.Keys)) * d)
			r.view.add(cTimeouts, int64(len(r.Keys)))
			return make([][]string, len(r.Keys)), &lookupError{key: r.Keys[0], err: ErrTimeout}
		}
		vals, err := next(r)
		if vals == nil {
			vals = make([][]string, len(r.Keys))
		}
		if r.Batched && len(r.Keys) > 1 {
			c.chargeBatched(r.view, r.Keys, vals, serve)
		} else {
			c.chargePerKey(r.view, r.Keys, vals, serve)
		}
		return vals, err
	}
}

// chargePerKey is the paper-faithful costing: every key is its own
// request — serve time per key, and a network round trip per key whose
// partition has no replica on the task node.
func (c *Client) chargePerKey(b *Bound, keys []string, vals [][]string, serve float64) {
	t := b.t
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
// network round trip carrying every key and result of the group.
func (c *Client) chargeBatched(b *Bound, keys []string, vals [][]string, serve float64) {
	t := b.t
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
		p := 0
		if c.scheme != nil {
			p = c.scheme.Fn(k)
		}
		if _, seen := groups[p]; !seen {
			order = append(order, p)
		}
		groups[p] = append(groups[p], i)
	}
	return order, groups
}

// terminal invokes the wrapped accessor: the multi-get fast path for
// batched multi-key requests, a per-key loop otherwise.
func (c *Client) terminal(r *Request) ([][]string, error) {
	if r.Batched && len(r.Keys) > 1 && c.batcher != nil {
		vals, err := c.batcher.BatchLookup(r.Keys)
		if err != nil {
			return vals, &lookupError{key: r.Keys[0], err: err}
		}
		return vals, nil
	}
	out := r.results(&r.view.termRes)
	for i, k := range r.Keys {
		v, err := c.acc.Lookup(k)
		if err != nil {
			return out, &lookupError{key: k, err: err}
		}
		out[i] = v
	}
	return out, nil
}
