package ixclient

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"efind/internal/chaos"
	"efind/internal/index"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// fakeIndex is a scriptable in-memory accessor: the first failFirst
// Lookup/BatchLookup calls fail transiently, failKeys fail permanently.
type fakeIndex struct {
	name       string
	serve      float64
	data       map[string][]string
	hosts      []sim.NodeID
	scheme     *index.Scheme
	failFirst  int
	failKeys   map[string]error
	calls      int
	batchCalls int
}

func (f *fakeIndex) Name() string       { return f.name }
func (f *fakeIndex) ServeTime() float64 { return f.serve }
func (f *fakeIndex) Scheme() *index.Scheme {
	return f.scheme
}
func (f *fakeIndex) HostsFor(key string) []sim.NodeID { return f.hosts }

func (f *fakeIndex) Lookup(key string) ([]string, error) {
	f.calls++
	if f.failFirst > 0 {
		f.failFirst--
		return nil, fmt.Errorf("blip: %w", index.ErrTransient)
	}
	if err := f.failKeys[key]; err != nil {
		return nil, err
	}
	return f.data[key], nil
}

func (f *fakeIndex) BatchLookup(keys []string) ([][]string, error) {
	f.batchCalls++
	if f.failFirst > 0 {
		f.failFirst--
		return nil, fmt.Errorf("blip: %w", index.ErrTransient)
	}
	out := make([][]string, len(keys))
	for i, k := range keys {
		if err := f.failKeys[k]; err != nil {
			return nil, err
		}
		out[i] = f.data[k]
	}
	return out, nil
}

func newFake(name string) *fakeIndex {
	return &fakeIndex{
		name:  name,
		serve: 0.001,
		data: map[string][]string{
			"a": {"va"},
			"b": {"vb1", "vb2"},
			"c": {"vc"},
		},
	}
}

func testCtx(node sim.NodeID) *mapreduce.TaskContext {
	return mapreduce.NewTaskContext(sim.NewCluster(sim.DefaultConfig()), node, 0, mapreduce.MapTask)
}

func TestRealCacheServesHits(t *testing.T) {
	f := newFake("kv")
	c := New(f, Options{Op: "op", CacheMode: CacheReal})
	ctx := testCtx(0)

	if got := c.Lookup(ctx, "a"); !reflect.DeepEqual(got, []string{"va"}) {
		t.Fatalf("first lookup = %v", got)
	}
	if got := c.Lookup(ctx, "a"); !reflect.DeepEqual(got, []string{"va"}) {
		t.Fatalf("second lookup = %v", got)
	}
	if f.calls != 1 {
		t.Fatalf("index saw %d calls, want 1 (second from cache)", f.calls)
	}
	if p := ctx.Counter(CtrProbes("op", "kv")); p != 2 {
		t.Fatalf("probes = %d, want 2", p)
	}
	if m := ctx.Counter(CtrMisses("op", "kv")); m != 1 {
		t.Fatalf("misses = %d, want 1", m)
	}
	if l := ctx.Counter(CtrLookups("op", "kv")); l != 1 {
		t.Fatalf("lookups = %d, want 1", l)
	}
}

func TestShadowCacheForwardsEverything(t *testing.T) {
	f := newFake("kv")
	c := New(f, Options{Op: "op", CacheMode: CacheShadow})
	ctx := testCtx(0)

	c.Lookup(ctx, "a")
	c.Lookup(ctx, "a")
	if f.calls != 2 {
		t.Fatalf("shadow mode must always hit the index, saw %d calls", f.calls)
	}
	if p, m := ctx.Counter(CtrProbes("op", "kv")), ctx.Counter(CtrMisses("op", "kv")); p != 2 || m != 1 {
		t.Fatalf("probes/misses = %d/%d, want 2/1", p, m)
	}
}

func TestPerNodeCachesAreIndependent(t *testing.T) {
	f := newFake("kv")
	c := New(f, Options{Op: "op", CacheMode: CacheReal})
	c.Lookup(testCtx(0), "a")
	c.Lookup(testCtx(1), "a")
	if f.calls != 2 {
		t.Fatalf("each node must miss independently, saw %d calls", f.calls)
	}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	f := newFake("kv")
	f.failFirst = 2
	c := New(f, Options{Op: "op", Retry: RetryPolicy{Max: 3, Backoff: 0.1}})
	ctx := testCtx(0)

	if got := c.Access(ctx, "a"); !reflect.DeepEqual(got, []string{"va"}) {
		t.Fatalf("lookup after retries = %v", got)
	}
	if f.calls != 3 {
		t.Fatalf("index saw %d calls, want 3", f.calls)
	}
	if r := ctx.Counter(CtrRetries("op", "kv")); r != 2 {
		t.Fatalf("retries = %d, want 2", r)
	}
	// Backoff is deterministic virtual time: 0.1 + 0.2.
	wantBackoff := 0.1 + 0.2
	if extra := ctx.Extra(); extra < wantBackoff {
		t.Fatalf("charged %.4f, want at least backoff %.4f", extra, wantBackoff)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	f := newFake("kv")
	f.failKeys = map[string]error{"a": errors.New("corrupt page")}
	c := New(f, Options{Op: "op", Retry: RetryPolicy{Max: 3, Backoff: 0.1}})
	ctx := testCtx(0)

	if got := c.Access(ctx, "a"); len(got) != 0 {
		t.Fatalf("failed lookup = %v, want empty", got)
	}
	if f.calls != 1 {
		t.Fatalf("permanent error retried: %d calls", f.calls)
	}
	if e := ctx.Counter(CtrErrors("op", "kv")); e != 1 {
		t.Fatalf("errors = %d, want 1", e)
	}
}

func TestErrorCountCachesEmptyResult(t *testing.T) {
	f := newFake("kv")
	f.failKeys = map[string]error{"a": errors.New("corrupt page")}
	c := New(f, Options{Op: "op", CacheMode: CacheReal})
	ctx := testCtx(0)

	c.Lookup(ctx, "a")
	c.Lookup(ctx, "a")
	if f.calls != 1 {
		t.Fatalf("counted error must cache its empty result, saw %d calls", f.calls)
	}
	if e := ctx.Counter(CtrErrors("op", "kv")); e != 1 {
		t.Fatalf("errors = %d, want 1", e)
	}
}

// TestSnapshotRollbackWithRetry is the fault-tolerance composition the
// engine depends on: a task attempt that performed (possibly retried)
// lookups is rolled back, and the re-executed attempt re-measures its
// cache misses from the pre-attempt state — retries never double-count in
// the miss ratio R, and rolled-back insertions do not survive as hits.
func TestSnapshotRollbackWithRetry(t *testing.T) {
	f := newFake("kv")
	c := New(f, Options{Op: "op", CacheMode: CacheReal, Retry: RetryPolicy{Max: 3, Backoff: 0.05}})

	// Warm the node cache with "a" before the guarded attempt.
	warm := testCtx(0)
	c.Lookup(warm, "a")

	rollback := c.SnapshotNode(0)

	// The failed attempt: "b" fails transiently once, then succeeds and is
	// cached. The retry must not double-count the miss.
	attempt := testCtx(0)
	f.failFirst = 1
	if got := c.Lookup(attempt, "b"); !reflect.DeepEqual(got, []string{"vb1", "vb2"}) {
		t.Fatalf("attempt lookup = %v", got)
	}
	if m := attempt.Counter(CtrMisses("op", "kv")); m != 1 {
		t.Fatalf("retried lookup counted %d misses, want 1", m)
	}
	if r := attempt.Counter(CtrRetries("op", "kv")); r != 1 {
		t.Fatalf("retries = %d, want 1", r)
	}

	rollback()

	// Re-executed attempt: "a" must still hit (pre-snapshot state kept),
	// "b" must miss again (the failed attempt's insertion rolled back).
	redo := testCtx(0)
	callsBefore := f.calls
	c.Lookup(redo, "a")
	if f.calls != callsBefore {
		t.Fatalf("pre-snapshot entry lost on rollback")
	}
	c.Lookup(redo, "b")
	if f.calls != callsBefore+1 {
		t.Fatalf("rolled-back entry survived as a cache hit")
	}
	if m := redo.Counter(CtrMisses("op", "kv")); m != 1 {
		t.Fatalf("re-executed attempt counted %d misses, want 1", m)
	}
}

func TestSnapshotRollbackResetsCachesCreatedAfter(t *testing.T) {
	f := newFake("kv")
	c := New(f, Options{Op: "op", CacheMode: CacheReal})
	rollback := c.SnapshotNode(0)
	c.Lookup(testCtx(0), "a") // cache created after the snapshot
	rollback()
	calls := f.calls
	c.Lookup(testCtx(0), "a")
	if f.calls != calls+1 {
		t.Fatalf("cache created during the attempt must be reset by rollback")
	}
}

func TestBatchOffDegeneratesToPerKey(t *testing.T) {
	keys := []string{"a", "b", "a", "c"}

	fa := newFake("kv")
	ca := New(fa, Options{Op: "op", CacheMode: CacheReal})
	ctxA := testCtx(0)
	want := ca.LookupBatch(ctxA, keys)

	fb := newFake("kv")
	cb := New(fb, Options{Op: "op", CacheMode: CacheReal})
	ctxB := testCtx(0)
	var got [][]string
	for _, k := range keys {
		got = append(got, cb.Lookup(ctxB, k))
	}

	if !reflect.DeepEqual(want, got) {
		t.Fatalf("batch-off LookupBatch = %v, per-key = %v", want, got)
	}
	if ctxA.Extra() != ctxB.Extra() {
		t.Fatalf("batch-off charge %.9f != per-key charge %.9f", ctxA.Extra(), ctxB.Extra())
	}
	for _, ctr := range []string{CtrProbes("op", "kv"), CtrMisses("op", "kv"), CtrLookups("op", "kv"), CtrServeNS("op", "kv")} {
		if ctxA.Counter(ctr) != ctxB.Counter(ctr) {
			t.Fatalf("%s: batch-off %d != per-key %d", ctr, ctxA.Counter(ctr), ctxB.Counter(ctr))
		}
	}
}

func TestBatchGroupsRoundTripsByPartition(t *testing.T) {
	f := newFake("kv")
	f.scheme = &index.Scheme{
		Partitions: 2,
		Fn:         func(key string) int { return int(key[0]) % 2 },
	}
	// All partitions are remote from node 0 (hosts nil → always remote).
	c := New(f, Options{Op: "op", Batch: true})
	ctx := testCtx(0)

	keys := []string{"a", "b", "c"} // 'a','c' → one partition, 'b' → the other
	vals := c.LookupBatch(ctx, keys)
	if len(vals) != 3 || !reflect.DeepEqual(vals[1], []string{"vb1", "vb2"}) {
		t.Fatalf("batched results misaligned: %v", vals)
	}
	if f.batchCalls != 1 {
		t.Fatalf("multi-get calls = %d, want 1", f.batchCalls)
	}
	if rt := ctx.Counter(CtrNetRoundTrips("op", "kv")); rt != 2 {
		t.Fatalf("round trips = %d, want 2 (one per partition)", rt)
	}
	if l := ctx.Counter(CtrLookups("op", "kv")); l != 3 {
		t.Fatalf("lookups = %d, want 3", l)
	}
}

func TestIndexErrorMessage(t *testing.T) {
	e := &IndexError{Op: "join", Index: "orders", Key: "o42", Err: errors.New("boom")}
	msg := e.Error()
	for _, want := range []string{"join", "orders", "o42", "boom"} {
		if !containsStr(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRetryBackoffCappedAndJitterDeterministic(t *testing.T) {
	run := func() float64 {
		f := newFake("kv")
		f.serve = 0
		f.failFirst = 3
		c := New(f, Options{Op: "op", Retry: RetryPolicy{
			Max: 3, Backoff: 0.1, Factor: 2, Cap: 0.15, Jitter: 0.5, Seed: 42,
		}})
		ctx := testCtx(0)
		c.Access(ctx, "a")
		return ctx.Extra()
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("jittered backoff not deterministic: %.9f vs %.9f", first, second)
	}
	// Uncapped, unjittered waits would be 0.1+0.2+0.4 = 0.7; the cap bounds
	// attempts 1 and 2 at 0.15, and jitter 0.5 scales each wait by at most
	// 1.5, so the total must sit inside (0, (0.1+0.15+0.15)*1.5].
	if max := (0.1 + 0.15 + 0.15) * 1.5; first <= 0 || first > max {
		t.Fatalf("capped jittered backoff charged %.4f, want in (0, %.4f]", first, max)
	}
}

func TestRetryWithoutCapMatchesGeometricSeries(t *testing.T) {
	f := newFake("kv")
	f.serve = 0
	f.failFirst = 2
	c := New(f, Options{Op: "op", Retry: RetryPolicy{Max: 3, Backoff: 0.1, Factor: 2}})
	ctx := testCtx(0)
	c.Access(ctx, "a")
	// Extra = backoff plus tiny per-attempt network charges; the backoff
	// component must be exactly the plain geometric series 0.1 + 0.2.
	if want := 0.1 + 0.2; ctx.Extra() < want || ctx.Extra() > want+1e-3 {
		t.Fatalf("zero Cap/Jitter must keep the plain geometric backoff: charged %.9f, want %.9f+net", ctx.Extra(), want)
	}
}

func TestOutageShortCircuitsBeforeCharges(t *testing.T) {
	f := newFake("kv")
	plan := chaos.MustNew(chaos.Config{Outages: []chaos.Outage{
		{Index: "kv", Partition: -1, From: 0, Until: math.Inf(1)},
	}}, 4)
	c := New(f, Options{Op: "op", Chaos: plan})
	ctx := testCtx(0)

	if got := c.Access(ctx, "a"); len(got) != 0 {
		t.Fatalf("lookup during outage = %v, want empty", got)
	}
	if f.calls != 0 {
		t.Fatalf("down partition still reached the index: %d calls", f.calls)
	}
	if ctx.Extra() != 0 {
		t.Fatalf("down partition charged %.6f virtual seconds, want 0", ctx.Extra())
	}
	if l := ctx.Counter(CtrLookups("op", "kv")); l != 0 {
		t.Fatalf("lookups = %d, want 0 (nothing served)", l)
	}
	if u := ctx.Counter(chaos.CtrUnavailable); u != 1 {
		t.Fatalf("%s = %d, want 1", chaos.CtrUnavailable, u)
	}
	if e := ctx.Counter(CtrErrors("op", "kv")); e != 1 {
		t.Fatalf("errors = %d, want 1", e)
	}
}

func TestOutageEndsInsideRetryBudget(t *testing.T) {
	f := newFake("kv")
	plan := chaos.MustNew(chaos.Config{Outages: []chaos.Outage{
		{Index: "kv", Partition: -1, From: 0, Until: 0.5},
	}}, 4)
	c := New(f, Options{Op: "op", Chaos: plan, Retry: RetryPolicy{Max: 4, Backoff: 0.2, Factor: 2}})
	ctx := testCtx(0)

	// Backoff charges advance Task.Now past the window's end at 0.5:
	// attempts at Now = 0, 0.2, then 0.6 — the third one is served.
	if got := c.Access(ctx, "a"); !reflect.DeepEqual(got, []string{"va"}) {
		t.Fatalf("lookup after outage end = %v, want [va]", got)
	}
	if u := ctx.Counter(chaos.CtrUnavailable); u != 2 {
		t.Fatalf("%s = %d, want 2 attempts inside the window", chaos.CtrUnavailable, u)
	}
	if r := ctx.Counter(CtrRetries("op", "kv")); r != 2 {
		t.Fatalf("retries = %d, want 2", r)
	}
	if e := ctx.Counter(CtrErrors("op", "kv")); e != 0 {
		t.Fatalf("errors = %d, want 0 (the access eventually succeeded)", e)
	}
}

func TestOutageRespectsPartitionScoping(t *testing.T) {
	f := newFake("kv")
	f.scheme = &index.Scheme{Partitions: 2, Fn: func(k string) int {
		if k == "a" {
			return 0
		}
		return 1
	}}
	plan := chaos.MustNew(chaos.Config{Outages: []chaos.Outage{
		{Index: "kv", Partition: 0, From: 0, Until: math.Inf(1)},
	}}, 4)
	c := New(f, Options{Op: "op", Chaos: plan})
	ctx := testCtx(0)

	if got := c.Access(ctx, "a"); len(got) != 0 {
		t.Fatalf("lookup on down partition = %v, want empty", got)
	}
	if got := c.Access(ctx, "b"); !reflect.DeepEqual(got, []string{"vb1", "vb2"}) {
		t.Fatalf("lookup on healthy partition = %v, want [vb1 vb2]", got)
	}
	if u := ctx.Counter(chaos.CtrUnavailable); u != 1 {
		t.Fatalf("%s = %d, want 1", chaos.CtrUnavailable, u)
	}
}

func TestResetNodeColdCaches(t *testing.T) {
	f := newFake("kv")
	c := New(f, Options{Op: "op", CacheMode: CacheReal})
	ctx := testCtx(0)

	c.Lookup(ctx, "a")
	c.Lookup(ctx, "a")
	if f.calls != 1 {
		t.Fatalf("warm-up saw %d calls, want 1", f.calls)
	}
	c.ResetNode(0)
	c.Lookup(ctx, "a")
	if f.calls != 2 {
		t.Fatalf("post-reset lookup must miss: %d calls, want 2", f.calls)
	}
}
