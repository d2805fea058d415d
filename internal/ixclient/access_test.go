package ixclient

import (
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"efind/internal/chaos"
	"efind/internal/dfs"
	"efind/internal/index"
	"efind/internal/mapreduce"
	"efind/internal/obs"
	"efind/internal/sim"
)

// accessCase is one scripted sequence of accesses through a bound view,
// run as the one map task of a one-record traced map-only job, with
// everything the access path leaves behind pinned: the results, the
// accessor's call counts, the task's charged virtual time bit for bit, its
// index-lookup spans, and the task's whole counter set — values and
// order, since the set lists a task's counters by when their cells were
// first touched, newest first.
//
// Each op is "L keys…" (Lookup per key), "A keys…" (Access per key) or
// "B keys…" (one LookupBatch). Like a stage's record path, every key is
// counted (CountKey) before the access and its values (CountValues) after.
type accessCase struct {
	name   string
	opts   Options
	setup  func(f *fakeIndex)
	pooled []string // non-nil: attach a fresh pool, warmed on the task's node with these keys by another client
	ops    []string
	abort  bool // the last op aborts the task under ErrorFailJob

	want              [][]string
	calls, batchCalls int
	extra             float64
	spans             int    // index-lookup trace spans: one per access that charged time
	counters          string // the client's part of the task's counter set, per-index names without their "efind.op.ix.kv." prefix
}

// byParity partitions the test keys by their first byte's parity: "b"
// and "d" land in partition 0, "a" and "c" in partition 1.
var byParity = &index.Scheme{Partitions: 2, Fn: func(k string) int { return int(k[0]) % 2 }}

func outageOn(partition int) *chaos.Plan {
	return chaos.MustNew(chaos.Config{Outages: []chaos.Outage{
		{Index: "kv", Partition: partition, From: 0, Until: math.Inf(1)},
	}}, 4)
}

func allNodesLocal(f *fakeIndex) {
	for n := 0; n < sim.DefaultConfig().Nodes; n++ {
		f.hosts = append(f.hosts, sim.NodeID(n))
	}
}

var accessCases = []accessCase{
	{
		name:  "private real cache",
		opts:  Options{CacheMode: CacheReal, CacheCapacity: 2},
		ops:   []string{"L a a b c a"},
		want:  [][]string{{"va"}, {"va"}, {"vb1", "vb2"}, {"vc"}, {"va"}},
		calls: 4,
		extra: 0.004005482666666667,
		spans: 5,
		counters: "val.bytes=38 net.roundtrips=4 lookups=4 serve.ns=4000000 cache.misses=4 cache.probes=5 " +
			"key.bytes=5 keys=5",
	},
	{
		name:     "shadow cache",
		opts:     Options{CacheMode: CacheShadow},
		setup:    allNodesLocal,
		ops:      []string{"L a a b", "B a c"},
		want:     [][]string{{"va"}, {"va"}, {"vb1", "vb2"}, {"va"}, {"vc"}},
		calls:    5,
		extra:    0.005000066666666666,
		spans:    5,
		counters: "val.bytes=38 lookups=5 serve.ns=5000000 cache.misses=3 cache.probes=5 key.bytes=5 keys=5",
	},
	{
		name:   "pooled real cache",
		opts:   Options{CacheMode: CacheReal},
		pooled: []string{"a"},
		ops:    []string{"L a b a b"},
		want:   [][]string{{"va"}, {"vb1", "vb2"}, {"va"}, {"vb1", "vb2"}},
		calls:  1,
		extra:  0.0010042186666666666,
		spans:  4,
		counters: "val.bytes=40 net.roundtrips=1 lookups=1 serve.ns=1000000 cache.misses=2 cache.probes=4 " +
			"key.bytes=4 keys=4",
	},
	{
		name:     "access with cache off",
		opts:     Options{CacheMode: CacheOff},
		ops:      []string{"A a b zz a"},
		want:     [][]string{{"va"}, {"vb1", "vb2"}, nil, {"va"}},
		calls:    4,
		extra:    0.004000442666666666,
		spans:    4,
		counters: "val.bytes=26 net.roundtrips=4 lookups=4 serve.ns=4000000 key.bytes=5 keys=4",
	},
	{
		name:     "retry with backoff and jitter",
		opts:     Options{Retry: RetryPolicy{Max: 3, Backoff: 0.1, Factor: 2, Cap: 0.15, Jitter: 0.5, Seed: 7}},
		setup:    func(f *fakeIndex) { f.failFirst = 2 },
		ops:      []string{"A a b"},
		want:     [][]string{{"va"}, {"vb1", "vb2"}},
		calls:    4,
		extra:    0.3236014496630333,
		spans:    2,
		counters: "val.bytes=20 retries=2 net.roundtrips=4 lookups=4 serve.ns=4000000 key.bytes=2 keys=2",
	},
	{
		name:  "outage counted",
		opts:  Options{CacheMode: CacheReal, Chaos: outageOn(0), Retry: RetryPolicy{Max: 2, Backoff: 0.1}},
		setup: func(f *fakeIndex) { f.scheme = byParity },
		ops:   []string{"L a b b c"},
		want:  [][]string{{"va"}, nil, nil, {"vc"}},
		calls: 2,
		extra: 0.30200424266666664,
		spans: 4,
		counters: "val.bytes=12 errors=1 retries=2 ix.partition.unavailable=3 net.roundtrips=2 lookups=2 " +
			"serve.ns=2000000 cache.misses=3 cache.probes=4 key.bytes=4 keys=4",
	},
	{
		name:  "outage fails the job",
		opts:  Options{CacheMode: CacheReal, ErrorPolicy: ErrorFailJob, Chaos: outageOn(0), Retry: RetryPolicy{Max: 1, Backoff: 0.1}},
		setup: func(f *fakeIndex) { f.scheme = byParity },
		ops:   []string{"L a c", "L b"},
		abort: true,
		want:  [][]string{{"va"}, {"vc"}},
		calls: 2,
		extra: 0.10200324266666667,
		spans: 3,
		counters: "errors=1 retries=1 ix.partition.unavailable=2 val.bytes=12 net.roundtrips=2 lookups=2 " +
			"serve.ns=2000000 cache.misses=3 cache.probes=3 key.bytes=3 keys=3",
	},
	{
		name:       "batched over a partitioned index",
		opts:       Options{CacheMode: CacheReal, Batch: true},
		setup:      func(f *fakeIndex) { f.scheme = byParity },
		ops:        []string{"B a b c a", "B a b d", "L c"},
		want:       [][]string{{"va"}, {"vb1", "vb2"}, {"vc"}, {"va"}, {"va"}, {"vb1", "vb2"}, nil, {"vc"}},
		calls:      1,
		batchCalls: 1,
		extra:      0.003008522666666667,
		spans:      3,
		counters: "val.bytes=58 net.roundtrips=3 lookups=5 serve.ns=3000000 cache.misses=5 cache.probes=8 " +
			"key.bytes=8 keys=8",
	},
}

// runAccessCase runs the case as a job. With recoverAbort the map function
// recovers an abort itself, so the task completes and its counter set
// survives; without it, the abort fails the job and err carries it.
func runAccessCase(t *testing.T, tc accessCase, recoverAbort bool) (f *fakeIndex, got [][]string, extra float64, aborted bool, res *mapreduce.Result, names []string, err error) {
	t.Helper()
	f = newFake("kv")
	if tc.setup != nil {
		tc.setup(f)
	}
	opts := tc.opts
	opts.Op = "op"
	if tc.pooled != nil {
		opts.SharedCache = NewPool(0)
	}
	warm, c := New(newFake("kv"), opts), New(f, opts)

	cluster := sim.NewCluster(sim.DefaultConfig())
	fs := dfs.New(cluster)
	in, err := fs.Create("in", []dfs.Record{{Key: "r", Value: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	job := &mapreduce.Job{Name: tc.name, Input: in, Map: func(ctx *mapreduce.TaskContext, _ mapreduce.Pair, _ mapreduce.Emit) {
		for _, k := range tc.pooled {
			warm.Lookup(testCtx(ctx.Node), k)
		}
		defer func() { extra = ctx.Extra() }()
		if recoverAbort {
			defer func() { aborted = recover() != nil }()
		}
		b := c.Bind(ctx)
		for _, op := range tc.ops {
			fields := strings.Fields(op)
			keys := fields[1:]
			for _, k := range keys {
				b.CountKey(k)
			}
			var vals [][]string
			switch fields[0] {
			case "L":
				for _, k := range keys {
					vals = append(vals, b.Lookup(k))
				}
			case "A":
				for _, k := range keys {
					vals = append(vals, b.Access(k))
				}
			case "B":
				vals = c.LookupBatch(ctx, keys)
			}
			for _, v := range vals {
				b.CountValues(v)
			}
			got = append(got, vals...)
		}
	}}
	e := mapreduce.New(cluster, fs)
	e.Trace = obs.NewTrace()
	res, err = e.Run(job)
	return f, got, extra, aborted, res, e.CounterTable().Names(), err
}

func renderCounters(names []string, set mapreduce.CounterSet) string {
	parts := make([]string, len(set))
	for i, c := range set {
		parts[i] = strings.TrimPrefix(names[c.Slot], prefix("op", "kv")) + "=" + strconv.FormatInt(c.Value, 10)
	}
	return strings.Join(parts, " ")
}

// TestAccessPath pins every step of the access path — span, cache or
// shadow, error policy, retry ladder, availability, accessor and charging
// — by what it leaves on the task.
func TestAccessPath(t *testing.T) {
	for _, tc := range accessCases {
		t.Run(tc.name, func(t *testing.T) {
			f, got, extra, aborted, res, names, err := runAccessCase(t, tc, true)
			if err != nil {
				t.Fatal(err)
			}
			if aborted != tc.abort {
				t.Fatalf("aborted = %v, want %v", aborted, tc.abort)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("results = %q, want %q", got, tc.want)
			}
			if f.calls != tc.calls || f.batchCalls != tc.batchCalls {
				t.Errorf("accessor calls = %d lookups, %d multi-gets; want %d, %d", f.calls, f.batchCalls, tc.calls, tc.batchCalls)
			}
			if math.Float64bits(extra) != math.Float64bits(tc.extra) {
				t.Errorf("Extra() = %s, want %s", strconv.FormatFloat(extra, 'g', -1, 64), strconv.FormatFloat(tc.extra, 'g', -1, 64))
			}
			if len(res.MapStats) != 1 {
				t.Fatalf("map tasks = %d, want 1", len(res.MapStats))
			}
			// The engine's own counters frame the client's: it counts the
			// task's input and output once the map function returns (newer,
			// so listed first) and appends the retry count to the set.
			want := "task.output.bytes=0 task.output.records=0 task.input.bytes=10 task.input.records=1 " +
				tc.counters + " task.retries=0"
			if s := renderCounters(names, res.MapStats[0].Counters); s != want {
				t.Errorf("counter set\n got %s\nwant %s", s, want)
			}
			spans := 0
			for _, sp := range res.MapStats[0].Spans {
				if sp.Cat == "index" && sp.Name == "lookup op/kv" {
					spans++
				}
			}
			if spans != tc.spans {
				t.Errorf("index spans = %d, want %d", spans, tc.spans)
			}
			if !tc.abort {
				return
			}
			// Unrecovered, the same abort fails the job naming index and key.
			_, _, _, _, _, _, err = runAccessCase(t, tc, false)
			var ie *IndexError
			if !errors.As(err, &ie) || ie.Op != "op" || ie.Index != "kv" || ie.Key != "b" || !errors.Is(err, chaos.ErrUnavailable) {
				t.Fatalf("job error = %v, want an IndexError for key %q wrapping %v", err, "b", chaos.ErrUnavailable)
			}
		})
	}
}
