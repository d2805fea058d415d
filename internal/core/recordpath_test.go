package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"efind/internal/dfs"
	"efind/internal/ixclient"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// recordPathOp is a join operator whose own functions do as little as the
// interface allows — the key is a suffix of the value, the output one
// concatenation — so what a profile of the benchmark shows is the record
// path, not the user code.
func recordPathOp(e *e2eEnv, name string) *Operator {
	op := NewOperator(name,
		func(in Pair) PreResult {
			return OneKey(in, in.Value[strings.LastIndexByte(in.Value, ' ')+1:])
		},
		func(pair Pair, results [][]KeyResult, emit Emit) {
			joined := ""
			if len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				joined = results[0][0].Values[0]
			}
			emit(Pair{Key: pair.Key, Value: pair.Value + "\x00" + joined})
		})
	return op.AddIndex(e.store)
}

// BenchmarkRecordPath runs one 3,000-record index join per iteration under
// each fixed strategy, with allocation counts, so a profile of the record
// path (engine → stages → index client → cache) is one command away:
//
//	go test -run='^$' -bench=RecordPath -benchmem -benchtime=20x \
//	    -memprofile mem.prof -memprofilerate=4096 ./internal/core
func BenchmarkRecordPath(b *testing.B) {
	const records = 3000
	for _, strategy := range []string{"base", "cache", "repart", "repart-idx", "repart-late", "idxloc"} {
		b.Run(strategy, func(b *testing.B) {
			e := newE2E(b, records, records/2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := recordPathOp(e, "rp")
				conf := e.conf(fmt.Sprintf("rp-%s-%d", strategy, i), ModeCustom, op, headPlace)
				switch strategy {
				case "base":
					conf.Mode = ModeBaseline
				case "cache":
					conf.Mode = ModeCache
				case "repart":
					conf.ForceStrategy(op.Name(), e.store.Name(), Repartition)
				case "repart-idx":
					conf.ForceStrategy(op.Name(), e.store.Name(), Repartition)
					conf.ForceBoundary(op.Name(), e.store.Name(), BoundaryIdx)
				case "repart-late":
					conf.ForceStrategy(op.Name(), e.store.Name(), Repartition)
					conf.ForceBoundary(op.Name(), e.store.Name(), BoundaryLate)
				case "idxloc":
					conf.ForceStrategy(op.Name(), e.store.Name(), IndexLocality)
				}
				res, err := e.rt.Submit(conf)
				if err != nil {
					b.Fatal(err)
				}
				if got := res.Output.Records(); got != records {
					b.Fatalf("output has %d records, want %d", got, records)
				}
				if err := e.fs.Remove(res.Output.Name); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(records), "records/op")
		})
	}
}

// TestCarrierCodecAllocs pins the codec's allocation budget: the encoding
// is allocated once at its exact length, and decoding into a carrier that
// has seen the shape before allocates nothing, however many lists it has.
func TestCarrierCodecAllocs(t *testing.T) {
	c := &carrier{
		Pair: Pair{Key: "record-0001234", Value: strings.Repeat("payload ", 2000)}, // five-digit length
		Keys: [][]string{{"ik-000042"}, {"ik-000043", "ik-000044"}},
		Results: [][]KeyResult{{{
			Key:    "ik-000042",
			Values: []string{"first lookup result value", "second lookup result value"},
		}}, nil},
	}
	enc := encodeCarrier(c)
	if got := encodedLen(c); got != len(enc) {
		t.Fatalf("encodedLen = %d, encoding has %d bytes", got, len(enc))
	}
	if n := testing.AllocsPerRun(200, func() { encodeCarrier(c) }); n != 1 {
		t.Errorf("encodeCarrier allocates %.1f times, want 1", n)
	}

	wide := &carrier{Pair: Pair{Key: "k", Value: "v"}}
	for j := 0; j < 12; j++ {
		wide.Keys = append(wide.Keys, []string{"a", "b", "c"})
		wide.Results = append(wide.Results, []KeyResult{{Key: "a", Values: []string{"x", "y"}}, {Key: "b"}})
	}
	wenc := encodeCarrier(wide)

	var scratch carrier
	for _, s := range []string{enc, wenc} {
		if err := scratch.decode(s); err != nil { // grows the slabs to the shape
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { scratch.decode(s) }); n != 0 {
			t.Errorf("decode into scratch allocates %.1f times for %d key and %d result lists, want 0", n, len(scratch.Keys), len(scratch.Results))
		}
		if got := encodeCarrier(&scratch); got != s {
			t.Errorf("decode into scratch lost the carrier:\n got %q\nwant %q", got, s)
		}
	}
}

// constIndex answers every key with one list of its own and allocates
// nothing, so a stage's budget is the stage's.
type constIndex struct{ vals []string }

func (constIndex) Name() string                      { return "const" }
func (c constIndex) Lookup(string) ([]string, error) { return c.vals, nil }
func (constIndex) ServeTime() float64                { return 0.001 }
func (constIndex) HostsFor(string) []sim.NodeID      { return nil }

// sharedKeyList is a preProcess that allocates nothing: it returns one
// shared key list (none for a record whose key starts with "p").
func sharedKeyList(in Pair) PreResult {
	if strings.HasPrefix(in.Key, "p") {
		return PreResult{Pair: in}
	}
	return PreResult{Pair: in, Keys: sharedKeys}
}

var sharedKeys = [][]string{{"ik0001"}}

// keyCutFromRecord is a preProcess shaped like user code: it cuts a key of
// its own out of each record, the last word of its value, and returns it
// through OneKey (none for a record whose key starts with "p").
func keyCutFromRecord(in Pair) PreResult {
	if strings.HasPrefix(in.Key, "p") {
		return PreResult{Pair: in}
	}
	return OneKey(in, in.Value[strings.LastIndexByte(in.Value, ' ')+1:])
}

// allocOp is an operator whose postProcess emits the pair and allocates
// nothing; pre nil is sharedKeyList.
func allocOp(name string, pre PreFunc) *Operator {
	if pre == nil {
		pre = sharedKeyList
	}
	op := NewOperator(name, pre, func(pair Pair, _ [][]KeyResult, emit Emit) { emit(pair) })
	return op.AddIndex(constIndex{vals: []string{"value"}})
}

// standaloneCounters is the table the contexts mapreduce.NewTaskContext
// builds count in.
var standaloneCounters = mapreduce.NewTaskContext(nil, 0, 0, mapreduce.MapTask).CounterTable()

// stageAllocs opens one stage of an operator planned with decision d on a
// fresh task and returns the steady-state allocations of fn per call,
// averaged over 1,024 calls, which get the stage's Process bound to a
// discarding sink.
func stageAllocs(t *testing.T, pre PreFunc, kind mapreduce.TaskKind, d Decision, factory func(*opExec) mapreduce.StageFactory, fn func(process func(Pair))) float64 {
	t.Helper()
	op := allocOp("op", pre)
	x := newOpExec(op, OperatorPlan{Op: op, Pos: HeadOp, Decisions: []Decision{d}}, &IndexJobConf{}, standaloneCounters)
	ctx := mapreduce.NewTaskContext(sim.NewCluster(sim.DefaultConfig()), 0, 0, kind)
	stage := factory(x)()
	stage.Open(ctx)
	sink := func(Pair) {}
	process := func(in Pair) { stage.Process(ctx, in, sink) }
	const calls = 1024
	fn(process) // warms caches, resolves cells, grows slabs
	n := testing.AllocsPerRun(1, func() {
		for range calls {
			fn(process)
		}
	}) / calls
	stage.Close(ctx, sink)
	return n
}

// TestStageAllocs pins the per-record budgets of the stages (-run Allocs):
// a carrier is task-owned scratch and its encoding a window of the
// stage's byte block, so what is left is a slab now and then — at most
// one per 16 records where encodings are produced — and what the user
// functions allocate themselves. A OneKey result costs what a shared key
// list costs: the runtime holds the key in the carrier's slabs.
func TestStageAllocs(t *testing.T) {
	inline := Decision{Index: 0, Strategy: LookupCache}
	repart := func(b Boundary) Decision { return Decision{Index: 0, Strategy: Repartition, Boundary: b} }
	pending := encodeCarrier(&carrier{Pair: Pair{Key: "r1", Value: "v"}, Keys: [][]string{{"ik0001"}}, Results: make([][]KeyResult, 1)})
	attached := encodeCarrier(&carrier{Pair: Pair{Key: "r1", Value: "v"}, Keys: [][]string{{"ik0001"}},
		Results: [][]KeyResult{{{Key: "ik0001", Values: []string{"value"}}}}})
	one := func(in Pair) func(func(Pair)) {
		return func(process func(Pair)) { process(in) }
	}
	// A new key on every call makes every call a new group.
	groups := func(value string) func(func(Pair)) {
		keys, i := []string{"ik0001", "ik0002"}, 0
		return func(process func(Pair)) {
			process(Pair{Key: keys[i%2], Value: value})
			i++
		}
	}
	inlineNext := func(x *opExec) []mapreduce.StageFactory {
		next := allocOp("next", nil)
		nx := newOpExec(next, uniformPlan(next, HeadOp, LookupCache), &IndexJobConf{}, standaloneCounters)
		return []mapreduce.StageFactory{nx.inlineStage()}
	}
	for _, tc := range []struct {
		name    string
		pre     PreFunc // nil: sharedKeyList
		kind    mapreduce.TaskKind
		d       Decision
		factory func(*opExec) mapreduce.StageFactory
		fn      func(func(Pair))
		most    float64
	}{
		{"inline", nil, mapreduce.MapTask, inline, (*opExec).inlineStage, one(Pair{Key: "r1", Value: "v"}), 0},
		{"inline, a key cut from the record through OneKey", keyCutFromRecord, mapreduce.MapTask, inline, (*opExec).inlineStage, one(Pair{Key: "r1", Value: "payload ik0001"}), 0},
		{"inline, record skipped by preProcess", nil, mapreduce.MapTask, inline, (*opExec).inlineStage, one(Pair{Key: "p1", Value: "v"}), 0},
		{"resume, memoized lookup", nil, mapreduce.MapTask, repart(BoundaryPre),
			func(x *opExec) mapreduce.StageFactory { return x.resumeStage(0, true) }, one(Pair{Key: "ik0001", Value: pending}), 0},
		{"resume, result attached", nil, mapreduce.MapTask, repart(BoundaryIdx),
			func(x *opExec) mapreduce.StageFactory { return x.resumeStage(1, false) }, one(Pair{Key: "ik0001", Value: attached}), 0},
		{"shuffle emit: the encoding's slabs", nil, mapreduce.MapTask, repart(BoundaryPre),
			func(x *opExec) mapreduce.StageFactory { return x.shuffleEmitStage(0) }, one(Pair{Key: "r1", Value: "v"}), 1.0 / 16},
		{"shuffle emit, a key cut from the record through OneKey", keyCutFromRecord, mapreduce.MapTask, repart(BoundaryPre),
			func(x *opExec) mapreduce.StageFactory { return x.shuffleEmitStage(0) }, one(Pair{Key: "r1", Value: "payload ik0001"}), 1.0 / 16},
		{"shuffle emit, pass key: the key and the encoding, in one window", nil, mapreduce.MapTask, repart(BoundaryPre),
			func(x *opExec) mapreduce.StageFactory { return x.shuffleEmitStage(0) }, one(Pair{Key: "p1", Value: "v"}), 1.0 / 16},
		{"group idx, per value: the encoding's slabs", nil, mapreduce.ReduceTask, repart(BoundaryIdx),
			func(x *opExec) mapreduce.StageFactory { return x.groupStage(0, BoundaryIdx, -1, nil) }, one(Pair{Key: "ik0001", Value: pending}), 1.0 / 16},
		{"group idx, per group: nothing more", nil, mapreduce.ReduceTask, repart(BoundaryIdx),
			func(x *opExec) mapreduce.StageFactory { return x.groupStage(0, BoundaryIdx, -1, nil) }, groups(pending), 1.0 / 16},
		{"group late, per value", nil, mapreduce.ReduceTask, repart(BoundaryLate),
			func(x *opExec) mapreduce.StageFactory { return x.groupStage(0, BoundaryLate, -1, inlineNext(x)) }, one(Pair{Key: "ik0001", Value: pending}), 0},
		{"group late, per group", nil, mapreduce.ReduceTask, repart(BoundaryLate),
			func(x *opExec) mapreduce.StageFactory { return x.groupStage(0, BoundaryLate, -1, inlineNext(x)) }, groups(pending), 0},
	} {
		if got := stageAllocs(t, tc.pre, tc.kind, tc.d, tc.factory, tc.fn); got > tc.most {
			t.Errorf("%s: %.4f allocations per record, want at most %.4f", tc.name, got, tc.most)
		}
	}
}

// TestOperatorPhaseAllocsPerTask pins what an operator's map phase pays per
// task beside the output the task retains: nothing. A phase of one-record
// tasks through an inline one-index operator, whose own functions allocate
// nothing and whose lookups hit the warm cache, allocates the blocks its
// tasks' output pairs, bucket lists and reducer lists are cut from (each 16,
// 32, 64, then 128 windows) and a constant that is the same for 64 tasks and
// for 512: the worker's frame keeps its stage, the stage its client view and
// closures, and the tasks' counter and sketch sets are windows of the phase's
// slabs. Exact under the serial executor, whose one frame serves every task.
func TestOperatorPhaseAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own: the count is exact only outside it")
	}
	cfg := sim.DefaultConfig()
	cfg.Nodes, cfg.MapSlotsPerNode, cfg.Parallelism = 6, 2, 1
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 1 // one record per chunk = one map task per record
	e := mapreduce.New(cluster, fs)
	op := allocOp("op", nil)
	x := newOpExec(op, uniformPlan(op, HeadOp, LookupCache), &IndexJobConf{}, e.CounterTable())
	blocks := func(tasks int) (k uint64) {
		for size := 16; tasks > 0; size = min(2*size, 128) {
			tasks, k = tasks-size, k+1
		}
		return 3 * k
	}
	measure := func(tasks int) uint64 {
		records := make([]dfs.Record, tasks)
		for i := range records {
			records[i] = dfs.Record{Key: fmt.Sprintf("r%04d", i), Value: "v"}
		}
		in, err := fs.Create(fmt.Sprintf("in-%d", tasks), records)
		if err != nil {
			t.Fatal(err)
		}
		job := &mapreduce.Job{Name: "allocs", Input: in, MapStagesBefore: []mapreduce.StageFactory{x.inlineStage()}}
		run := func() {
			mp, err := e.NewRun().RunMapPhase(job, nil)
			if err != nil || len(mp.Outputs) != tasks || mp.Counters["efind.op.post.out.records"] != int64(tasks) || mp.Stats[tasks-1].Sketches == nil {
				t.Fatalf("a phase of %d tasks: %d outputs, counters %v, %v", tasks, len(mp.Outputs), mp.Counters, err)
			}
		}
		run()               // warms every node's cache
		least := ^uint64(0) // of three: the runtime's own caches refill now and then
		for i := 0; i < 3; i++ {
			least = min(least, mallocs(run))
		}
		return least
	}
	small, large := measure(64), measure(512)
	t.Logf("%d allocations for 64 tasks, %d for 512", small, large)
	if fixed, fixedLarge := small-blocks(64), large-blocks(512); fixed != fixedLarge || fixed > 64 {
		t.Errorf("an operator phase allocates %d times for 64 tasks and %d for 512: beside %d and %d blocks, want the same constant, at most 64",
			small, large, blocks(64), blocks(512))
	}
}

// mallocs counts what one run of fn allocates, measured once a collection has
// finished and the runtime has gone an allocation-free millisecond, with the
// collector off while fn runs.
func mallocs(fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	for i := 0; i < 50; i++ {
		runtime.ReadMemStats(&before)
		time.Sleep(time.Millisecond)
		if runtime.ReadMemStats(&after); after.Mallocs == before.Mallocs {
			break
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestInlineStageAllocs pins the per-record budget of the fully inline
// stage against a real store: with no-op user functions and a warm cache a
// record allocates nothing — no carrier, no counter name, no closure, no
// request —, whether preProcess returns a shared key list or a key cut
// from the record through OneKey.
func TestInlineStageAllocs(t *testing.T) {
	e := newE2E(t, 10, 5)
	for _, pre := range []struct {
		name string
		fn   PreFunc
	}{{"a shared key list", sharedKeyList}, {"a key cut from the record through OneKey", keyCutFromRecord}} {
		op := NewOperator("op", pre.fn, func(pair Pair, _ [][]KeyResult, emit Emit) { emit(pair) }).AddIndex(e.store)
		plan := uniformPlan(op, HeadOp, LookupCache)
		x := newOpExec(op, plan, &IndexJobConf{}, standaloneCounters)
		ctx := mapreduce.NewTaskContext(e.cluster, 0, 0, mapreduce.MapTask)
		stage := x.inlineStage()()
		stage.Open(ctx)
		sink := func(Pair) {}
		in := Pair{Key: "r1", Value: "payload ik0001"}
		stage.Process(ctx, in, sink) // warms the cache, resolves the cells
		if n := testing.AllocsPerRun(1000, func() { stage.Process(ctx, in, sink) }); n != 0 {
			t.Errorf("%s: one record through inlineStage allocates %.1f times, want 0", pre.name, n)
		}
		if got := ctx.Counter("efind.op.post.out.records"); got != 1002 {
			t.Errorf("%s: post records = %d, want 1002", pre.name, got)
		}
		if got := ctx.Counter(ixclient.CtrProbes("op", e.store.Name())); got != 1002 {
			t.Errorf("%s: cache probes = %d, want 1002", pre.name, got)
		}
	}
}
