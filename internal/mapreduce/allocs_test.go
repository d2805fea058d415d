package mapreduce

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"
	"time"

	"efind/internal/dfs"
	"efind/internal/obs"
)

// firstValue emits one record per key group, as an aggregating reduce or
// combine function does, and allocates nothing.
func firstValue(_ *TaskContext, key string, values []string, emit Emit) {
	emit(Pair{Key: key, Value: values[0]})
}

// groupedRuns deals records pairs over groups keys round-robin into maps runs.
func groupedRuns(records, groups, maps int) []shuffleRun {
	runs := make([]shuffleRun, maps)
	for i := 0; i < records; i++ {
		run := &runs[i%maps]
		run.pairs = append(run.pairs, Pair{Key: fmt.Sprintf("g%04d", i%groups), Value: "v"})
	}
	return runs
}

// sortBudget is what grouping records input records into groups output
// records may allocate: a 16-byte value header per input record and the
// output at its exact size — the refs the records are sorted by live on the
// frame —, an eighth more, the most the allocator's size classes round a
// small allocation up by, and a constant for the rest.
func sortBudget(records, groups int) uint64 { return uint64((16*records+32*groups)*9/8 + 2048) }

// TestReduceTaskAllocs pins the reduce task's buffers: no copy of the input —
// one ref per record, sorted in place of the records, on the frame's
// buffers —, the values of every group windows of one slab, the shard the
// exact copy of what the reducer emitted. So the allocation count depends
// neither on the number of key groups nor on the number of runs, and the
// bytes are the sort's budget.
func TestReduceTaskAllocs(t *testing.T) {
	_, _, e := testEnv(t)
	job := &Job{Name: "allocs", Reduce: firstValue, NumReduce: 1}
	const records = 1000
	measure := func(groups, maps int) (allocs, bytes uint64) {
		runs := groupedRuns(records, groups, maps)
		frames := e.newPhaseFrames(1)
		return allocsAndBytes(20, func() {
			shard, st := e.runReduceTask(job, 0, 0, runs, 0, frames, 0)
			if len(shard) != groups || st.Counters.Get(slotInputRecords) != records {
				t.Fatalf("reduce task produced %d records, counted %d", len(shard), st.Counters.Get(slotInputRecords))
			}
		})
	}
	few, fewBytes := measure(5, 10)
	many, manyBytes := measure(500, 10)
	wide, wideBytes := measure(500, 250)
	t.Logf("reduce task over %d records: %d allocations / %d B in 5 groups, %d / %d B in 500, %d / %d B from 250 runs", records, few, fewBytes, many, manyBytes, wide, wideBytes)
	if few != many || many != wide || many > 8 {
		t.Errorf("reduce task allocations: %d in 5 groups, %d in 500, %d from 250 runs; want the same small constant", few, many, wide)
	}
	if raceEnabled {
		return // the detector pads each allocation, which sortBudget does not know
	}
	for _, c := range []struct{ bytes, budget uint64 }{{fewBytes, sortBudget(records, 5)}, {manyBytes, sortBudget(records, 500)}, {wideBytes, sortBudget(records, 500)}} {
		if c.bytes > c.budget {
			t.Errorf("reduce task over %d records allocates %d B, want at most %d", records, c.bytes, c.budget)
		}
	}
}

// TestReduceShardAllocs pins how a reduce task's shard is sized: by what
// the reducer emits, in one allocation of exactly the records emitted. An
// identity reducer over distinct keys fills a shard made for its input;
// over keys that each come Θ = 4 times it fills the frame's buffer, and its
// shard is the buffer's copy, as is an aggregating reducer's over the same
// keys. So the three cost the same allocations — one more than a reducer
// that emits nothing, whose empty shard costs none —, where a shard sized
// by the groups and grown by doubling would cost a forwarding reducer
// three.
func TestReduceShardAllocs(t *testing.T) {
	_, _, e := testEnv(t)
	const records = 1000
	drop := func(*TaskContext, string, []string, Emit) {}
	measure := func(reduce ReduceFunc, theta, emitted int) (allocs, bytes uint64) {
		job := &Job{Name: "shard", Reduce: reduce, NumReduce: 1}
		runs := groupedRuns(records, records/theta, 10)
		frames := e.newPhaseFrames(1)
		return allocsAndBytes(20, func() {
			shard, _ := e.runReduceTask(job, 0, 0, runs, 0, frames, 0)
			if len(shard) != emitted || cap(shard) != emitted {
				t.Fatalf("reduce task over %d records (Θ = %d) left a shard of %d records, capacity %d; want %d, %d", records, theta, len(shard), cap(shard), emitted, emitted)
			}
		})
	}
	identity, identityBytes := measure(IdentityReduce, 1, records)
	forward, forwardBytes := measure(IdentityReduce, 4, records)
	aggregate, _ := measure(firstValue, 4, records/4)
	none, noneBytes := measure(drop, 4, 0)
	t.Logf("reduce task over %d records: %d allocations / %d B forwarding distinct keys, %d / %d B forwarding Θ = 4, %d aggregating Θ = 4, %d / %d B emitting nothing", records, identity, identityBytes, forward, forwardBytes, aggregate, none, noneBytes)
	if identity != none+1 || forward != none+1 || aggregate != none+1 {
		t.Errorf("shard allocations: %d forwarding distinct keys, %d forwarding Θ = 4, %d aggregating Θ = 4, %d emitting nothing; want one more than emitting nothing for each", identity, forward, aggregate, none)
	}
	if raceEnabled {
		return // the detector pads each allocation
	}
	// The shard is records × 32 B, which the allocator rounds up by at most
	// an eighth.
	if shard := forwardBytes - noneBytes; shard > records*32*9/8 {
		t.Errorf("forwarding Θ = 4 allocates %d B more than emitting nothing, want at most %d: the shard at its exact size", shard, records*32*9/8)
	}
}

// TestCombineAllocs pins the same for the combiner: a bucket is sorted by
// reference like a reduce task's one run, on the frame's buffers, and
// replaced by a bucket sized by its groups — two allocations per bucket
// whatever the number of groups, inside the sort's budget.
func TestCombineAllocs(t *testing.T) {
	_, _, e := testEnv(t)
	job := &Job{Name: "allocs", Reduce: firstValue, Combine: firstValue, NumReduce: 10}
	const records = 1000
	measure := func(groups, buckets int) (allocs, bytes uint64) {
		runs := groupedRuns(records, groups*buckets, buckets) // bucket b holds the keys ≡ b mod buckets
		out := &MapOutput{Parts: job.NumReduce}
		var bufs sortBufs // a frame's
		return allocsAndBytes(20, func() {
			out.Buckets, out.Reducers = out.Buckets[:0], out.Reducers[:0]
			for r, run := range runs {
				out.Buckets, out.Reducers = append(out.Buckets, run.pairs), append(out.Reducers, int32(r))
			}
			if left := e.combineBuckets(NewTaskContext(e.Cluster, 0, 0, MapTask), job, out, &bufs); left != groups*buckets {
				t.Fatalf("combiner left %d records, want %d", left, groups*buckets)
			}
		})
	}
	few, fewBytes := measure(5, 1)
	many, manyBytes := measure(500, 1)
	split, splitBytes := measure(50, 10)
	t.Logf("combiner over %d records: %d allocations / %d B in 5 groups, %d / %d B in 500, %d / %d B in 10 buckets of 50", records, few, fewBytes, many, manyBytes, split, splitBytes)
	if few != many || split != many+2*9 || many > 8 {
		t.Errorf("combiner allocations: %d in 5 groups, %d in 500, %d in 10 buckets; want the same small constant, and 2 more per further bucket", few, many, split)
	}
	if raceEnabled {
		return // the detector pads each allocation, which sortBudget does not know
	}
	for _, c := range []struct{ bytes, budget uint64 }{{fewBytes, sortBudget(records, 5)}, {manyBytes, sortBudget(records, 500)}, {splitBytes, sortBudget(records, 500)}} {
		if c.bytes > c.budget {
			t.Errorf("combiner over %d records allocates %d B, want at most %d", records, c.bytes, c.budget)
		}
	}
}

// TestTaskContextCellAllocs pins what a task pays for its counters: a task
// that touches only the engine's built-ins allocates nothing for them beyond
// the context itself, and binding more grows its row and order list now and
// then, never an allocation per counter.
func TestTaskContextCellAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		ctx := NewTaskContext(nil, 0, 0, MapTask)
		ctx.Cell(slotInputRecords).Add(1)
		ctx.Cell(slotInputBytes).Add(10)
		ctx.Cell(slotOutputRecords).Add(1)
		ctx.Cell(slotOutputBytes).Add(10)
	}); n > 1 {
		t.Errorf("a task with the four built-in counters allocates %.0f times, want 1 (the context)", n)
	}
	ctx := NewTaskContext(nil, 0, 0, MapTask)
	slots, cells := make([]Slot, 64), make([]Cell, 64)
	for i := range slots {
		slots[i] = ctx.CounterTable().Slot(fmt.Sprintf("efind.op.counter.%02d", i))
		cells[i] = ctx.Cell(slots[i])
	}
	if n := testing.AllocsPerRun(100, func() {
		for i, s := range slots {
			if ctx.Cell(s) != cells[i] {
				t.Fatal("a bound cell moved")
			}
			cells[i].Add(1)
			ctx.Cell(s).Add(1)
		}
	}); n != 0 {
		t.Errorf("adding to bound cells allocates %.1f times, want 0", n)
	}
	if got := ctx.Counter("efind.op.counter.63"); got != 202 {
		t.Errorf("counter = %d, want 202", got)
	}
}

// TestCellKeySet pins the export rule: a counter exists in the task's
// statistics iff it was added to — even by zero — not because its cell
// was bound; and taking them leaves the frame's row clear.
func TestCellKeySet(t *testing.T) {
	_, _, e := testEnv(t)
	frames := e.newPhaseFrames(1)
	f := frames.start(0, e, 0, 0, MapTask, 0)
	tab, ctx := e.CounterTable(), &f.ctx
	ctx.Cell(tab.Slot("resolved.only"))
	ctx.Cell(tab.Slot("added.zero")).Add(0)
	ctx.Inc("inc.zero", 0)
	ctx.Cell(tab.Slot("added")).Add(3)
	st := frames.done(0, f)
	// The order the task bound its counters in: newest first.
	want := []obs.Metric{{Name: "added", Value: 3}, {Name: "inc.zero"}, {Name: "added.zero"}}
	if got := named(tab, st.Counters); !reflect.DeepEqual(got, want) {
		t.Fatalf("counters = %v, want %v", got, want)
	}
	if cap(st.Counters) != len(want)+1 {
		t.Errorf("the set has room for %d counters, want its %d and task.retries", cap(st.Counters), len(want))
	}
	if st.Sketches != nil {
		t.Errorf("sketches = %v, want none", st.Sketches)
	}
	if f.ctrs.last != 0 || slices.ContainsFunc(f.ctrs.row, func(e slotState) bool { return e != slotState{} }) {
		t.Errorf("the frame's row is not clear after its task: last bound %d", f.ctrs.last)
	}
}

// named spells a set out with its table's names.
func named(tab *CounterTable, set CounterSet) []obs.Metric {
	names, out := tab.Names(), make([]obs.Metric, len(set))
	for i, c := range set {
		out[i] = obs.Metric{Name: names[c.Slot], Value: c.Value}
	}
	return out
}

// allocsAndBytes measures fn's allocations and allocated bytes per call,
// after one warm-up call, with the collector off so nothing but fn counts.
// MemStats counts the whole process, and what else allocated in the window
// was the runtime starting a thread — an m, two g and two profiling stacks:
// 2,048 B + 2×448 B + 2×1,152 B — for a collection's background work. So it
// first finishes a collection and waits for a millisecond in which the
// process allocates nothing.
func allocsAndBytes(runs int, fn func()) (allocs, bytes uint64) {
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
	fn()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestMapTaskAllocs pins what a map task pays: nothing that grows with the
// reducer count, and on its worker's frame no allocation of its own. A
// one-record identity task costs the same routed 16 ways and 4,096 ways —
// no allocation, and in bytes its pair, bucket list and reducer list (60 B)
// with their share of the frame's doubling blocks — because the output is
// sparse, the frame is the worker's, kept
// from task to task with its staging buffer, sinks, counter row and blocks,
// and the task's MapOutput and counter set are windows of the phase's slabs,
// made once for the phase.
func TestMapTaskAllocs(t *testing.T) {
	_, fs, e := testEnv(t)
	in, err := fs.Create("one", []dfs.Record{{Key: "k", Value: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	measure := func(numReduce int) (allocs, bytes uint64) {
		job := &Job{Name: "allocs", Input: in, Reduce: IdentityReduce, NumReduce: numReduce}
		if err := job.validate(e); err != nil {
			t.Fatal(err)
		}
		frames := e.newPhaseFrames(runs + 1) // the warm-up task makes the slab
		return allocsAndBytes(runs, func() {
			out, _ := e.runMapTask(job, 0, 0, in.Chunks[0], 0, 0, frames, 0)
			if len(out.Buckets) != 1 || len(out.Buckets[0]) != 1 || out.Parts != numReduce {
				t.Fatalf("map output %+v", out)
			}
		})
	}
	narrowAllocs, narrowBytes := measure(16)
	wideAllocs, wideBytes := measure(4096)
	t.Logf("one-record map task: %d allocations, %d B at 16 reducers; %d, %d B at 4,096", narrowAllocs, narrowBytes, wideAllocs, wideBytes)
	if narrowAllocs != wideAllocs || narrowBytes != wideBytes {
		t.Errorf("a one-record map task costs %d allocations / %d B at 16 reducers but %d / %d B at 4,096", narrowAllocs, narrowBytes, wideAllocs, wideBytes)
	}
	if wideAllocs > 0 || wideBytes > 96 {
		t.Errorf("a one-record map task on a used frame costs %d allocations / %d B, want 0 / at most 96 B", wideAllocs, wideBytes)
	}
}

// slabs is how many blocks a frame cuts n one-element windows from: 16
// elements, 32, 64, and 128 each from then on.
func slabs(n int) (k uint64) {
	for size := 16; n > 0; size = min(2*size, 128) {
		n, k = n-size, k+1
	}
	return k
}

// phaseAllocs is the least, of three, allocations of a map phase of
// tasks one-record tasks on e — and with reduce, of a reduce phase of as
// many one-record tasks after it.
func phaseAllocs(t *testing.T, fs *dfs.FS, e *Engine, tasks int, reduce bool) uint64 {
	fs.ChunkTarget = 1 // one record per chunk = one map task per record
	records := make([]dfs.Record, tasks)
	for i := range records {
		records[i] = dfs.Record{Key: strconv.Itoa(i), Value: "v"}
	}
	in, err := fs.Create(fmt.Sprintf("in-%d-%v-%p", tasks, reduce, e.Trace), records)
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{Name: "allocs", Input: in}
	if reduce {
		job.Reduce, job.NumReduce = IdentityReduce, tasks
		job.Partition = func(key string, n int) int { // key i to reducer i: one record each
			i, _ := strconv.Atoi(key)
			return i % n
		}
	}
	least := ^uint64(0) // of three: the runtime's own caches (sudogs, dead goroutines) refill now and then
	for i := 0; i < 3; i++ {
		allocs, _ := allocsAndBytes(2, func() {
			r := e.NewRun()
			mp, err := r.RunMapPhase(job, nil)
			if err != nil || len(mp.Outputs) != tasks {
				t.Fatalf("map phase of %d tasks: %d outputs, %v", tasks, len(mp.Outputs), err)
			}
			if !reduce {
				return
			}
			sub, err := r.RunReduceSubset(job, mp.Outputs, nil)
			if err != nil || len(sub.Shards) != tasks || len(sub.Shards[tasks-1]) != 1 {
				t.Fatalf("reduce phase of %d tasks: %d shards, %v", tasks, len(sub.Shards), err)
			}
		})
		least = min(least, allocs)
	}
	return least
}

// TestPhaseAllocsPerTask pins what a phase pays per task beside the task's
// own work: nothing. A phase of one-record tasks allocates what its reduce
// tasks retain — a value slab and a shard each — times the task count, the
// blocks its map tasks' pairs, bucket lists and reducer lists are cut from
// (blocks: each frame's double), and a constant that is the same for 200
// tasks and for 2,000: no closure,
// scheduler entry, sink, MapOutput or counter set per task (the outputs and
// the sets are windows of one slab each per phase).
func TestPhaseAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race a reduce task allocates once more than it does without: the per-task count is exact only outside it")
	}
	const perMap, perReduce = 0, 2
	for _, parallelism := range []int{1, 4} {
		fs, e := parEnv(t, parallelism)
		for _, tc := range []struct {
			name    string
			reduce  bool
			perTask uint64
		}{{"map-only", false, perMap}, {"map+reduce", true, perMap + perReduce}} {
			small, large := phaseAllocs(t, fs, e, 200, tc.reduce), phaseAllocs(t, fs, e, 2000, tc.reduce)
			t.Logf("parallelism %d, %s: %d allocations for 200 tasks, %d for 2,000", parallelism, tc.name, small, large)
			// Exact under the serial executor, whose one frame cuts all the
			// blocks. Under the pool each worker's frame doubles its own, and
			// blocks estimates them as if the tasks were shared evenly: slabs
			// is a step function, so an uneven share costs a few blocks more
			// or fewer. The slack absorbs that and the sudogs and goroutines
			// the waits take from the runtime now and then: 64 in 2,000 tasks
			// is still no allocation per task.
			slack := uint64(0)
			if parallelism > 1 {
				slack = 64
			}
			blocks := func(tasks int) uint64 { // pairs, bucket lists, reducer lists
				return 3 * uint64(parallelism) * slabs((tasks+parallelism-1)/parallelism)
			}
			fixed, fixedLarge := small-200*tc.perTask-blocks(200), large-2000*tc.perTask-blocks(2000)
			if fixed > 160 || fixedLarge+slack < fixed || fixedLarge > fixed+slack {
				t.Errorf("parallelism %d, %s phase: %d allocations for 200 tasks, %d for 2,000; want %d per task, %d and %d blocks and the same constant (within %d), at most 160",
					parallelism, tc.name, small, large, tc.perTask, blocks(200), blocks(2000), slack)
			}
		}
	}
}

// TestShuffleIndexAllocs: a reduce phase's shuffle index is the same two
// allocations whatever maps × reducers.
func TestShuffleIndexAllocs(t *testing.T) {
	measure := func(maps, numReduce int) uint64 {
		job := &Job{Name: "allocs", NumReduce: numReduce}
		outputs := make([]*MapOutput, maps)
		for m := range outputs {
			o := &MapOutput{Split: m, Parts: numReduce}
			for r := m % 3; r < numReduce; r += 3 {
				o.Buckets, o.Reducers = append(o.Buckets, []Pair{{Key: "k"}}), append(o.Reducers, int32(r))
			}
			outputs[m] = o
		}
		allocs, _ := allocsAndBytes(5, func() {
			runs, start, err := shuffleIndex(job, outputs)
			if err != nil || start[numReduce] != len(runs) || start[numReduce-1] == len(runs) {
				t.Fatalf("index of %d maps × %d reducers: %d runs, last reducer's from %d, %v", maps, numReduce, len(runs), start[numReduce-1], err)
			}
		})
		return allocs
	}
	small, large := measure(3, 4), measure(2000, 1000)
	if small != large || large > 2 {
		t.Errorf("shuffle index: %d allocations for 3 maps × 4 reducers, %d for 2,000 × 1,000; want the same, at most 2", small, large)
	}
}
