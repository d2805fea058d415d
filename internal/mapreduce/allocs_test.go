package mapreduce

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"efind/internal/dfs"
)

// reduceTaskAllocs measures one reduce task over `records` records spread
// over `groups` keys, delivered by ten map outputs.
func reduceTaskAllocs(t *testing.T, records, groups int) float64 {
	t.Helper()
	_, _, e := testEnv(t)
	const maps = 10
	runs := make([]shuffleRun, maps)
	for i := 0; i < records; i++ {
		run := &runs[i%maps]
		run.pairs = append(run.pairs, Pair{Key: fmt.Sprintf("g%04d", i%groups), Value: "v"})
	}
	job := &Job{Name: "allocs", Reduce: IdentityReduce, NumReduce: 1}
	frames := e.newFramePool()
	return testing.AllocsPerRun(20, func() {
		shard, st := e.runReduceTask(job, 0, 0, runs, 0, frames)
		if len(shard) != records || st.Counters.Get(CounterInputRecords) != int64(records) {
			t.Fatalf("reduce task produced %d records, counted %d", len(shard), st.Counters.Get(CounterInputRecords))
		}
	})
}

// TestReduceTaskAllocs pins the reduce task's buffers: the input is
// allocated once at its exact size, the values of every group are windows
// of one slab, and the sort needs no reflection — so the allocation count
// does not grow with the number of key groups.
func TestReduceTaskAllocs(t *testing.T) {
	few, many := reduceTaskAllocs(t, 1000, 5), reduceTaskAllocs(t, 1000, 500)
	t.Logf("reduce task over 1000 records: %.0f allocations in 5 groups, %.0f in 500 groups", few, many)
	if many > few+4 {
		t.Errorf("reduce task allocations grow with the groups: %.0f in 5 groups, %.0f in 500", few, many)
	}
	if many > 30 {
		t.Errorf("reduce task over 1000 records in 500 groups allocates %.0f times, want a small constant", many)
	}
}

// TestTaskContextCellAllocs pins what a task pays for its counters: a task
// that touches only a handful — the engine's built-ins — allocates nothing
// for them beyond the context itself, and resolving more costs a slab
// chunk now and then, never an allocation per counter.
func TestTaskContextCellAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		ctx := NewTaskContext(nil, 0, 0, MapTask)
		ctx.Inc(CounterInputRecords, 1)
		ctx.Inc(CounterInputBytes, 10)
		ctx.Inc(CounterOutputRecords, 1)
		ctx.Inc(CounterOutputBytes, 10)
	}); n > 1 {
		t.Errorf("a task with the four built-in counters allocates %.0f times, want 1 (the context)", n)
	}
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("efind.op.counter.%02d", i)
	}
	ctx := NewTaskContext(nil, 0, 0, MapTask)
	cells := make([]*Cell, len(names))
	for i, name := range names {
		cells[i] = ctx.Cell(name)
	}
	if n := testing.AllocsPerRun(100, func() {
		for i, name := range names {
			if ctx.Cell(name) != cells[i] {
				t.Fatal("a resolved cell moved")
			}
			cells[i].Add(1)
			ctx.Inc(name, 1)
		}
	}); n != 0 {
		t.Errorf("adding to resolved cells allocates %.1f times, want 0", n)
	}
	if got := ctx.Counter(names[63]); got != 202 {
		t.Errorf("counter = %d, want 202", got)
	}
}

// TestCellKeySet pins the export rule: a counter exists in the task's
// statistics iff it was added to — even by zero — not because its cell
// was resolved.
func TestCellKeySet(t *testing.T) {
	_, _, e := testEnv(t)
	ctx := NewTaskContext(nil, 0, 0, MapTask)
	ctx.Cell("resolved.only")
	ctx.Cell("added.zero").Add(0)
	ctx.Inc("inc.zero", 0)
	ctx.Cell("added").Add(3)
	st := e.taskStats(ctx)
	// The order the context chains its cells in: newest first.
	want := CounterSet{{Name: "added", Value: 3}, {Name: "inc.zero"}, {Name: "added.zero"}}
	if !reflect.DeepEqual(st.Counters, want) {
		t.Fatalf("counters = %v, want %v", st.Counters, want)
	}
	if cap(st.Counters) != len(want)+1 {
		t.Errorf("the set has room for %d counters, want its %d and task.retries", cap(st.Counters), len(want))
	}
	if st.Sketches != nil {
		t.Errorf("sketches = %v, want none", st.Sketches)
	}
}

// allocsAndBytes measures fn's allocations and allocated bytes per call,
// after one warm-up call, with the collector off so nothing but fn counts.
func allocsAndBytes(runs int, fn func()) (allocs, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestMapTaskAllocs pins what a map task pays: what it retains and nothing
// that grows with the reducer count. With the phase's pool warm a
// one-record identity task costs the same four allocations routed 16 ways
// and 4,096 ways — its output, the one-record slab, the sink and the counter
// set — because the output is sparse and the frame, staging buffer
// included, is the phase's, handed on.
func TestMapTaskAllocs(t *testing.T) {
	_, fs, e := testEnv(t)
	in, err := fs.Create("one", []dfs.Record{{Key: "k", Value: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(numReduce int) (allocs, bytes uint64) {
		job := &Job{Name: "allocs", Input: in, Reduce: IdentityReduce, NumReduce: numReduce}
		if err := job.validate(e); err != nil {
			t.Fatal(err)
		}
		frames := e.newFramePool()
		return allocsAndBytes(200, func() {
			out, _ := e.runMapTask(job, 0, 0, in.Chunks[0], 0, 0, frames)
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
	if wideAllocs > 4 || wideBytes > 320 {
		t.Errorf("a one-record map task on a warm pool costs %d allocations / %d B, want at most 4 / 320 B", wideAllocs, wideBytes)
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
