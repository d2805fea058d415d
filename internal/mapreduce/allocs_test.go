package mapreduce

import (
	"fmt"
	"testing"
)

// reduceTaskAllocs measures one reduce task over `records` records spread
// over `groups` keys, delivered by ten map outputs.
func reduceTaskAllocs(t *testing.T, records, groups int) float64 {
	t.Helper()
	_, _, e := testEnv(t)
	const maps = 10
	outputs := make([]*MapOutput, maps)
	for m := range outputs {
		outputs[m] = &MapOutput{Split: m, Buckets: make([][]Pair, 1)}
	}
	for i := 0; i < records; i++ {
		o := outputs[i%maps]
		o.Buckets[0] = append(o.Buckets[0], Pair{Key: fmt.Sprintf("g%04d", i%groups), Value: "v"})
	}
	job := &Job{Name: "allocs", Reduce: IdentityReduce, NumReduce: 1}
	return testing.AllocsPerRun(20, func() {
		shard, st := e.runReduceTask(job, 0, 0, outputs, 0)
		if len(shard) != records || st.Counters[CounterInputRecords] != int64(records) {
			t.Fatalf("reduce task produced %d records, counted %d", len(shard), st.Counters[CounterInputRecords])
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
	want := map[string]int64{"added.zero": 0, "inc.zero": 0, "added": 3}
	if len(st.Counters) != len(want) {
		t.Fatalf("counters = %v, want %v", st.Counters, want)
	}
	for k, v := range want {
		if got, ok := st.Counters[k]; !ok || got != v {
			t.Errorf("counter %q = %d (present %v), want %d", k, got, ok, v)
		}
	}
	if st.Sketches != nil {
		t.Errorf("sketches = %v, want none", st.Sketches)
	}
}
