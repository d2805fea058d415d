package mapreduce

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"efind/internal/chaos"
	"efind/internal/dfs"
	"efind/internal/obs"
	"efind/internal/sim"
)

// The frame tests run tasks that leave as much as they can in their
// context — counters of their own, a sketch, charges, spans — over frames a
// worker keeps from task to task, and hold every task to what it yields on a
// frame of its own.

// hygieneCounters is how many counters of its own split s touches: the
// first task on a frame grows its row, a later one may need more or fewer.
var hygieneCounters = [shuffleSplits]int{2, 12, 5, 3, 20, 9}

// hygieneJob fans each split out like the shuffle tests do, and has every
// stage that opens — map side and reduce side — check that its context
// carries nothing of another task.
func hygieneJob(t *testing.T, c shuffleCase, e *Engine, name string) *Job {
	t.Helper()
	fs := e.FS
	job := c.job(shuffleInput(t, fs, name))
	fan := job.Map
	job.Map = func(ctx *TaskContext, in Pair, emit Emit) {
		var s int
		fmt.Sscan(in.Key, &s)
		for i := 0; i < hygieneCounters[s]; i++ {
			ctx.Inc(fmt.Sprintf("hygiene.c%02d", i), int64(s+i))
		}
		ctx.Sketch("hygiene.sk", 16).Add(in.Key)
		ctx.Charge(0.001 * float64(s+1))
		fan(ctx, in, emit)
	}
	fresh := func() Stage {
		return &FuncStage{OnOpen: func(ctx *TaskContext) {
			kept := slices.ContainsFunc(ctx.sketches, func(s taskSketch) bool {
				return slices.ContainsFunc(s.fm.Vectors(), func(v uint64) bool { return v != 0 })
			})
			if ctx.ctrs.last != 0 || slices.ContainsFunc(ctx.ctrs.row, func(e slotState) bool { return e != slotState{} }) || ctx.inUse != 0 || kept {
				t.Errorf("%s task %d opens on a context with counters or sketches: last bound %d, %d sketches in use, %v", ctx.Kind, ctx.TaskID, ctx.ctrs.last, ctx.inUse, ctx.sketches)
			}
			if ctx.Split != ctx.TaskID {
				t.Errorf("%s task %d opens with Split %d", ctx.Kind, ctx.TaskID, ctx.Split)
			}
			// Its own input read or shuffle is all it has been charged for:
			// when spans are recorded, one span covers the whole charge.
			own := len(ctx.spans) == 0
			if ctx.traced && ctx.extra != 0 {
				own = len(ctx.spans) == 1 && ctx.spans[0].Start == 0 && ctx.spans[0].Dur == ctx.extra
			}
			if !own {
				t.Errorf("%s task %d opens charged %g with spans %v", ctx.Kind, ctx.TaskID, ctx.extra, ctx.spans)
			}
		}}
	}
	job.MapStagesBefore = []StageFactory{fresh}
	job.ReduceStagesAfter = []StageFactory{fresh}
	if err := job.validate(e); err != nil {
		t.Fatal(err)
	}
	return job
}

// cloneStats copies everything a TaskStats points to.
func cloneStats(st TaskStats) TaskStats {
	st.Counters, st.Spans, st.Sketches = slices.Clone(st.Counters), slices.Clone(st.Spans), slices.Clone(st.Sketches)
	for i := range st.Sketches {
		st.Sketches[i].Vectors = slices.Clone(st.Sketches[i].Vectors)
	}
	return st
}

func cloneBuckets(o *MapOutput) [][]Pair {
	out := make([][]Pair, len(o.Buckets))
	for i, b := range o.Buckets {
		out[i] = slices.Clone(b)
	}
	return out
}

// sinceOpen is a stage with state of its own: it counts the records it has
// seen since it opened, and at Close adds the count to a counter. An
// instance serves every task of its frame, so a count that Open did not
// reset shows in the next task's counters.
func sinceOpen() Stage {
	var n int64
	var seen Cell
	return &FuncStage{
		OnOpen: func(ctx *TaskContext) { n, seen = 0, ctx.Cell(ctx.CounterTable().Slot("hygiene.since.open")) },
		OnProcess: func(_ *TaskContext, in Pair, emit Emit) {
			n++
			emit(in)
		},
		OnClose: func(*TaskContext, Emit) { seen.Add(n) },
	}
}

// TestFrameHygiene: a task on a frame its worker's earlier tasks have used —
// their stage instances, reopened, sinceOpen's among them — yields what it
// yields on a frame of its own, whatever happened to those
// tasks — they completed, were failed by the injector after completing,
// aborted half-way, lost or won a speculation race — and what a completed
// task retains (counters, spans, sketch vectors, output) does not change
// when its frame goes on to other tasks, retries or backups: the output
// pairs, bucket lists and MapOutput cut from the frame's blocks and the
// phase's slab are windows no other attempt is handed, on the scatter's path
// (seven reducers) and the map-only sink's. An abort costs the worker its
// frame — the next attempt starts on a new one — and the coordinator's
// frame, on which backups run, is no worker's. Run under -race -count=10.
func TestFrameHygiene(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		parallelism int
		c           shuffleCase
	}{
		{1, shuffleCase{numReduce: 7, perSplit: 40, combine: "off"}},
		{4, shuffleCase{numReduce: 7, perSplit: 40, combine: "off"}},
		{1, shuffleCase{perSplit: 1}}, // map-only: a one-pair window per task
		{4, shuffleCase{perSplit: 1}},
	} {
		parallelism, c := tc.parallelism, tc.c
		_, e := parEnv(t, parallelism)
		e.Trace = obs.NewTrace() // tasks record spans
		job := hygieneJob(t, c, e, "in")
		job.MapStagesBefore = append(job.MapStagesBefore, sinceOpen)
		job.ReduceStagesAfter = append(job.ReduceStagesAfter, sinceOpen)
		if c.numReduce == 0 {
			job.Reduce, job.NumReduce, job.ReduceStagesAfter = nil, 0, nil
		}
		attempt := func(frames *phaseFrames, worker, s int, abort bool) (*MapOutput, TaskStats, error) {
			j := *job
			if fan := job.Map; abort {
				j.Map = func(ctx *TaskContext, in Pair, emit Emit) {
					n := 0
					fan(ctx, in, func(p Pair) {
						if n++; n > c.perSplit/2 {
							ctx.Abort(boom)
						}
						emit(p)
					})
				}
			}
			r, st, err := e.attempt(&j, &phaseSpec{
				label: func(i int) string { return fmt.Sprint("map task ", i) },
				run: func(worker, i int, node sim.NodeID, at float64) (attemptResult, TaskStats) {
					out, st := e.runMapTask(&j, i, i, j.Input.Chunks[i], node, at, frames, worker)
					return attemptResult{out: out}, st
				},
			}, worker, s, sim.NodeID(s%4), 0)
			return r.out, st, err
		}

		// The reference: every split on a frame of its own.
		refStats, refOut := make([]TaskStats, shuffleSplits), make([]*MapOutput, shuffleSplits)
		for s := range refStats {
			var err error
			if refOut[s], refStats[s], err = attempt(e.newPhaseFrames(1), 0, s, false); err != nil {
				t.Fatal(err)
			}
			if got := len(refStats[s].Counters); got != hygieneCounters[s]+5 || len(refStats[s].Spans) == 0 || refStats[s].Sketches.Get("hygiene.sk") == nil {
				t.Fatalf("split %d: %d counters, spans %v, sketches %v: the task leaves too little behind to test with", s, got, refStats[s].Spans, refStats[s].Sketches)
			}
		}

		// One worker's frame, attempt after attempt, an abort in between:
		// every completed attempt equals its reference, when it returns and
		// after the frame has served every later attempt. The abort empties
		// the worker's slot, and the attempt after it runs on a frame that is
		// not the one the abort dirtied.
		frames := e.newPhaseFrames(shuffleSplits)
		if want := min(parallelism, shuffleSplits) + 1; len(frames.slot) != want || frames.coordinator() != want-1 {
			t.Fatalf("parallelism %d: %d frame slots, the coordinator's at %d, want %d: one per worker and the coordinator's last", parallelism, len(frames.slot), frames.coordinator(), want)
		}
		type kept struct {
			s      int
			st, cp TaskStats
			out    *MapOutput
			bk     [][]Pair
		}
		var keep []kept
		for round := 0; round < 3; round++ {
			for s := 0; s < shuffleSplits; s++ {
				dirtied := frames.slot[0]
				if s == 3 {
					if _, _, err := attempt(frames, 0, 2, true); !errors.Is(err, boom) {
						t.Fatalf("aborting attempt: %v", err)
					}
					if frames.slot[0] != nil {
						t.Fatalf("round %d: the aborted attempt left its frame in the worker's slot", round)
					}
				}
				out, st, err := attempt(frames, 0, s, false)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(st, refStats[s]) || !reflect.DeepEqual(out.Buckets, refOut[s].Buckets) {
					t.Fatalf("parallelism %d round %d split %d on a used frame:\n got %+v\nwant %+v", parallelism, round, s, st, refStats[s])
				}
				if fresh := frames.slot[0] != dirtied; fresh != (s == 3 || dirtied == nil) {
					t.Fatalf("round %d split %d: ran on a fresh frame: %v; want one exactly for the worker's first task and after the abort", round, s, fresh)
				}
				keep = append(keep, kept{s, st, cloneStats(st), out, cloneBuckets(out)})
				if s%2 == 1 { // a retry on the frame: the attempt before it is kept too
					out, st, err := attempt(frames, 0, s, false)
					if err != nil || !reflect.DeepEqual(st, refStats[s]) || !reflect.DeepEqual(out.Buckets, refOut[s].Buckets) {
						t.Fatalf("parallelism %d round %d split %d retried on its frame: %v\n got %+v\nwant %+v", parallelism, round, s, err, st, refStats[s])
					}
					keep = append(keep, kept{s, st, cloneStats(st), out, cloneBuckets(out)})
				}
			}
		}
		// A backup runs as the coordinator: on a frame of that slot, whatever
		// the workers' slots hold, and it leaves theirs alone.
		worker0 := frames.slot[0]
		for round := 0; round < 2; round++ {
			out, st, err := attempt(frames, frames.coordinator(), 4, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st, refStats[4]) || !reflect.DeepEqual(out.Buckets, refOut[4].Buckets) {
				t.Fatalf("parallelism %d: split 4 on the coordinator's frame:\n got %+v\nwant %+v", parallelism, st, refStats[4])
			}
			keep = append(keep, kept{4, st, cloneStats(st), out, cloneBuckets(out)})
		}
		for w, f := range frames.slot {
			if own := w == 0 || w == frames.coordinator(); (f != nil) != own {
				t.Fatalf("parallelism %d: slot %d holds a frame: %v, want one in worker 0's and the coordinator's alone", parallelism, w, f != nil)
			}
		}
		if co := frames.slot[frames.coordinator()]; co == worker0 || frames.slot[0] != worker0 {
			t.Fatalf("parallelism %d: the coordinator's frame is worker 0's, or moved it", parallelism)
		}
		outs, pairs := map[*MapOutput]bool{}, map[*Pair]bool{}
		for _, k := range keep {
			if !reflect.DeepEqual(k.st, k.cp) || !reflect.DeepEqual(k.out.Buckets, k.bk) {
				t.Fatalf("parallelism %d: what split %d retained changed while its frame served other tasks:\n now %+v\n was %+v", parallelism, k.s, k.st, k.cp)
			}
			if outs[k.out] {
				t.Fatalf("parallelism %d: split %d was handed a MapOutput another attempt holds", parallelism, k.s)
			}
			outs[k.out] = true
			for _, b := range k.out.Buckets {
				for i := range b {
					if pairs[&b[i]] {
						t.Fatalf("parallelism %d: split %d was handed a pair another attempt holds", parallelism, k.s)
					}
					pairs[&b[i]] = true
				}
			}
		}

		// Through the engine, map and reduce phases, with first attempts of
		// odd tasks failed by the injector and stragglers raced by backups:
		// what each task counted is what it counts alone, in the same order,
		// plus the retry and race counters; the reducers see every record.
		job.FaultInjector = func(kind TaskKind, task, attempt int) bool { return task%2 == 1 && attempt == 1 }
		job.Chaos = chaos.MustNew(chaos.Config{
			Seed: 7, Spec: chaos.Speculation{Enabled: true}, StragglerRate: 0.4, StragglerFactor: 6,
		}, 4)
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters[chaos.CtrSpecLaunched] == 0 || res.Counters[CounterTaskRetries] == 0 {
			t.Fatalf("no backup launched or no attempt failed: %v", res.Counters)
		}
		for s, st := range res.MapStats {
			own := slices.DeleteFunc(slices.Clone(st.Counters), func(c TaskCounter) bool {
				return c.Slot == slotRetries || c.Slot == slotTasksLost || c.Slot >= slotSpecLaunched && c.Slot <= slotSpecLost
			})
			if !reflect.DeepEqual(own, refStats[s].Counters) || !reflect.DeepEqual(st.Sketches, refStats[s].Sketches) {
				t.Errorf("parallelism %d map task %d counted\n %v %v\nwant\n %v %v", parallelism, s, own, st.Sketches, refStats[s].Counters, refStats[s].Sketches)
			}
			if !reflect.DeepEqual(res.MapOutputs[s].Buckets, refOut[s].Buckets) {
				t.Errorf("parallelism %d map task %d: output differs from the lone attempt's", parallelism, s)
			}
		}
		// sinceOpen runs ahead of Map and behind the identity Reduce: it sees
		// a map task's input records and a reduce task's output records.
		since := e.CounterTable().Slot("hygiene.since.open")
		for kind, stats := range map[TaskKind][]TaskStats{MapTask: res.MapStats, ReduceTask: res.ReduceStats} {
			for _, st := range stats {
				want := st.Counters.Get(slotInputRecords)
				if kind == ReduceTask {
					want = st.Counters.Get(slotOutputRecords)
				}
				if got := st.Counters.Get(since); got != want {
					t.Errorf("parallelism %d %s task %d: its stage counted %d records since it opened, want %d", parallelism, kind, st.ID, got, want)
				}
			}
		}
		var want []dfs.Record
		if c.numReduce == 0 {
			for s := range shuffleSplits {
				want = append(want, dfs.Record(emission(s, 0)))
			}
		} else {
			want = slices.Concat(c.want()...)
		}
		got := res.Output.All()
		for _, rec := range want {
			if !slices.Contains(got, rec) {
				t.Fatalf("parallelism %d: the job's output lacks %v", parallelism, rec)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: the job's output holds %d records, want %d", parallelism, len(got), len(want))
		}
	}
}

// raiseProcs is an arbiter that grants the whole cluster and raises
// GOMAXPROCS while doing so: between the engine sizing a phase's frames and
// the scheduler sizing its pool.
type raiseProcs struct{ to int }

func (a raiseProcs) BeginPhase(_ TaskKind, _ int, ready float64) PhaseGrant {
	runtime.GOMAXPROCS(a.to)
	return PhaseGrant{Start: ready}
}
func (raiseProcs) EndPhase(TaskKind, *sim.Lease, float64, float64) {}

// TestFramesOutliveARaisedGOMAXPROCS: with Parallelism unset the worker count
// follows GOMAXPROCS, which the engine reads once per phase — the pool is
// capped at the count the frames were sized for, so a worker index never
// reaches the coordinator's slot or passes the last one.
func TestFramesOutliveARaisedGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := shuffleCase{numReduce: 7, perSplit: 40, combine: "off"}
	_, e := parEnv(t, 0)
	job := c.job(shuffleInput(t, e.FS, "in"))
	want, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, to := range []int{2, 8} {
		runtime.GOMAXPROCS(1)
		got, err := e.NewServiceRun(RunConfig{Arbiter: raiseProcs{to}}).Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Output.All(), want.Output.All()) || !reflect.DeepEqual(got.Counters, want.Counters) || got.VTime != want.VTime {
			t.Fatalf("GOMAXPROCS raised to %d mid-phase: the job ended differently", to)
		}
	}
}

// TestCounterSet pins the set's two operations.
func TestCounterSet(t *testing.T) {
	var s CounterSet
	if got := s.Get(slotRetries); got != 0 {
		t.Errorf("Get of a missing slot on an empty set = %d, want 0", got)
	}
	s.Add(slotRetries, 0) // a counter added to by zero exists
	s.Add(slotSpecWon, 2)
	s.Add(slotRetries, 3)
	s.Add(slotSpecWon, 4)
	if want := (CounterSet{{slotRetries, 3}, {slotSpecWon, 6}}); !reflect.DeepEqual(s, want) {
		t.Errorf("set = %v, want %v: Add appends a slot once and accumulates after", s, want)
	}
	if s.Get(slotSpecWon) != 6 || s.Get(slotSpecLost) != 0 {
		t.Errorf("Get(won) = %d, Get(lost) = %d, want 6 and 0", s.Get(slotSpecWon), s.Get(slotSpecLost))
	}
}

// TestFoldCountersMatchesMergeByName: a phase's fold of its tasks' sets is
// what adding them into the map name by name gives — names out of position,
// names only some tasks have and counters added to by zero included — on top
// of what the map already holds.
func TestFoldCountersMatchesMergeByName(t *testing.T) {
	_, _, e := testEnv(t)
	sets := [][]obs.Metric{
		{{Name: "a", Value: 1}, {Name: "b", Value: 2}, {Name: "c", Value: 3}},
		{{Name: "a", Value: 10}, {Name: "b", Value: 20}, {Name: "c", Value: 30}},
		{{Name: "b", Value: 100}, {Name: "a", Value: 200}},
		nil,
		{{Name: "zero"}, {Name: "c", Value: -3}, {Name: "a", Value: 1000}, {Name: "d", Value: 4}},
		{{Name: "a", Value: 1}, {Name: "b", Value: 2}, {Name: "c", Value: 3}, {Name: "d", Value: 4}, {Name: "e", Value: 5}},
	}
	want, got := map[string]int64{"b": 7, "held": 1}, map[string]int64{"b": 7, "held": 1}
	stats := make([]TaskStats, len(sets))
	for i, set := range sets {
		for _, c := range set {
			want[c.Name] += c.Value
			stats[i].Counters = append(stats[i].Counters, TaskCounter{e.CounterTable().Slot(c.Name), c.Value})
		}
	}
	for _, c := range e.FoldCounters(stats) {
		got[c.Name] += c.Value
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("folded %v, merged name by name %v", got, want)
	}
}

// TestCommitBackupKeepsOriginalCounters: whoever wins a speculation race,
// the task keeps the original attempt's counters and sketches, with the
// race outcome added; a winning backup brings the rest.
func TestCommitBackupKeepsOriginalCounters(t *testing.T) {
	orig := func() TaskStats {
		return TaskStats{
			ID: 3, Duration: 10, BodyTime: 10,
			Counters: CounterSet{{slotInputRecords, 5}, {slotRetries, 0}},
			Sketches: SketchSet{{"sk", []uint64{1}}},
		}
	}
	backup := TaskStats{
		ID: 3, Duration: 2, BodyTime: 2,
		Counters: CounterSet{{slotInputRecords, 99}},
		Sketches: SketchSet{{"sk", []uint64{7}}},
	}
	a := sim.Assignment{Task: 3, Node: 1, Start: 0, Duration: 10}

	st, lost := orig(), a
	if commitBackup(&lost, &st, 2, 9, 2, backup, false) {
		t.Fatal("a backup ending at 11 beat an attempt ending at 10")
	}
	want := orig()
	want.Counters = append(want.Counters, TaskCounter{slotSpecLaunched, 1}, TaskCounter{slotSpecLost, 1})
	if !reflect.DeepEqual(st, want) || lost != a {
		t.Errorf("after a lost race: %+v on %+v\nwant %+v on %+v", st, lost, want, a)
	}

	st, won := orig(), a
	if !commitBackup(&won, &st, 2, 4, 2, backup, true) {
		t.Fatal("a backup ending at 6 lost to an attempt ending at 10")
	}
	want = backup
	want.Sketches = orig().Sketches
	want.Counters = append(orig().Counters, TaskCounter{slotSpecLaunched, 1}, TaskCounter{slotSpecWon, 1})
	if !reflect.DeepEqual(st, want) {
		t.Errorf("after a won race: %+v\nwant %+v", st, want)
	}
	if wantA := (sim.Assignment{Task: 3, Node: 2, Start: 4, Duration: 2, Local: true}); won != wantA {
		t.Errorf("after a won race the assignment is %+v, want %+v", won, wantA)
	}
}

// TestCounterSetOrderAcrossExecutors: a task's set lists its names in the
// order its context bound them — newest first, then what the engine
// appends —, the same under both executors. The key-set golden sorts, so
// it cannot show this.
func TestCounterSetOrderAcrossExecutors(t *testing.T) {
	names := func(parallelism int) [][]string {
		_, e := parEnv(t, parallelism)
		job := hygieneJob(t, shuffleCase{numReduce: 3, perSplit: 5, combine: "on"}, e, "in")
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]string
		for _, st := range append(res.MapStats, res.ReduceStats...) {
			var task []string
			for _, c := range named(e.CounterTable(), st.Counters) {
				task = append(task, c.Name)
			}
			out = append(out, task)
		}
		return out
	}
	serial, parallel := names(1), names(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("counter order differs:\nserial   %v\nparallel %v", serial, parallel)
	}
	want := []string{
		CounterOutputBytes, CounterOutputRecords, CounterInputBytes, CounterInputRecords,
		CounterCombineOutRecords, CounterCombineInRecords, "hygiene.c01", "hygiene.c00", CounterTaskRetries,
	}
	if !reflect.DeepEqual(serial[0], want) {
		t.Errorf("map task 0 lists %v, want %v", serial[0], want)
	}
}

// TestCounterTableFirstUseAcrossWorkers: a counter name first seen inside a
// user MapFunc, by the tasks of four workers at once, takes one slot, and
// each task's value and the phase total are what the serial executor
// counts. Run under -race -count=10.
func TestCounterTableFirstUseAcrossWorkers(t *testing.T) {
	const name = "user.first.seen"
	run := func(parallelism int) (perTask []int64, total int64) {
		fs, e := parEnv(t, parallelism)
		job := &Job{Name: "first-use", Input: makeInput(t, fs, "in", 400), Map: func(ctx *TaskContext, p Pair, emit Emit) {
			ctx.Inc(name, int64(len(p.Value)))
			emit(p)
		}}
		if parallelism > 1 {
			// The first four tasks open together, so their first records
			// name the counter at once.
			var arrived atomic.Int32
			gate := make(chan struct{})
			job.MapStagesBefore = []StageFactory{func() Stage {
				return &FuncStage{OnOpen: func(*TaskContext) {
					if arrived.Add(1) == 4 {
						close(gate)
					}
					select {
					case <-gate:
					case <-time.After(time.Second):
					}
				}}
			}}
		}
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.MapStats) < 8 {
			t.Fatalf("%d map tasks: too few to run four at once", len(res.MapStats))
		}
		names := e.CounterTable().Names()
		if n := len(names); n != int(numBuiltins)+1 || names[numBuiltins] != name {
			t.Fatalf("parallelism %d: the table lists %v past its built-ins, want %q once", parallelism, names[numBuiltins:], name)
		}
		for _, st := range res.MapStats {
			perTask = append(perTask, st.Counters.Get(numBuiltins))
		}
		return perTask, res.Counters[name]
	}
	serial, serialTotal := run(1)
	parallel, parallelTotal := run(4)
	if !reflect.DeepEqual(serial, parallel) || serialTotal != parallelTotal || serialTotal == 0 {
		t.Fatalf("per task %v, total %d at Parallelism 4; want %v, %d as at 1", parallel, parallelTotal, serial, serialTotal)
	}
}
