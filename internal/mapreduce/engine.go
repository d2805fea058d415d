package mapreduce

import (
	"fmt"
	"slices"
	"sync"

	"efind/internal/dfs"
	"efind/internal/obs"
	"efind/internal/sim"
)

// Engine executes jobs on a simulated cluster. Records really flow through
// the user functions; durations are virtual times from the sim cost model.
// Task bodies may execute concurrently (sim.Config.Parallelism); the
// engine merges per-task outputs, stats, and counters by task index, so
// results are identical to a serial run.
//
// Fault injection and chaos schedules are per-Job configuration (see
// Job.FaultInjector and Job.Chaos), and all per-job mutable state — the
// virtual clock, phase sequence, slot lease — lives on the JobRun handle
// (see run.go). The Engine itself is immutable after construction — its
// counter table only ever gains names —, so any number of runs, sequential
// or interleaved by the job service, share one Engine without leaking state
// into each other.
type Engine struct {
	Cluster *sim.Cluster
	FS      *dfs.FS
	// Trace, when set, records virtual-time spans for every task (and its
	// read/pipeline/cpu/write sub-phases), per-phase stage profiles, and
	// folds all task counters into the trace's metrics registry. Nil (the
	// default) keeps the hot path untouched: task contexts skip span
	// recording entirely and allocate nothing for it.
	Trace *obs.Trace

	counters *CounterTable
}

// CounterTaskRetries counts failed task attempts that were re-executed.
const CounterTaskRetries = "task.retries"

// maxAttempts caps re-execution (Hadoop's mapred.map.max.attempts = 4).
// A task failing this many attempts fails its job.
const maxAttempts = 4

// New returns an engine bound to the cluster and file system.
func New(cluster *sim.Cluster, fs *dfs.FS) *Engine {
	return &Engine{Cluster: cluster, FS: fs, counters: newCounterTable()}
}

// CounterTable returns the table naming the slots of the engine's task sets.
func (e *Engine) CounterTable() *CounterTable { return e.counters }

// Close releases resources the engine's file system holds outside the Go
// heap — the mmap'd snapshots of file-backed chunks. It is the shutdown
// point for a simulation: after Close no file-backed payload is readable.
// Engines over an all-in-memory FS close as a no-op.
func (e *Engine) Close() error {
	return e.FS.Close()
}

// MapOutput is the materialized output of one map task, partitioned into
// reducer buckets. The EFind runtime keeps these around so a mid-job plan
// change can reuse completed map tasks (Figure 10(a)).
//
// The output is sparse: Buckets holds only the non-empty buckets, ascending
// by reducer, Reducers[i] is the reducer of Buckets[i], and a bucket keeps
// emission order. Parts is the partition count the task routed for (1 for a
// map-only job); a reduce phase refuses an output routed for another.
type MapOutput struct {
	Split    int
	Node     sim.NodeID
	Buckets  [][]Pair
	Reducers []int32
	Parts    int
	Bytes    int
}

// MapPhaseResult is the outcome of running (a subset of) a job's map phase.
type MapPhaseResult struct {
	Outputs  []*MapOutput
	Stats    []TaskStats
	Phase    sim.PhaseResult
	Counters map[string]int64
	// VTime is the phase makespan in virtual seconds.
	VTime float64
}

// Result is the outcome of a complete job.
type Result struct {
	Output      *dfs.File
	VTime       float64
	Counters    map[string]int64
	MapStats    []TaskStats
	ReduceStats []TaskStats
	MapPhase    sim.PhaseResult
	ReducePhase sim.PhaseResult
	MapOutputs  []*MapOutput
}

// Run executes the whole job on a fresh per-job handle and returns its
// result. Each call gets its own virtual clock starting at zero — two
// sequential Runs on one engine are fully independent.
func (e *Engine) Run(job *Job) (*Result, error) {
	return e.NewRun().Run(job)
}

// Run executes the whole job over every split and returns its result. The
// adaptive runtime, which processes first-wave splits under one plan and
// the rest under another, calls RunMapPhase with the splits instead.
func (e *JobRun) Run(job *Job) (*Result, error) {
	if err := job.validate(e.Engine); err != nil {
		return nil, err
	}
	mp, err := e.RunMapPhase(job, nil)
	if err != nil {
		return nil, err
	}
	if job.Reduce == nil {
		return e.FinishMapOnly(job, mp)
	}
	return e.RunReducePhase(job, mp)
}

// RunMapPhase executes the map side of the job over the given split
// indices (nil means all splits). Chained MapStagesBefore and Map run
// per record; outputs are partitioned for NumReduce
// reducers (or kept whole for map-only jobs).
//
// On a task failure the returned error is non-nil AND the result carries
// whatever completed: Outputs[i] is non-nil exactly for the tasks that
// succeeded. The EFind runtime reuses those completed splits when a
// failure-triggered plan change re-runs only the missing work
// (Figure 10(a) applied to faults).
func (e *JobRun) RunMapPhase(job *Job, splits []int) (*MapPhaseResult, error) {
	if err := job.validate(e.Engine); err != nil {
		return nil, err
	}
	if splits == nil {
		splits = make([]int, len(job.Input.Chunks))
		for i := range splits {
			splits[i] = i
		}
	}
	// A split listed twice would be mapped twice and its records output twice.
	listed := make([]bool, len(job.Input.Chunks))
	for _, s := range splits {
		if s < 0 || s >= len(job.Input.Chunks) {
			return nil, fmt.Errorf("mapreduce: job %q split %d out of range [0,%d)", job.Name, s, len(job.Input.Chunks))
		}
		if listed[s] {
			return nil, fmt.Errorf("mapreduce: job %q split %d listed more than once", job.Name, s)
		}
		listed[s] = true
	}

	res := &MapPhaseResult{
		Outputs:  make([]*MapOutput, len(splits)),
		Stats:    make([]TaskStats, len(splits)),
		Counters: make(map[string]int64),
	}
	frames := e.newPhaseFrames(len(splits))
	err := e.runPhase(job, &phaseSpec{
		kind:  MapTask,
		slots: e.Cluster.Config().MapSlotsPerNode,
		id:    func(i int) int { return i },
		label: func(i int) string { return fmt.Sprintf("map task %d (split %d)", i, splits[i]) },
		preferred: func(i int) []sim.NodeID {
			chunk := job.Input.Chunks[splits[i]]
			if job.MapPlacement != nil {
				return job.MapPlacement(splits[i], chunk)
			}
			return chunk.Replicas
		},
		run: func(worker, i int, node sim.NodeID, absStart float64) (attemptResult, TaskStats) {
			out, st := e.runMapTask(job, i, splits[i], job.Input.Chunks[splits[i]], node, absStart, frames, worker)
			return attemptResult{out: out}, st
		},
		install:     func(i int, _ sim.NodeID, r attemptResult) { res.Outputs[i] = r.out },
		workers:     frames.coordinator(),
		traceFailed: true,
		stats:       res.Stats,
		counters:    res.Counters,
		phase:       &res.Phase,
	})
	if err != nil {
		return res, err
	}
	res.VTime = res.Phase.Makespan
	return res, nil
}

// taskFrame is what a task uses and does not retain — context, stage
// pipeline, sink state, counter row, sketches, scratch — as one allocation,
// which its worker's next task of the phase starts on. A frame lives for one
// phase, so it always serves one job: its pipeline is chained once, by the
// frame's first task, and reopened by every later one. What a task retains
// (MapOutput, its pairs, reduce shard, counter and sketch sets) is cut from
// windows, each handed out once, so a result never pins the frame, and
// every scratch a stage keeps, for as long as it lives.
type taskFrame struct {
	ctx  TaskContext
	core FuncStage
	pipe Pipeline

	// Map sink: a multi-reducer task stages its records for the scatter; any
	// other appends to its one bucket, sized for the split on its first record.
	job          *Job
	out          *MapOutput
	splitRecords int
	shard        []dfs.Record // reduce sink
	shardBuf     []dfs.Record // what a reduce task whose shard is copied out fills
	outBytes     int

	// The staging buffer and the counter row, which a task leaves clear; the
	// sort's buffers, which hold no pointer; the windows the frame holds for
	// its tasks' counter and sketch sets and outputs, and the blocks of their
	// pairs.
	stage    *staging
	ctrs     taskCounters
	sort     sortBufs
	slab     CounterSet
	outs     []MapOutput
	sketches SketchSet
	vectors  []uint64
	pairs    block[Pair]
	buckets  block[[]Pair]
	parts    block[int32]

	// The frame's own methods as the values the pipeline is handed: one
	// allocation each were they made per task.
	mapSink, shardSink Emit // emitMap, emitShard
	process            Emit // pipe.Process
}

// phaseFrames holds one phase's task frames, made when first asked for: slot
// w is the frame of the scheduler's worker w (sim.Phase.Run: at most one
// body per index at a time, so a slot needs no lock), the last slot the
// coordinator's, on which speculative backups run once the phase is
// scheduled. A slot is empty while its task runs and refilled only by a task
// that ran to its end: an attempt that aborts drops its frame, half-filled
// staging buffer, half-run stages and all, so no task starts on a dirty one.
// Beside them are the phase's counter, output and sketch slabs, each made
// when short for every task not yet given a window of it — once for a phase
// of like tasks —, which frames take windows from 16 tasks at a time.
type phaseFrames struct {
	slot []*taskFrame

	mu                        sync.Mutex
	slab                      CounterSet  // what is left of it
	outs                      []MapOutput // what is left of it
	sketches                  SketchSet   // what is left of it
	vectors                   []uint64    // what is left of it
	left, outsLeft            int         // tasks not yet given a window of either
	sketchesLeft, vectorsLeft int         // the same for the sketch slabs
}

// newPhaseFrames sizes the slots for a phase of the given task count; a
// crash's recovery wave, never of more tasks, runs on the same ones. This is
// the phase's one reading of the worker count: the scheduler is capped at it
// (phaseSpec.workers), so no index passes the slots.
func (e *Engine) newPhaseFrames(tasks int) *phaseFrames {
	return &phaseFrames{
		slot: make([]*taskFrame, e.Cluster.PhaseWorkers(tasks)+1),
		left: tasks, outsLeft: tasks, sketchesLeft: tasks, vectorsLeft: tasks,
	}
}

// share takes n elements for each of up to 16 tasks not yet given any off
// a phase slab, made anew for all of them when it is short.
func share[S ~[]T, T any](mu *sync.Mutex, slab *S, left *int, n int) (w S) {
	mu.Lock()
	defer mu.Unlock()
	k := min(max(*left, 1), 16)
	if len(*slab) < k*n {
		*slab = make(S, max(*left, 16)*n)
	}
	w, *slab, *left = (*slab)[:k*n:k*n], (*slab)[k*n:], *left-k
	return w
}

// cut hands a task a capacity-capped window of n elements off a frame's
// spare, which it refills off the phase slab when short.
func cut[S ~[]T, T any](mu *sync.Mutex, spare, slab *S, left *int, n int) (w S) {
	if len(*spare) < n {
		*spare = share(mu, slab, left, n)
	}
	w, *spare = (*spare)[:n:n], (*spare)[n:]
	return w
}

// block hands out capacity-capped windows, each once, cut from slabs that
// double from 16 elements to 128; one of more than an eighth of the next
// slab is made alone, so a slab is left at most an eighth unused.
type block[T any] struct {
	spare []T
	size  int
}

func (b *block[T]) cut(n int) (w []T) {
	if len(b.spare) < n {
		if b.size = min(max(2*b.size, 16), 128); 8*n > b.size {
			return make([]T, n)
		}
		b.spare = make([]T, b.size)
	}
	w, b.spare = b.spare[:n:n], b.spare[n:]
	return w
}

func (fr *phaseFrames) coordinator() int { return len(fr.slot) - 1 }

// start takes the worker's frame for a task whose context clock is anchored
// at absStart, its absolute virtual start time, so stages can evaluate index
// outage windows.
func (fr *phaseFrames) start(worker int, e *Engine, node sim.NodeID, id int, kind TaskKind, absStart float64) *taskFrame {
	f := fr.slot[worker]
	fr.slot[worker] = nil
	if f == nil {
		f = &taskFrame{}
		f.mapSink, f.shardSink, f.process = f.emitMap, f.emitShard, f.pipe.Process
		f.ctrs.table = e.counters
		f.ctx.ctrs = &f.ctrs
	}
	ctx := &f.ctx
	ctx.Node, ctx.TaskID, ctx.Split, ctx.Kind, ctx.cluster = node, id, id, kind, e.Cluster
	ctx.base, ctx.traced = absStart, e.Trace.Timeline()
	return f
}

// pipeline returns the frame's pipeline, chaining it on the frame's first
// task; every later task of the phase reopens the same stages.
func (f *taskFrame) pipeline(before []StageFactory, core Stage, after []StageFactory, sink Emit) *Pipeline {
	if f.pipe.ctx == nil {
		f.pipe.init(&f.ctx, before, core, after, sink)
	}
	return &f.pipe
}

// done takes a finished task's statistics out of its frame and puts the
// frame back, reset where the task wrote to it: the context's clock, the
// spans and sketches the statistics took, and the sink state. The counters
// the task added go to a window of the frame's slab, with room for the
// task.retries the engine appends; its sketches' vectors are copied to
// windows of the sketch slabs, and the sketches emptied for the next task.
func (fr *phaseFrames) done(worker int, f *taskFrame) TaskStats {
	if n := f.ctrs.bound + 1; cap(f.slab)-len(f.slab) < n { // room for what the task bound
		f.slab = share(&fr.mu, &fr.slab, &fr.left, n)[:0]
	}
	at := len(f.slab)
	f.slab = f.ctrs.take(f.slab)
	end := len(f.slab)
	set := f.slab[at : end : end+1]
	f.slab = f.slab[:end+1]
	ctx := &f.ctx
	st := TaskStats{
		ID: ctx.TaskID, Counters: set,
		Duration: ctx.extra, BodyTime: ctx.extra, Spans: ctx.spans,
	}
	if used := ctx.sketches[:ctx.inUse]; len(used) > 0 {
		width := 0
		for _, s := range used {
			width += len(s.fm.Vectors())
		}
		st.Sketches = cut(&fr.mu, &f.sketches, &fr.sketches, &fr.sketchesLeft, len(used))
		vectors := cut(&fr.mu, &f.vectors, &fr.vectors, &fr.vectorsLeft, width)
		for i, s := range used {
			v := s.fm.Vectors()
			st.Sketches[i] = TaskSketch{Name: s.name, Vectors: vectors[:len(v):len(v)]}
			copy(vectors, v)
			vectors = vectors[len(v):]
			s.fm.Reset()
		}
	}
	ctx.extra, ctx.spans, ctx.inUse = 0, nil, 0
	f.out, f.splitRecords, f.shard, f.outBytes = nil, 0, nil, 0
	fr.slot[worker] = f
	return st
}

// emitMap is the map sink. A partitioner answering outside [0, NumReduce)
// aborts the task — the job fails with an error, like any permanent failure
// of user code — instead of an index panic on a node goroutine.
func (f *taskFrame) emitMap(p Pair) {
	part := 0
	if job := f.job; job.Reduce != nil {
		part = job.Partition(p.Key, job.NumReduce)
		if part < 0 || part >= job.NumReduce {
			f.ctx.Abort(fmt.Errorf("partitioner returned %d for key %q, want a reducer in [0,%d)", part, p.Key, job.NumReduce))
		}
	}
	if f.stage != nil {
		f.stage.add(p, int32(part))
	} else {
		if f.out.Buckets == nil {
			f.out.Buckets, f.out.Reducers = f.buckets.cut(1), f.parts.cut(1)
			f.out.Buckets[0] = f.pairs.cut(f.splitRecords)[:0]
		}
		f.out.Buckets[0] = append(f.out.Buckets[0], p)
	}
	f.out.Bytes += p.Size()
}

func (f *taskFrame) emitShard(p Pair) {
	f.shard = append(f.shard, p)
	f.outBytes += p.Size()
}

// runMapTask executes one map task on the given node, on the worker's frame.
func (e *Engine) runMapTask(job *Job, taskID, split int, chunk *dfs.Chunk, node sim.NodeID, absStart float64, frames *phaseFrames, worker int) (*MapOutput, TaskStats) {
	f := frames.start(worker, e, node, taskID, MapTask, absStart)
	ctx := &f.ctx
	ctx.Split = split

	// Input read: local disk when a replica lives here, network otherwise.
	// File-backed chunks decode their payload here; a snapshot that fails
	// its integrity checks aborts the attempt rather than feeding the map
	// function wrong records.
	sp := ctx.StartSpan("read", "io")
	records, err := chunk.Records()
	if err != nil {
		ctx.Abort(fmt.Errorf("reading split %d: %w", split, err))
	}
	if sim.ContainsNode(chunk.Replicas, node) {
		ctx.Charge(e.Cluster.DiskTime(float64(chunk.Bytes)))
	} else {
		ctx.ChargeNet(float64(chunk.Bytes))
	}
	sp.End()

	out := &cut(&frames.mu, &f.outs, &frames.outs, &frames.outsLeft, 1)[0]
	out.Split, out.Node, out.Parts = split, node, 1
	f.job, f.out, f.splitRecords = job, out, len(records)
	if job.Reduce != nil && job.NumReduce > 1 {
		out.Parts = job.NumReduce
		if f.stage == nil {
			f.stage = &staging{counts: make([]int32, out.Parts)}
		}
	}
	f.core.OnProcess = job.Map
	if job.Map == nil {
		f.core.OnProcess = identityMap
	}
	sp = ctx.StartSpan("map-pipeline", "pipeline")
	pipe := f.pipeline(job.MapStagesBefore, &f.core, nil, f.mapSink)
	pipe.Open()
	for _, r := range records {
		pipe.Process(r)
	}
	pipe.Close()
	sp.End()

	outRecords := 0
	if f.stage != nil { // set above, or by an earlier task of this phase: the same job
		outRecords = f.stage.scatter(out, f)
	} else if out.Buckets != nil {
		outRecords = len(out.Buckets[0])
	}
	if job.Combine != nil && job.Reduce != nil {
		sp = ctx.StartSpan("combine", "pipeline")
		outRecords = e.combineBuckets(ctx, job, out, &f.sort)
		sp.End()
	}

	ctx.Cell(slotInputRecords).Add(int64(len(records)))
	ctx.Cell(slotInputBytes).Add(int64(chunk.Bytes))
	ctx.Cell(slotOutputRecords).Add(int64(outRecords))
	ctx.Cell(slotOutputBytes).Add(int64(out.Bytes))
	sp = ctx.StartSpan("cpu", "cpu")
	ctx.Charge(e.Cluster.CPUTime(len(records)+outRecords, float64(chunk.Bytes+out.Bytes)))
	sp.End()
	if job.Reduce == nil {
		// Map-only jobs materialize their output to the DFS directly.
		sp = ctx.StartSpan("dfs-write", "io")
		ctx.Charge(e.Cluster.DFSTime(float64(out.Bytes)))
		sp.End()
	}
	return out, frames.done(worker, f)
}

// combineBuckets applies the job's combiner to each reducer bucket of one
// map task's output: values of equal keys are grouped (a bucket is sorted as
// a reduce task's one run would be, by reference) and fed through Combine,
// and the bucket is replaced with the combined records — or dropped, when
// the combiner emitted none for it, so the output stays sparse. The buckets
// are sorted one after the other on bufs, the frame's. The spill sort and
// combine CPU are charged. It returns the number of records left.
func (e *Engine) combineBuckets(ctx *TaskContext, job *Job, out *MapOutput, bufs *sortBufs) (outRecords int) {
	inRecords, inBytes := 0, 0
	out.Bytes = 0
	var combined []Pair
	emit := func(p Pair) {
		combined = append(combined, p)
		out.Bytes += p.Size()
	}
	var (
		in  keyOrder
		run [1]shuffleRun
	)
	kept := 0
	for bi, bucket := range out.Buckets {
		if len(bucket) > maxRef {
			ctx.Abort(fmt.Errorf("a map output of %d records for reducer %d is more than the %d a combiner can index", len(bucket), out.Reducers[bi], maxRef))
		}
		inRecords += len(bucket)
		run[0].pairs = bucket
		in = keyOrder{runs: run[:]}
		for _, p := range bucket {
			inBytes += p.Size()
			in.add(p.Key)
		}
		in.sort(bufs)
		// One record per key group is what an aggregating combiner emits.
		values, groups := in.values()
		combined = make([]Pair, 0, groups)
		for i := 0; i < len(values); {
			j := in.nextGroup(i)
			job.Combine(ctx, in.key(i), values[i:j:j], emit)
			i = j
		}
		if len(combined) > 0 { // else the bucket is dropped: the output stays sparse
			out.Buckets[kept], out.Reducers[kept] = combined, out.Reducers[bi]
			kept++
		}
		outRecords += len(combined)
	}
	clear(out.Buckets[kept:]) // a dropped bucket must not pin the slab
	out.Buckets, out.Reducers = out.Buckets[:kept], out.Reducers[:kept]
	ctx.Cell(slotCombineIn).Add(int64(inRecords))
	ctx.Cell(slotCombineOut).Add(int64(outRecords))
	ctx.Charge(e.Cluster.CPUTime(inRecords, float64(inBytes)))
	return outRecords
}

// RunReducePhase shuffles the map phase's outputs, runs the reduce side, and
// writes the job output. Map work of several phases — a plan change's,
// Figure 10(a) — comes merged into one result.
func (e *JobRun) RunReducePhase(job *Job, mp *MapPhaseResult) (*Result, error) {
	// RunReduceSubset validates the job and the outputs.
	sub, err := e.RunReduceSubset(job, mp.Outputs, nil)
	if err != nil {
		return nil, err
	}
	res, err := e.result(job, mp, sub.Shards, sub.Homes)
	if err != nil {
		return nil, err
	}
	res.ReduceStats, res.ReducePhase, res.VTime = sub.Stats, sub.Phase, res.VTime+sub.VTime
	MergeCounters(res.Counters, sub.Counters)
	return res, nil
}

// ReduceSubsetResult is the outcome of running a subset of a job's reduce
// tasks without materializing a file. Shards and Homes are indexed by
// position in the requested reducer list.
type ReduceSubsetResult struct {
	Reducers []int
	Shards   [][]dfs.Record
	Homes    []sim.NodeID
	Stats    []TaskStats
	Phase    sim.PhaseResult
	Counters map[string]int64
	VTime    float64
}

// RunReduceSubset shuffles the map outputs into the requested reducers
// (nil = all) and executes only those reduce tasks. The EFind runtime uses
// it for mid-reduce plan changes (Figure 10(b)): first-wave reducers run
// under the old plan, the rest under the new one, and the caller merges
// the shards.
func (e *JobRun) RunReduceSubset(job *Job, outputs []*MapOutput, reducers []int) (*ReduceSubsetResult, error) {
	if err := job.validate(e.Engine); err != nil {
		return nil, err
	}
	if job.Reduce == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no reduce function", job.Name)
	}
	if reducers == nil {
		reducers = make([]int, job.NumReduce)
		for i := range reducers {
			reducers[i] = i
		}
	} else {
		// A reducer run twice would hand the caller its shard twice.
		asked := make([]bool, job.NumReduce)
		for _, r := range reducers {
			if r < 0 || r >= job.NumReduce {
				return nil, fmt.Errorf("mapreduce: job %q reducer %d out of range [0,%d)", job.Name, r, job.NumReduce)
			}
			if asked[r] {
				return nil, fmt.Errorf("mapreduce: job %q reducer %d requested more than once", job.Name, r)
			}
			asked[r] = true
		}
	}
	runs, start, err := shuffleIndex(job, outputs)
	if err != nil {
		return nil, err
	}
	sub := &ReduceSubsetResult{
		Reducers: reducers,
		Shards:   make([][]dfs.Record, len(reducers)),
		Homes:    make([]sim.NodeID, len(reducers)),
		Stats:    make([]TaskStats, len(reducers)),
		Counters: make(map[string]int64),
	}
	frames := e.newPhaseFrames(len(reducers))
	err = e.runPhase(job, &phaseSpec{
		kind:      ReduceTask,
		slots:     e.Cluster.Config().ReduceSlotsPerNode,
		id:        func(i int) int { return reducers[i] },
		label:     func(i int) string { return fmt.Sprintf("reduce task %d", reducers[i]) },
		preferred: func(int) []sim.NodeID { return nil },
		run: func(worker, i int, node sim.NodeID, absStart float64) (attemptResult, TaskStats) {
			r := reducers[i]
			shard, st := e.runReduceTask(job, r, node, runs[start[r]:start[r+1]], absStart, frames, worker)
			return attemptResult{shard: shard}, st
		},
		install: func(i int, node sim.NodeID, r attemptResult) {
			sub.Shards[i], sub.Homes[i] = r.shard, node
		},
		workers:  frames.coordinator(),
		stats:    sub.Stats,
		counters: sub.Counters,
		phase:    &sub.Phase,
	})
	if err != nil {
		return nil, err
	}
	sub.VTime = sub.Phase.Makespan
	return sub, nil
}

// emitPhase exports one completed phase to the attached trace: if it keeps
// a timeline, a task span per assignment (on the node/slot lane the
// scheduler placed it), the task's rebased sub-phase spans and a
// queued→scheduled wait for tasks that did not start at phase begin;
// always the phase's folded counters (into the
// unified registry), and a stage profile carrying the makespan the
// CI regression gate budgets. Assignments arrive sorted by (start,
// task), so emission order — and the exported file — is deterministic
// and identical for serial and parallel executions.
//
// One-shot runs place phases back to back on the trace's sequential
// clock, as before. Service runs instead emit at phaseBase — the phase's
// absolute start on the service timeline — so spans of interleaved jobs
// land where they actually ran, and counters are folded in under the
// run's (tenant, job) namespace.
func (e *JobRun) emitPhase(name, kind string, phaseBase float64, phase sim.PhaseResult, stats []TaskStats, sums []obs.Metric) {
	t := e.Trace
	if t == nil {
		return
	}
	name, prefix := e.qual(name), e.qual("") // counters fold in under the run's namespace
	base := phaseBase
	if !e.svc {
		base = t.Clock()
	}
	cfg := e.Cluster.Config()
	timeline := phase.Assignments
	if !t.Timeline() { // a profile trace: no span, wait or name per task
		timeline = nil
	}
	for _, a := range timeline {
		st := stats[a.Task]
		speed := cfg.SpeedOf(a.Node)
		taskName := fmt.Sprintf("%s[%d]", name, st.ID)
		if n := st.Counters.Get(slotRetries); n > 0 {
			taskName = fmt.Sprintf("%s (retries=%d)", taskName, n)
		}
		if a.Start > 0 {
			t.AddQueued(taskName, int(a.Node), base, base+a.Start)
		}
		t.AddSpan(obs.Span{
			Name: taskName, Cat: kind,
			Node: int(a.Node), Slot: int(a.Slot),
			Start: base + a.Start, Dur: a.Duration,
		})
		// The final successful attempt occupies the tail of the
		// assignment; its relative sub-phase clock rebases from there,
		// scaled by the node's speed like every other duration.
		bodyStart := a.Start + a.Duration - st.BodyTime/speed
		for _, s := range st.Spans {
			t.AddSpan(obs.Span{
				Name: s.Name, Cat: s.Cat,
				Node: int(a.Node), Slot: int(a.Slot),
				Start: base + bodyStart + s.Start/speed, Dur: s.Dur / speed,
			})
		}
	}
	t.Metrics.AddAll(prefix, sums)
	t.AddStage(obs.StageProfile{
		Name: t.Qualify(name), Kind: kind, VTime: phase.Makespan,
		Tasks: len(stats), LocalTasks: phase.LocalTasks, Waves: phase.Waves,
	})
	if !e.svc {
		t.Advance(phase.Makespan)
	}
}

// runReduceTask executes one reduce task: shuffle in its runs, sort, group,
// reduce, chained tail stages, and output collection, on the worker's frame.
func (e *Engine) runReduceTask(job *Job, r int, node sim.NodeID, runs []shuffleRun, absStart float64, frames *phaseFrames, worker int) ([]dfs.Record, TaskStats) {
	f := frames.start(worker, e, node, r, ReduceTask, absStart)
	ctx := &f.ctx

	// The shuffle is charged run by run in map-output order, which fixes the
	// float sum's bits; the same pass shows the sort every key.
	in := keyOrder{runs: runs}
	inBytes := 0
	sp := ctx.StartSpan("shuffle", "io")
	for _, run := range runs {
		bytes := 0
		for _, p := range run.pairs {
			bytes += p.Size()
			in.add(p.Key)
		}
		inBytes += bytes
		if run.node != node {
			ctx.ChargeNet(float64(bytes))
		} else {
			ctx.Charge(e.Cluster.DiskTime(float64(bytes)))
		}
	}
	sp.End()
	// Sort by key, values in map-output order; the runs stay as they are.
	in.sort(&f.sort)

	// The shard is sized by what the reducer emits. When every key group is
	// one record, an identity, forwarding or aggregating reducer emits at
	// most the input's records, and the shard is made that large. Else it
	// emits one record per group or per value: it fills the frame's buffer,
	// grown to the input's records when short, and the shard is its copy at
	// the exact length.
	values, groups := in.values()
	inRecords := len(values)
	copied := groups < inRecords
	if copied {
		f.shard = slices.Grow(f.shardBuf[:0], inRecords)
	} else {
		f.shard = make([]dfs.Record, 0, inRecords)
	}
	sp = ctx.StartSpan("reduce-pipeline", "pipeline")
	pipe := f.pipeline(nil, nil, job.ReduceStagesAfter, f.shardSink)
	pipe.Open()
	for i := 0; i < inRecords; {
		j := in.nextGroup(i)
		job.Reduce(ctx, in.key(i), values[i:j:j], f.process)
		i = j
	}
	pipe.Close()
	sp.End()
	shard := f.shard
	if copied {
		f.shardBuf, shard = shard, make([]dfs.Record, len(shard))
		copy(shard, f.shardBuf)
	}

	outRecords, outBytes := len(shard), f.outBytes
	ctx.Cell(slotInputRecords).Add(int64(inRecords))
	ctx.Cell(slotInputBytes).Add(int64(inBytes))
	ctx.Cell(slotOutputRecords).Add(int64(outRecords))
	ctx.Cell(slotOutputBytes).Add(int64(outBytes))
	sp = ctx.StartSpan("cpu", "cpu")
	ctx.Charge(e.Cluster.CPUTime(inRecords+outRecords, float64(inBytes+outBytes)))
	sp.End()
	sp = ctx.StartSpan("dfs-write", "io")
	ctx.Charge(e.Cluster.DFSTime(float64(outBytes)))
	sp.End()
	return shard, frames.done(worker, f)
}

// FinishMapOnly materializes a map-only job's output (one shard per map
// task, first replica on the task's node, as Hadoop's zero-reducer jobs).
func (e *Engine) FinishMapOnly(job *Job, mp *MapPhaseResult) (*Result, error) {
	shards := make([][]dfs.Record, len(mp.Outputs))
	homes := make([]sim.NodeID, len(mp.Outputs))
	for i, mo := range mp.Outputs {
		homes[i] = mo.Node
		for _, b := range mo.Buckets { // a map-only output is its one bucket
			shards[i] = append(shards[i], b...)
		}
	}
	return e.result(job, mp, shards, homes)
}

// result writes a job's output shards and reports its map work.
func (e *Engine) result(job *Job, mp *MapPhaseResult, shards [][]dfs.Record, homes []sim.NodeID) (*Result, error) {
	name := job.OutputName
	if name == "" {
		name = e.FS.TempName(job.Name + "-out")
	}
	out, err := e.FS.CreateSharded(name, shards, homes)
	if err != nil {
		return nil, err
	}
	res := &Result{Output: out, VTime: mp.VTime, Counters: make(map[string]int64),
		MapStats: mp.Stats, MapPhase: mp.Phase, MapOutputs: mp.Outputs}
	MergeCounters(res.Counters, mp.Counters)
	return res, nil
}

// MergeCounters folds one phase- or job-level counter map into another.
func MergeCounters(dst map[string]int64, src map[string]int64) {
	for k, v := range src {
		dst[k] += v
	}
}

// Pipeline chains stages (before → core → after) into a single
// record-at-a-time flow ending in sink. The engine keeps one per worker
// frame and reopens it for each task; the EFind runtime keeps one inside a
// reduce-side stage for stages that continue after a late boundary.
type Pipeline struct {
	ctx    *TaskContext
	stages []Stage
	emits  []Emit // emits[i] feeds stage i; emits[len] is the sink

	// Backing of stages and emits for up to three stages, the common case.
	stageArr [3]Stage
	emitArr  [4]Emit
}

// NewPipeline chains one instance of each factory's stage, around core, for
// the tasks that run on ctx. core may be nil (reduce-side pipelines run the
// reduce function group-wise outside the pipeline and feed only the
// after-stages).
func NewPipeline(ctx *TaskContext, before []StageFactory, core Stage, after []StageFactory, sink Emit) *Pipeline {
	return new(Pipeline).init(ctx, before, core, after, sink)
}

func (p *Pipeline) init(ctx *TaskContext, before []StageFactory, core Stage, after []StageFactory, sink Emit) *Pipeline {
	p.ctx = ctx
	p.stages = p.stageArr[:0] // a fourth stage makes append move them to the heap
	for _, f := range before {
		p.stages = append(p.stages, f())
	}
	if core != nil {
		p.stages = append(p.stages, core)
	}
	for _, f := range after {
		p.stages = append(p.stages, f())
	}
	// Build the emit chain back to front. Stage 0 gets no closure: Process
	// calls it directly.
	n := len(p.stages)
	if p.emits = p.emitArr[:]; n >= len(p.emits) {
		p.emits = make([]Emit, n+1)
	}
	p.emits = p.emits[:n+1]
	p.emits[n] = sink
	for i := n - 1; i >= 1; i-- {
		stage, next := p.stages[i], p.emits[i+1]
		p.emits[i] = func(pr Pair) { stage.Process(ctx, pr, next) }
	}
	return p
}

// Open opens the stages front to back.
func (p *Pipeline) Open() {
	for _, s := range p.stages {
		s.Open(p.ctx)
	}
}

// Process pushes one record into the front of the chain.
func (p *Pipeline) Process(pr Pair) {
	if len(p.stages) == 0 {
		p.emits[0](pr)
		return
	}
	p.stages[0].Process(p.ctx, pr, p.emits[1])
}

// Close closes stages front to back so trailing emissions flow downstream.
func (p *Pipeline) Close() {
	for i, s := range p.stages {
		s.Close(p.ctx, p.emits[i+1])
	}
}
