// Package mapreduce is a miniature MapReduce runtime in the image of
// Hadoop 1.x, providing exactly the extension points the EFind paper
// builds on: chained functions around Map and Reduce, counters that are
// globally visible after each task, wave-based task scheduling with data
// locality, and custom partitioners. Jobs execute for real (records flow
// through user functions), while task durations are virtual times from the
// sim cost model so the paper's experiments are deterministic and fast.
package mapreduce

import (
	"efind/internal/dfs"
	"efind/internal/obs"
	"efind/internal/sim"
	"efind/internal/sketch"
)

// Pair is the key/value record flowing through a job, following the
// MapReduce convention of (k1, v1) inputs and (k2, v2) outputs. It is the
// file system's record, so input records, map outputs and output shards
// pass between the layers as they are, sized alike.
type Pair = dfs.Record

// Emit passes one record downstream.
type Emit func(Pair)

// MapFunc is a user Map function.
type MapFunc func(ctx *TaskContext, in Pair, emit Emit)

// ReduceFunc is a user Reduce function, called once per key group with the
// values in map-output order. The values slice is the function's own: it
// is a capacity-capped window of the task's value slab that no other
// group shares and the engine never reuses, so the function may keep it
// past the call, and appending to it reallocates rather than overwriting
// the next group's values.
type ReduceFunc func(ctx *TaskContext, key string, values []string, emit Emit)

// Stage is one chained function in a task pipeline (the paper implements
// preProcess, lookup and postProcess as chained functions, Figure 6).
// An instance serves every task its worker's frame runs in one phase, one
// task at a time: Open is the per-task reset — it runs before each task's
// records and must leave nothing of the previous task behind —, Close runs
// once after them and may emit trailing records.
type Stage interface {
	Open(ctx *TaskContext)
	Process(ctx *TaskContext, in Pair, emit Emit)
	Close(ctx *TaskContext, emit Emit)
}

// StageFactory builds a Stage instance. The engine calls it once per
// worker per phase and reopens the instance for each task the worker runs,
// whatever node a task runs on (TaskContext.Node). The tasks of different
// workers run on real goroutines (sim.Config.Parallelism), so a factory,
// and any structure its instances share, must be safe for concurrent use.
type StageFactory func() Stage

// FuncStage adapts plain functions into a Stage. Nil fields are no-ops.
type FuncStage struct {
	OnOpen    func(ctx *TaskContext)
	OnProcess func(ctx *TaskContext, in Pair, emit Emit)
	OnClose   func(ctx *TaskContext, emit Emit)
}

// Open implements Stage.
func (s *FuncStage) Open(ctx *TaskContext) {
	if s.OnOpen != nil {
		s.OnOpen(ctx)
	}
}

// Process implements Stage.
func (s *FuncStage) Process(ctx *TaskContext, in Pair, emit Emit) {
	if s.OnProcess != nil {
		s.OnProcess(ctx, in, emit)
	} else {
		emit(in)
	}
}

// Close implements Stage.
func (s *FuncStage) Close(ctx *TaskContext, emit Emit) {
	if s.OnClose != nil {
		s.OnClose(ctx, emit)
	}
}

// TaskKind distinguishes map from reduce tasks in statistics.
type TaskKind int

// Task kinds.
const (
	MapTask TaskKind = iota
	ReduceTask
)

func (k TaskKind) String() string {
	if k == MapTask {
		return "map"
	}
	return "reduce"
}

// TaskContext is handed to every user function and stage. It identifies
// the executing task and node and accumulates the task's counters,
// sketches, and virtual-time charges.
//
// The context, and every Cell bound on it, is valid until the task's
// last stage has closed: the engine then takes the task's statistics out of
// it and hands it, reset, to its worker's next task of the phase, whose
// stages are the same instances, reopened. A Cell or sketch handle is the
// task's: a stage binds its own again when it opens.
type TaskContext struct {
	// Node is the machine this task was scheduled on.
	Node sim.NodeID
	// TaskID is the task's index within its phase.
	TaskID int
	// Split is the input split a map task reads. It differs from TaskID
	// when a phase runs a subset of splits (RunMapPhase's splits, adaptive
	// plan-change phases): TaskID is then the position within the subset
	// while Split stays the global split number. Stages that key state by
	// input split — the piggyback index builder — must use Split. For
	// reduce tasks it equals TaskID (the reducer index).
	Split int
	// Kind is MapTask or ReduceTask.
	Kind TaskKind

	cluster *sim.Cluster
	base    float64
	extra   float64
	traced  bool
	spans   []obs.Span

	ctrs *taskCounters // on the task's frame, or beside a context made alone
	// sketches are those the context's tasks have used, each kept for the
	// next task; the running task's are the first inUse, in order of use.
	sketches []taskSketch
	inUse    int
}

// taskSketch is a sketch a context keeps from task to task.
type taskSketch struct {
	name string
	fm   *sketch.FM
}

// NewTaskContext builds a context outside any engine, its counters slots of
// a table all such contexts share; exported for tests of stages outside the
// engine. The context and a row for the engine's built-in counters are one
// allocation.
func NewTaskContext(cluster *sim.Cluster, node sim.NodeID, id int, kind TaskKind) *TaskContext {
	c := &struct {
		TaskContext
		own taskCounters
		row [numBuiltins]slotState
	}{}
	c.Node, c.TaskID, c.Split, c.Kind, c.cluster = node, id, id, kind, cluster
	c.own = taskCounters{table: standalone, row: c.row[:]}
	c.ctrs = &c.own
	return &c.TaskContext
}

// Cluster returns the simulated cluster the task runs in.
func (c *TaskContext) Cluster() *sim.Cluster { return c.cluster }

// Sketch returns the task's named FM sketch, empty on the task's first use
// with the given width. The returned sketch is the handle: per-record code
// fetches it once per task and keeps it until Close.
func (c *TaskContext) Sketch(name string, width int) *sketch.FM {
	i := 0
	for i < len(c.sketches) && c.sketches[i].name != name {
		i++
	}
	if i == len(c.sketches) {
		c.sketches = append(c.sketches, taskSketch{name, sketch.New(width)})
	} else if s := &c.sketches[i]; i >= c.inUse && len(s.fm.Vectors()) != max(width, 1) {
		s.fm = sketch.New(width) // an earlier task used the name at another width
	}
	if i >= c.inUse { // first use by this task: it joins the task's own
		c.sketches[i], c.sketches[c.inUse] = c.sketches[c.inUse], c.sketches[i]
		i, c.inUse = c.inUse, c.inUse+1
	}
	return c.sketches[i].fm
}

// Charge adds virtual seconds to the task's duration (index serve time,
// cache probes, anything beyond the engine's own I/O and CPU charges).
func (c *TaskContext) Charge(seconds float64) { c.extra += seconds }

// ChargeNet adds the virtual time of a network transfer of the given size.
func (c *TaskContext) ChargeNet(bytes float64) { c.extra += c.cluster.NetTime(bytes) }

// taskAbort carries an Abort error through the stage pipeline to the
// engine's task runner, which converts it into a job failure.
type taskAbort struct{ err error }

// Abort terminates the running task immediately with err. Unlike an
// injected fault, an abort is a permanent logical failure (e.g. an index
// error under ErrorFailJob): the engine does not re-execute the task, it
// fails the whole job with the error. Must only be called from within a
// running task (a stage, map, or reduce function).
func (c *TaskContext) Abort(err error) { panic(taskAbort{err}) }

// Extra returns the accumulated Charge/ChargeNet time.
func (c *TaskContext) Extra() float64 { return c.extra }

// Now returns the task's current position on the job's virtual clock:
// the task's absolute start time (engine clock at phase begin plus the
// scheduler's start offset) plus the virtual time the task has charged so
// far. Stages use it to evaluate time-windowed conditions — most notably
// whether an index partition outage is in effect — and each Charge of
// backoff time advances it, so an outage can end mid-retry.
func (c *TaskContext) Now() float64 { return c.base + c.extra }

// StartSpan opens a sub-phase span on the task's own virtual clock (the
// accumulated Charge time); a no-op that allocates nothing unless the
// engine has a trace attached, so tracing costs the hot path nothing. Call
// End on the returned region when the sub-phase's charges are complete.
// Span times are relative to the task body; the engine rebases them to
// absolute phase time once the task's placement is known.
func (c *TaskContext) StartSpan(name, cat string) SpanRegion {
	if !c.traced {
		return SpanRegion{}
	}
	return SpanRegion{ctx: c, name: name, cat: cat, start: c.extra}
}

// SpanRegion is an open sub-phase span. The zero value (tracing off) is
// valid and End on it does nothing.
type SpanRegion struct {
	ctx       *TaskContext
	name, cat string
	start     float64
}

// End closes the region, recording [start, now) of the task's virtual
// clock. Zero-length spans are dropped: a sub-phase that charged nothing
// occupies no virtual time and would only clutter the trace.
func (r SpanRegion) End() {
	if r.ctx == nil {
		return
	}
	d := r.ctx.extra - r.start
	if d <= 0 {
		return
	}
	r.ctx.spans = append(r.ctx.spans, obs.Span{
		Name: r.name, Cat: r.cat, Node: int(r.ctx.Node), Start: r.start, Dur: d,
	})
}

// TaskStats is the per-task statistics record the adaptive optimizer
// consumes: one sample per completed task (§4.2 treats each task's
// statistics as a random sample for the variance test). Which side of the
// job a task ran on is the list it is in (MapStats, ReduceStats), and which
// node ran it is its phase's assignment (sim.Assignment).
type TaskStats struct {
	ID       int
	Counters CounterSet
	Sketches SketchSet
	Duration float64
	// BodyTime is the virtual time of the final successful attempt's body
	// (Duration additionally includes failed attempts). The trace
	// exporter uses it to rebase the attempt's relative sub-phase spans.
	BodyTime float64
	// Spans are the task body's sub-phase spans, relative to the body's
	// own virtual clock; nil when tracing is off.
	Spans []obs.Span
}

// TaskSketch is one FM sketch of a finished task: its name and bit vectors.
type TaskSketch struct {
	Name    string
	Vectors []uint64
}

// SketchSet is a finished task's sketches, in the order it first used them.
type SketchSet []TaskSketch

// Get returns the vectors of the named sketch, nil when the set has none.
func (s SketchSet) Get(name string) []uint64 {
	for _, sk := range s {
		if sk.Name == name {
			return sk.Vectors
		}
	}
	return nil
}

// FNV-1a parameters, per hash/fnv.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// HashPartition is the default partitioner (FNV-1a modulo reducers),
// mirroring Hadoop's HashPartitioner. The FNV-1a loop is inlined over
// the string: hash/fnv would cost a hasher allocation plus a []byte(key)
// copy per record, and the partitioner runs once per map-output record.
// Values are identical to fnv.New32a over the same bytes (pinned by a
// golden test).
func HashPartition(key string, numReduce int) int {
	if numReduce <= 1 {
		return 0
	}
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return int(h % uint32(numReduce))
}

// Built-in counter names maintained by the engine itself.
const (
	CounterInputRecords      = "task.input.records"
	CounterInputBytes        = "task.input.bytes"
	CounterOutputRecords     = "task.output.records"
	CounterOutputBytes       = "task.output.bytes"
	CounterCombineInRecords  = "task.combine.in.records"
	CounterCombineOutRecords = "task.combine.out.records"
)
