// Package mapreduce is a miniature MapReduce runtime in the image of
// Hadoop 1.x, providing exactly the extension points the EFind paper
// builds on: chained functions around Map and Reduce, counters that are
// globally visible after each task, wave-based task scheduling with data
// locality, and custom partitioners. Jobs execute for real (records flow
// through user functions), while task durations are virtual times from the
// sim cost model so the paper's experiments are deterministic and fast.
package mapreduce

import (
	"efind/internal/obs"
	"efind/internal/sim"
	"efind/internal/sketch"
)

// Pair is the key/value record flowing through a job, following the
// MapReduce convention of (k1, v1) inputs and (k2, v2) outputs.
type Pair struct {
	Key   string
	Value string
}

// Size returns the payload size in bytes of the pair, including framing,
// matching dfs.Record sizing so cost terms line up across layers.
func (p Pair) Size() int { return len(p.Key) + len(p.Value) + 8 }

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
// Open runs once before the task's records, Close once after; Close may
// emit trailing records.
type Stage interface {
	Open(ctx *TaskContext)
	Process(ctx *TaskContext, in Pair, emit Emit)
	Close(ctx *TaskContext, emit Emit)
}

// StageFactory builds the Stage instance for a task running on the given
// node. Factories that want node-level shared state (e.g. a per-machine
// lookup cache) can key it by node; the executor serializes the tasks of
// each node, so per-node state sees one task at a time, but the factory
// itself — and any structure shared across nodes — must be safe for
// concurrent use because tasks of different nodes run on real goroutines
// (sim.Config.Parallelism).
type StageFactory func(node sim.NodeID) Stage

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
// it and hands it, zeroed, to another task of the phase. A stage or user
// function must not keep it, or anything that points into it, past Close.
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

	ctrs     *taskCounters // on the task's frame, or beside a context made alone
	sketches map[string]*sketch.FM
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

// Sketch returns the task's named FM sketch, creating it on first use with
// the given width. The returned sketch is the handle: per-record code
// fetches it once and keeps it.
func (c *TaskContext) Sketch(name string, width int) *sketch.FM {
	s, ok := c.sketches[name]
	if !ok {
		if c.sketches == nil {
			c.sketches = make(map[string]*sketch.FM)
		}
		s = sketch.New(width)
		c.sketches[name] = s
	}
	return s
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
// statistics as a random sample for the variance test).
type TaskStats struct {
	ID       int
	Kind     TaskKind
	Node     sim.NodeID
	Counters CounterSet
	Sketches map[string][]uint64
	Duration float64
	// BodyTime is the virtual time of the final successful attempt's body
	// (Duration additionally includes failed attempts). The trace
	// exporter uses it to rebase the attempt's relative sub-phase spans.
	BodyTime float64
	// Spans are the task body's sub-phase spans, relative to the body's
	// own virtual clock; nil when tracing is off.
	Spans []obs.Span
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
