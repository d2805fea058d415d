package mapreduce

import (
	"fmt"
	"sync"

	"efind/internal/dfs"
	"efind/internal/sim"
)

// phaseSpec describes one map or reduce phase to runPhase. Scheduling,
// re-execution, speculation and crash recovery are written once against
// it; everything that deliberately differs between the two sides is a
// field here, not a second code path.
type phaseSpec struct {
	kind  TaskKind
	slots int // per node
	// id is the number task i goes by outside the phase — to the fault
	// injector and in trace instants: the phase-local index for map tasks,
	// the reducer for reduce tasks. label names the task in error texts.
	id    func(i int) int
	label func(i int) string
	// preferred returns task i's preferred nodes (none for reduce tasks,
	// which also makes a won reduce backup non-local).
	preferred func(i int) []sim.NodeID
	// run executes one attempt of task i on node, on the frame of the
	// scheduler's worker (sim.Phase.Run), its context clock anchored at
	// absStart; it may panic with a taskAbort. install records a finished
	// attempt's result as the task's.
	run     func(worker, i int, node sim.NodeID, absStart float64) (attemptResult, TaskStats)
	install func(i int, node sim.NodeID, r attemptResult)
	// workers bounds the index the scheduler's workers run tasks under
	// (sim.Phase.Workers: the frames were sized for it); speculative backups,
	// run once those are gone, go by workers itself: the coordinator's frame.
	workers int
	// traceFailed emits a failed phase to the trace when the job runs
	// under a chaos plan (the map side, whose partial result is resumed).
	traceFailed bool

	// stats, counters and phase alias the caller's result, so a failed
	// phase leaves whatever completed in place.
	stats    []TaskStats
	counters map[string]int64
	phase    *sim.PhaseResult

	// err is the error of the lowest-indexed task that failed (errAt).
	// Tasks of different nodes fail concurrently, so it is written under
	// errMu (fail), and read once the phase's workers are done.
	errMu sync.Mutex
	errAt int
	err   error
}

// fail records task i's error, keeping the lowest-indexed task's.
func (p *phaseSpec) fail(i int, err error) {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	if p.err == nil || i <= p.errAt {
		p.errAt, p.err = i, err
	}
}

// attemptResult is what one task attempt produced: a map task's
// partitioned output or a reduce task's shard. It is returned by value so
// an attempt costs no allocation beyond its own work.
type attemptResult struct {
	out   *MapOutput
	shard []dfs.Record
}

// runPhase is the phase lifecycle: claim a sequence number, get slots
// from the arbiter, schedule the tasks, apply the chaos plan, advance the
// clock, return the slots, then fold the tasks' counters into the phase's
// and emit the trace. On a task failure it returns the lowest-indexed task's
// error — deterministic whatever order tasks completed in — with p.stats and
// p.phase holding what completed.
func (e *JobRun) runPhase(job *Job, p *phaseSpec) error {
	n := len(p.stats)
	ready, seq := e.beginPhase()
	base, lease := e.grantPhase(p.kind, n, ready)
	w := &wave{e: e.Engine, job: job, p: p, base: base, seq: seq}
	*p.phase = w.schedule(n, lease, job.downAt(base))
	e.applyChaos(job, p, base)
	e.vclock += p.phase.Makespan
	if e.arbiter != nil {
		e.arbiter.EndPhase(p.kind, lease, base, base+p.phase.Makespan)
	}
	err := p.err
	if err != nil && (!p.traceFailed || job.Chaos == nil) {
		return err
	}
	sums := e.FoldCounters(p.stats)
	if err == nil {
		for _, c := range sums {
			p.counters[c.Name] += c.Value
		}
	}
	e.emitPhase(job.Name+"/"+p.kind.String(), p.kind.String(), base, *p.phase, p.stats, sums)
	return err
}

// wave is one scheduling of a phase's tasks — the whole phase, or the
// recovery wave that re-runs what a crash lost — as the scheduler consumes
// it: the tasks by index and this one value behind them, not a closure and
// a sim.Task each.
type wave struct {
	e   *Engine
	job *Job
	p   *phaseSpec
	// base is the absolute time the scheduler's start offsets are relative
	// to: the phase base, or the crash instant for a recovery wave.
	base float64
	seq  int   // the sequence number the wave's chaos draws key off
	task []int // a recovery wave's tasks, as the phase numbers them; nil: all, in order
}

func (w *wave) schedule(n int, lease *sim.Lease, down func(sim.NodeID) bool) sim.PhaseResult {
	return w.e.Cluster.RunPhase(sim.Phase{Tasks: n, Workers: w.p.workers, Preferred: w.preferred, Run: w.run}, w.p.slots, lease, down)
}

// orig returns the phase's number of the wave's task j.
func (w *wave) orig(j int) int {
	if w.task != nil {
		return w.task[j]
	}
	return j
}

// preferred shares the task's replica list with the scheduler, which only
// reads it.
func (w *wave) preferred(j int) []sim.NodeID { return w.p.preferred(w.orig(j)) }

// run is the scheduler's callback: the Hadoop-style retry loop around
// attempt, with chaos straggler slowdown applied to the task's virtual
// duration (never to its work — records, counters, and cache traffic are
// those of a normal run).
func (w *wave) run(worker, j int, node sim.NodeID, start float64) float64 {
	e, job, p, i := w.e, w.job, w.p, w.orig(j)
	slow := 1.0
	if job.Chaos != nil {
		slow = job.Chaos.SlowFactor(w.seq, i)
	}
	total := 0.0
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		// Only an injected fault rolls an attempt back: a crash resets the
		// node instead, and a backup takes its own guard.
		var rollback func()
		if job.FaultInjector != nil && job.NodeState != nil {
			rollback = job.NodeState.SnapshotNode(node)
		}
		r, st, err := e.attempt(job, p, worker, i, node, w.base+start+total)
		if err != nil {
			p.fail(i, err)
			return total
		}
		total += st.Duration * slow
		if job.FaultInjector != nil && job.FaultInjector(p.kind, p.id(i), attempt) {
			if rollback != nil {
				rollback()
			}
			continue // attempt wasted; re-execute
		}
		st.Duration = total
		st.Counters.Add(slotRetries, int64(attempt-1))
		p.install(i, node, r)
		p.stats[i] = st
		return total
	}
	p.fail(i, fmt.Errorf("mapreduce: job %q %s failed %d attempts", job.Name, p.label(i), maxAttempts))
	return total
}

// attempt runs one task attempt, converting a TaskContext.Abort into an
// error. Aborts are permanent logical failures (an index error under
// ErrorFailJob, not a crashed machine), so the caller fails the job
// instead of re-executing the attempt.
func (e *Engine) attempt(job *Job, p *phaseSpec, worker, i int, node sim.NodeID, absStart float64) (r attemptResult, st TaskStats, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			ab, ok := rec.(taskAbort)
			if !ok {
				panic(rec)
			}
			err = fmt.Errorf("mapreduce: job %q %s aborted: %w", job.Name, p.label(i), ab.err)
		}
	}()
	r, st = p.run(worker, i, node, absStart)
	return r, st, nil
}
