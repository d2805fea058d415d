package mapreduce

import (
	"fmt"

	"efind/internal/chaos"
	"efind/internal/dfs"
	"efind/internal/sim"
)

// Job describes one MapReduce job. The zero value of optional fields picks
// Hadoop-like defaults: identity map, hash partitioner, data-locality
// placement. A nil Reduce makes the job map-only (map output goes straight
// to the output file, one shard per map task, as Hadoop does with zero
// reducers).
type Job struct {
	// Name labels the job in outputs and temp file names.
	Name string
	// Input is the file to read. Each chunk becomes one input split.
	Input *dfs.File

	// MapStagesBefore are chained functions executed before Map (the
	// paper's head IndexOperators compile into these).
	MapStagesBefore []StageFactory
	// Map is the user map function; nil means identity.
	Map MapFunc

	// Combine, when set on a job with a Reduce function, runs on each map
	// task's output per reducer bucket before the shuffle (Hadoop's
	// combiner): values of equal keys are pre-aggregated locally, cutting
	// shuffle bytes. It must be algebraically compatible with Reduce
	// (associative and commutative aggregation).
	Combine ReduceFunc

	// NumReduce is the reducer count; zero with a Reduce function set
	// picks DefaultNumReduce: every reduce slot on small clusters,
	// capped near the input's map-side parallelism on large ones.
	NumReduce int
	// Partition routes a map-output key to a reducer; nil = HashPartition.
	Partition func(key string, numReduce int) int
	// Reduce is the user reduce function; nil makes the job map-only.
	Reduce ReduceFunc
	// ReduceStagesAfter are chained functions executed after Reduce (tail
	// IndexOperators, Figure 6(c)).
	ReduceStagesAfter []StageFactory

	// OutputName names the output file; empty picks a fresh temp name.
	OutputName string
	// MapPlacement overrides the preferred nodes of the map task for a
	// split (the index-locality strategy schedules map tasks on index
	// partition hosts instead of input chunk replicas). Nil = data
	// locality (chunk replicas). The scheduler asks more than once per
	// split and only reads the list: same answer every time.
	MapPlacement func(split int, chunk *dfs.Chunk) []sim.NodeID
	// NodeState, when set, is the per-node soft state the job's stages
	// share across tasks. It is guarded before each task attempt a
	// FaultInjector may fail, rolled back iff the attempt fails, and
	// guarded and rolled back around every speculative backup, win or
	// lose. A crash resets the node after its task attempts have been
	// discarded and before their re-execution is scheduled: a rebooted
	// TaskTracker restarts cold. Fault-free runs call neither.
	NodeState NodeState

	// FaultInjector, when set, is consulted after each task attempt of
	// THIS job: returning true fails that attempt after it has consumed
	// its full duration, and the task is re-executed (MapReduce's
	// re-execution fault tolerance). Attempts are 1-based; an attempt
	// that is not failed succeeds. A task whose first maxAttempts
	// attempts all fail fails the whole job, as Hadoop does once a task
	// exhausts mapred.map.max.attempts. The injector must be safe for
	// concurrent calls: the parallel executor consults it from several
	// goroutines. Being per-job (not per-engine) means concurrent jobs on
	// one engine cannot race on or leak each other's injectors.
	FaultInjector func(kind TaskKind, task, attempt int) bool

	// Chaos, when set, subjects this job to the failure-domain schedule:
	// seeded node crash/recovery windows, injected stragglers with
	// speculative backup attempts, and virtual-time straggler slowdowns.
	// (Index partition outages from the same plan are enforced by the
	// ixclient availability check, not the engine.) All chaos is
	// deterministic in the plan's seed.
	Chaos *chaos.Plan
}

// NodeState is per-node soft state (the EFind runtime's lookup caches
// and build staging) that a failed or speculative task attempt must not
// leave polluted and a node crash must drop. SnapshotNode marks the
// node's state and its rollback rewinds it; ResetNode drops it all.
type NodeState interface {
	SnapshotNode(node sim.NodeID) (rollback func())
	ResetNode(node sim.NodeID)
}

// downAt returns the node-availability predicate for a phase starting at
// the given virtual time, or nil when the job has no chaos schedule (the
// scheduler then admits every node with zero overhead).
func (j *Job) downAt(t float64) func(sim.NodeID) bool {
	if j.Chaos == nil {
		return nil
	}
	return func(n sim.NodeID) bool { return j.Chaos.NodeDown(n, t) }
}

// validate fills defaults and rejects unusable configurations.
func (j *Job) validate(e *Engine) error {
	if j.Input == nil {
		return fmt.Errorf("mapreduce: job %q has no input", j.Name)
	}
	if j.Name == "" {
		j.Name = "job"
	}
	if j.Partition == nil {
		j.Partition = HashPartition
	}
	if j.Reduce != nil && j.NumReduce <= 0 {
		j.NumReduce = DefaultNumReduce(e.Cluster, len(j.Input.Chunks))
	}
	return nil
}

// minDefaultReduce is the reducer count below which DefaultNumReduce
// never caps: clusters this small always use every reduce slot, which
// keeps the default bit-identical to the historical all-slots rule for
// every cluster up to 128 nodes × 2 slots.
const minDefaultReduce = 256

// DefaultNumReduce sizes a job's reducer count when the user leaves it
// unset. Small clusters use every reduce slot (Hadoop's classic ~1×
// slots rule of thumb); large clusters cap the default near the
// input's map-side parallelism, because every reducer is a scheduled
// task — start-up charge, statistics, an output shard — and an uncapped
// default on a 10k-node cluster sprays a 240-chunk input over 20k
// mostly-empty ones. (The shuffle does not argue for the cap: an empty
// map task × reducer pair costs nothing.) A job that wants wider reduce
// parallelism sets NumReduce explicitly.
func DefaultNumReduce(c *sim.Cluster, mapTasks int) int {
	slots := c.ReduceSlots()
	limit := mapTasks
	if limit < minDefaultReduce {
		limit = minDefaultReduce
	}
	if slots > limit {
		return limit
	}
	return slots
}

// identityMap is used when Job.Map is nil.
func identityMap(_ *TaskContext, in Pair, emit Emit) { emit(in) }

// IdentityReduce emits every value of the group unchanged under the group
// key. It is the reduce function of the paper's "shuffling jobs", whose
// only purpose is the group-by between Map and Reduce.
func IdentityReduce(_ *TaskContext, key string, values []string, emit Emit) {
	for _, v := range values {
		emit(Pair{Key: key, Value: v})
	}
}
