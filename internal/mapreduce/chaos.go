package mapreduce

import (
	"fmt"
	"sort"

	"efind/internal/chaos"
	"efind/internal/sim"
)

// This file applies a job's chaos schedule to a completed phase. Both
// fault kinds are resolved AFTER the scheduler returns, at a serial
// point, so the rewriting below is deterministic under the parallel
// executor too:
//
//   - Speculative execution replays Hadoop's backup-task policy against
//     the known schedule: any task that ran past chaos.SpecThreshold× the phase's
//     median duration gets a backup attempt on the least-loaded
//     surviving node, launched the moment the task became officially
//     late. The first finisher wins the assignment; the loser's side
//     effects are rolled back (backup cache pollution via Job.NodeState)
//     or never committed (task-local counters are dropped with the
//     losing attempt). Cost accounting keeps the ORIGINAL attempt's
//     counters either way — chaos only slowed that attempt down, so its
//     counters are exactly the fault-free run's, which is what keeps
//     accounting bit-identical.
//
//   - Node crashes discard every assignment the crashed node held —
//     in-flight and completed-but-unfetched map outputs alike, as a
//     dead TaskTracker does — and re-run them on the surviving nodes
//     via a recovery wave scheduled at the crash instant. Recovery
//     attempts are not themselves crashed or speculated (single pass);
//     a crash during the reduce phase only re-runs reduce tasks,
//     because the model treats map outputs as fetched when the reduce
//     phase starts (an "eager shuffle" — see DESIGN.md for the
//     deviation from Hadoop's pull shuffle).
//
// At cluster scale the rewriting itself must stay cheap: the straggler
// yardstick is a quickselect median (O(n), not a full sort), backup
// placement reuses incrementally maintained per-node drain times instead
// of rescanning the phase per straggler, and refreshPhase repairs the
// (start, task) ordering by merging only the rewritten assignments back
// into the still-sorted remainder — O(n + k log k) for k rewrites, and
// a no-op when the schedule came through chaos untouched.

// phasePatch tracks which assignment positions chaos rewrote, plus the
// scheduling waves recovery added, so refreshPhase can repair aggregates
// and ordering incrementally.
type phasePatch struct {
	dirty []bool
	n     int
	waves int
}

func newPhasePatch(assignments int) *phasePatch {
	return &phasePatch{dirty: make([]bool, assignments)}
}

func (p *phasePatch) mark(i int) {
	if !p.dirty[i] {
		p.dirty[i] = true
		p.n++
	}
}

// applyChaos rewrites a finished phase per the job's chaos plan.
func (e *JobRun) applyChaos(job *Job, p *phaseSpec, base float64) {
	if job.Chaos == nil || firstError(p.errs) != nil {
		return
	}
	patch := newPhasePatch(len(p.phase.Assignments))
	e.speculate(job, p, base, patch)
	e.crash(job, p, base, patch)
	refreshPhase(p.phase, patch)
}

// medianDuration returns the median assignment duration of a phase — the
// progress yardstick speculation measures stragglers against — or 0 for
// an empty phase (reachable when a crash discarded every assignment
// before the speculation scan; callers treat a non-positive median as
// "nothing to speculate against").
func medianDuration(assigns []sim.Assignment) float64 {
	if len(assigns) == 0 {
		return 0
	}
	durs := make([]float64, len(assigns))
	for i, a := range assigns {
		durs[i] = a.Duration
	}
	return quickselect(durs, len(durs)/2)
}

// quickselect returns the k-th smallest element (0-based) of durs in
// expected O(n), mutating durs. The pivot is a deterministic
// median-of-three, so equal inputs always take equal paths — no seeded
// randomness that could diverge between runs.
func quickselect(durs []float64, k int) float64 {
	lo, hi := 0, len(durs)-1
	for lo < hi {
		// Insertion sort finishes small ranges faster than partitioning.
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && durs[j] < durs[j-1]; j-- {
					durs[j], durs[j-1] = durs[j-1], durs[j]
				}
			}
			return durs[k]
		}
		mid := lo + (hi-lo)/2
		// Median-of-three into durs[mid], the pivot.
		if durs[mid] < durs[lo] {
			durs[mid], durs[lo] = durs[lo], durs[mid]
		}
		if durs[hi] < durs[mid] {
			durs[hi], durs[mid] = durs[mid], durs[hi]
			if durs[mid] < durs[lo] {
				durs[mid], durs[lo] = durs[lo], durs[mid]
			}
		}
		pivot := durs[mid]
		i, j := lo, hi
		for i <= j {
			for durs[i] < pivot {
				i++
			}
			for durs[j] > pivot {
				j--
			}
			if i <= j {
				durs[i], durs[j] = durs[j], durs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return durs[k]
		}
	}
	return durs[k]
}

// backupPlanner picks the surviving nodes speculation launches backups
// on. It maintains each node's drain time (the end of its busiest lane)
// incrementally: built once in O(assignments), updated per committed
// backup, so a phase with many stragglers no longer rescans the whole
// assignment list per candidate.
type backupPlanner struct {
	nodes int
	free  []float64
}

func newBackupPlanner(nodes int, assigns []sim.Assignment) *backupPlanner {
	bp := &backupPlanner{nodes: nodes, free: make([]float64, nodes)}
	for _, a := range assigns {
		if end := a.Start + a.Duration; end > bp.free[a.Node] {
			bp.free[a.Node] = end
		}
	}
	return bp
}

// pick returns the node (other than the straggler's own, and not down at
// absAt) whose busiest lane drains first, ties broken by node ID, or -1
// when no node qualifies. The returned free time is phase-relative, like
// assignment starts.
func (bp *backupPlanner) pick(exclude sim.NodeID, job *Job, absAt float64) (sim.NodeID, float64) {
	best := sim.NodeID(-1)
	bestFree := 0.0
	for n := 0; n < bp.nodes; n++ {
		id := sim.NodeID(n)
		if id == exclude || job.Chaos.NodeDown(id, absAt) {
			continue
		}
		if best < 0 || bp.free[n] < bestFree {
			best, bestFree = id, bp.free[n]
		}
	}
	return best, bestFree
}

// commit folds a won backup into the drain times: the backup's end
// extends its node, and the straggler's old node is recomputed because
// the discarded attempt may have been its busiest lane. assigns already
// reflects the rewritten placement.
func (bp *backupPlanner) commit(oldNode sim.NodeID, assigns []sim.Assignment, node sim.NodeID, end float64) {
	if end > bp.free[node] {
		bp.free[node] = end
	}
	drain := 0.0
	for _, a := range assigns {
		if a.Node != oldNode {
			continue
		}
		if e := a.Start + a.Duration; e > drain {
			drain = e
		}
	}
	bp.free[oldNode] = drain
}

// commitBackup resolves one speculation race. The winner keeps the
// assignment's placement and timing; the loser's attempt is discarded.
// Accounting counters and sketches always stay with the original attempt
// (see the file comment), and the race outcome is recorded on the task's
// own counters so it flows through job results, trace metrics, and
// profiles like any other counter.
func commitBackup(a *sim.Assignment, st *TaskStats, backupNode sim.NodeID, backupStart, backupDur float64, backupStats TaskStats, local bool) bool {
	st.Counters.Add(slotSpecLaunched, 1)
	if backupStart+backupDur >= a.Start+a.Duration {
		st.Counters.Add(slotSpecLost, 1)
		return false
	}
	st.Counters.Add(slotSpecWon, 1)
	backupStats.Counters = st.Counters
	backupStats.Sketches = st.Sketches
	*st = backupStats
	a.Node = backupNode
	a.Slot = 0
	a.Start = backupStart
	a.Duration = backupDur
	a.Local = local
	return true
}

// speculate launches backup attempts for the phase's stragglers.
func (e *JobRun) speculate(job *Job, p *phaseSpec, base float64, patch *phasePatch) {
	spec := job.Chaos.Spec()
	assigns := p.phase.Assignments
	if !spec.Enabled || len(assigns) < 2 {
		return
	}
	med := medianDuration(assigns)
	if med <= 0 {
		return
	}
	launched := 0
	cfg := e.Cluster.Config()
	bp := newBackupPlanner(e.Cluster.Nodes(), assigns)
	for ai := range assigns {
		a := &assigns[ai]
		if a.Duration <= chaos.SpecThreshold*med {
			continue
		}
		if spec.MaxPerPhase > 0 && launched >= spec.MaxPerPhase {
			break
		}
		launched++
		i := a.Task
		detect := a.Start + chaos.SpecThreshold*med
		node, freeAt := bp.pick(a.Node, job, base+detect)
		if node < 0 {
			continue
		}
		start := detect
		if freeAt > start {
			start = freeAt
		}
		var rollback func()
		if job.NodeState != nil {
			rollback = job.NodeState.SnapshotNode(node)
		}
		r, st, err := e.attempt(job, p, p.workers, i, node, base+start)
		if rollback != nil {
			rollback() // a backup's cache pollution never commits, win or lose
		}
		verdict := "lost"
		if err != nil {
			// The backup aborted (e.g. it straddled an outage window the
			// original missed). Hadoop kills failed backups without
			// failing the task; the original attempt stands.
			p.stats[i].Counters.Add(slotSpecLaunched, 1)
			p.stats[i].Counters.Add(slotSpecLost, 1)
		} else {
			dur := (cfg.TaskStartup + st.Duration) / cfg.SpeedOf(node)
			oldNode := a.Node
			if commitBackup(a, &p.stats[i], node, start, dur, st, sim.ContainsNode(p.preferred(i), node)) {
				p.install(i, node, r) // identical records; the winner's node now holds them
				bp.commit(oldNode, assigns, node, start+dur)
				patch.mark(ai)
				verdict = "won"
			}
		}
		// The race outcome, anchored at the backup's absolute launch time
		// for service runs.
		e.instant(fmt.Sprintf("speculate:%s/%s[%d] %s", job.Name, p.kind, p.id(i), verdict), "chaos", base+start)
	}
}

// crash absorbs the crash events falling inside the phase's window: for
// each crash, every assignment the dead node holds — in flight or
// completed — is discarded and re-executed as a recovery wave on the
// surviving nodes, starting at the crash instant. Only this phase's tasks
// re-run: map outputs count as fetched once the reduce phase starts.
func (e *JobRun) crash(job *Job, p *phaseSpec, base float64, patch *phasePatch) {
	assigns := p.phase.Assignments
	for _, cr := range job.Chaos.CrashesIn(base, base+p.phase.Makespan) {
		p.counters[chaos.CtrNodeCrashes]++
		e.instant(fmt.Sprintf("crash:node%d", cr.Node), "chaos", cr.At)
		if e.Trace != nil {
			e.Trace.Metrics.Add(chaos.CtrNodeCrashes, 1)
		}
		if job.NodeState != nil {
			job.NodeState.ResetNode(cr.Node)
		}
		lost := assignmentsOn(assigns, cr.Node)
		if len(lost) == 0 {
			continue
		}
		_, seq := e.beginPhase() // fresh deterministic key for recovery draws
		origTask := make([]int, len(lost))
		for j, ai := range lost {
			origTask[j] = assigns[ai].Task
		}
		// Recovery waves stay inside the job's slot lease: under the job
		// service a crashed tenant's re-runs must not spill onto slots
		// leased to other jobs.
		rec := (&wave{e: e.Engine, job: job, p: p, base: cr.At, seq: seq, task: origTask}).schedule(len(lost), e.lease, job.downAt(cr.At))
		spliceRecovery(assigns, lost, origTask, rec.Assignments, cr.At-base, patch)
		patch.waves += rec.Waves
		for _, i := range origTask {
			if p.stats[i].Counters != nil {
				p.stats[i].Counters.Add(slotTasksLost, 1)
			}
		}
	}
}

// assignmentsOn returns the positions of every assignment currently
// placed on the given node.
func assignmentsOn(assigns []sim.Assignment, node sim.NodeID) []int {
	var out []int
	for ai, a := range assigns {
		if a.Node == node {
			out = append(out, ai)
		}
	}
	return out
}

// spliceRecovery replaces the lost assignments with their recovery
// placements, shifting recovery starts by the crash offset so all starts
// stay phase-relative, and marks the rewritten positions dirty.
func spliceRecovery(assigns []sim.Assignment, lost, origTask []int, rec []sim.Assignment, offset float64, patch *phasePatch) {
	for _, ra := range rec {
		ai := lost[ra.Task]
		assigns[ai] = sim.Assignment{
			Task:     origTask[ra.Task],
			Node:     ra.Node,
			Slot:     ra.Slot,
			Start:    offset + ra.Start,
			Duration: ra.Duration,
			Local:    ra.Local,
		}
		patch.mark(ai)
	}
}

// refreshPhase repairs a phase's aggregates and ordering after chaos
// rewrote some of its assignments. All three aggregates are recomputed —
// Makespan, LocalTasks, and Waves (the scheduler's waves plus the
// recovery waves chaos spliced in) — so the adaptive optimizer and job
// profiles never see pre-crash wave/locality statistics. Ordering is
// restored incrementally: the untouched assignments are still in
// (start, task) order, so only the k rewritten ones are sorted and
// merged back — O(n + k log k) instead of a full re-sort, and a pure
// no-op when chaos left the schedule untouched.
func refreshPhase(p *sim.PhaseResult, patch *phasePatch) {
	p.Waves += patch.waves
	if patch.n == 0 {
		return
	}
	p.Makespan = 0
	p.LocalTasks = 0
	for _, a := range p.Assignments {
		if end := a.Start + a.Duration; end > p.Makespan {
			p.Makespan = end
		}
		if a.Local {
			p.LocalTasks++
		}
	}

	// Partition into the still-sorted clean subsequence and the rewritten
	// entries, sort the rewritten ones, and merge.
	clean := make([]sim.Assignment, 0, len(p.Assignments)-patch.n)
	dirty := make([]sim.Assignment, 0, patch.n)
	for ai, a := range p.Assignments {
		if patch.dirty[ai] {
			dirty = append(dirty, a)
		} else {
			clean = append(clean, a)
		}
	}
	less := func(a, b sim.Assignment) bool {
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Task < b.Task
	}
	sort.Slice(dirty, func(i, j int) bool { return less(dirty[i], dirty[j]) })
	ci, di := 0, 0
	for out := 0; out < len(p.Assignments); out++ {
		switch {
		case ci >= len(clean):
			p.Assignments[out] = dirty[di]
			di++
		case di >= len(dirty) || less(clean[ci], dirty[di]):
			p.Assignments[out] = clean[ci]
			ci++
		default:
			p.Assignments[out] = dirty[di]
			di++
		}
	}
}
