package sim

import "math"

// Phase is a phase as the executors consume it: Tasks schedulable units of
// work (map or reduce tasks) told apart by index, not a value — and a
// closure — each. The scheduler picks a node for task i; Run then executes
// it "on" that node and reports its virtual duration, which may depend on
// the placement (local vs remote input, local vs remote index partitions).
type Phase struct {
	Tasks int
	// Workers, when positive, caps the workers the phase runs on. A caller
	// that sized scratch per worker index from PhaseWorkers passes the count
	// it read, so Run's indexes stay below it whatever the executor reads
	// (GOMAXPROCS may have been raised in between).
	Workers int
	// Preferred lists the nodes where task i would run with locality (input
	// chunk replicas for data locality, index partition hosts for the
	// index-locality strategy); empty means no preference. The scheduler
	// asks more than once per task and only reads the list, so it must be
	// the same every time and may be shared between tasks.
	Preferred func(i int) []NodeID
	// Run executes task i on the chosen node and returns its virtual
	// duration in seconds. start is the task's virtual start time within
	// the phase, known at placement; task bodies use it to locate
	// themselves on the job's virtual clock (index outage windows open
	// and close against that clock). Run is called exactly once per task.
	// Under the parallel executor, bodies for different nodes execute
	// concurrently; bodies for the same node always execute one at a
	// time, in the order the scheduler placed them, so per-node shared
	// state (the paper's per-machine lookup caches) sees the same access
	// sequence as the serial executor.
	//
	// worker is the index of the worker running the body, in
	// [0, PhaseWorkers(Tasks)) — and below Workers, when that is set —, 0
	// under the serial executor. At most one body runs under one index at a
	// time, so scratch kept per index needs no lock; which index a task is
	// told differs from run to run.
	Run func(worker, i int, node NodeID, start float64) float64
}

// Task is one task of a phase given as a slice, which SchedulePhase and
// SchedulePhaseLease adapt onto Phase: Run is the adapter's form of
// Phase.Run, with the same guarantees and not told its worker.
type Task struct {
	Preferred []NodeID
	Run       func(node NodeID, start float64) float64
}

// phaseOf adapts a task slice onto the form the executors consume.
func phaseOf(tasks []Task) Phase {
	return Phase{
		Tasks:     len(tasks),
		Preferred: func(i int) []NodeID { return tasks[i].Preferred },
		Run:       func(_, i int, node NodeID, start float64) float64 { return tasks[i].Run(node, start) },
	}
}

// Assignment records where and when a task ran. Fields are ordered and
// sized to keep the record at 40 bytes: phases at cluster scale hold one
// per task (a 10k-node sweep schedules millions), and chaos splicing
// copies them wholesale.
type Assignment struct {
	Start    float64
	Duration float64
	Task     int // index into the scheduled task slice
	Node     NodeID
	Slot     int32 // execution slot on the node, in [0, slotsPerNode)
	Local    bool  // whether the task ran on one of its preferred nodes
}

// PhaseResult summarizes one scheduled phase (a map wave set or a reduce
// wave set).
type PhaseResult struct {
	Makespan    float64
	Assignments []Assignment
	// Waves is the number of scheduling waves: ceil(tasks/slots) under
	// uniform durations; reported for the adaptive optimizer, which
	// collects statistics after the first wave. Chaos recovery waves add
	// their own wave counts on top.
	Waves int
	// LocalTasks counts tasks that ran with locality.
	LocalTasks int
}

// slot is one execution slot on a node, ordered by the time it frees up.
// The within-node index identifies the lane a task ran on for trace
// export; the ordering is total (free, node, idx), so the pop sequence is
// a pure function of the queue's contents — the parallel executor pushes
// completions back in arrival order, and a total order keeps its picks
// bit-identical to the serial executor's. node and idx are int32 so the
// entry packs into 16 bytes.
type slot struct {
	free float64
	node int32
	idx  int32
}

// slotHeap is a typed binary min-heap of slots: push and pop move concrete
// values, where container/heap boxed each into an interface{}.
type slotHeap []slot

func slotLess(a, b slot) bool {
	if a.free != b.free {
		return a.free < b.free
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.idx < b.idx
}

func (h *slotHeap) push(s slot) {
	*h = append(*h, s)
	q := *h
	for i := len(q) - 1; i > 0; { // sift up
		parent := (i - 1) / 2
		if !slotLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *slotHeap) pop() slot {
	q, n := *h, len(*h)-1
	top := q[0]
	q[0], q = q[n], q[:n]
	*h = q
	for i := 0; ; { // sift down
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && slotLess(q[r], q[l]) {
			min = r
		}
		if !slotLess(q[min], q[i]) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// slotQueue is a phase's slots, popped least first by slotLess. An unused
// slot is free at 0, so the unused ones, walked node by node and lane by
// lane, come in slotLess order: a cursor yields them without materialising
// any, and only the slots completed tasks freed wait in a heap. pop takes
// the lesser head, so the pop sequence is the one a single heap of every
// slot gives (slotLess is total), at a cost that follows the tasks.
type slotQueue struct {
	next  slot     // the cursor's slot, while node < nodes
	freed slotHeap // pushed by the executors
	total int      // slots in the phase

	node, k, width int // the cursor: the k-th of node's width slots
	nodes, perNode int
	lease          *Lease
	down           func(NodeID) bool
}

// fromCursor reports whether the least slot is the cursor's.
func (q *slotQueue) fromCursor() bool {
	return q.node < q.nodes && (len(q.freed) == 0 || slotLess(q.next, q.freed[0]))
}

// min returns the least slot's free time, or +Inf when none is left.
func (q *slotQueue) min() float64 {
	switch {
	case q.fromCursor():
		return 0 // an unused slot is free at 0
	case len(q.freed) > 0:
		return q.freed[0].free
	}
	return math.Inf(1)
}

func (q *slotQueue) pop() slot {
	if !q.fromCursor() {
		return q.freed.pop()
	}
	s := q.next
	q.advance()
	return s
}

// taskPicker implements the deterministic locality-preferring greedy
// policy shared by the serial and parallel executors: whenever a slot
// frees on node n, it first looks for a pending task that prefers n, and
// otherwise takes the oldest pending task (a remote/"rack-off"
// assignment). Both executors make the identical sequence of picks, so
// placements — and therefore durations and makespans — are bit-identical.
//
// Per-node preference queues are dense slices indexed by node (node IDs
// are dense in [0, Nodes)), all windows of one flat array. A task picked
// via one node's queue leaves dead entries in the queues of its other
// preferred nodes; a scan consumes what it passes, dead entries included,
// so replicated preferences at 10k nodes never turn pick into a crawl.
type taskPicker struct {
	prefs   func(i int) []NodeID
	pending []bool
	byNode  [][]int32 // per-node FIFO of preferring task indices
	next    int       // cursor for non-local pickup, in task order
	left    int

	// Set-up scratch: each node's queue length, and the array the queues
	// are windows of.
	counts []int
	flat   []int32
}

// reset sets the picker up for a phase on a cluster of nodes, laying the
// queues out by count → prefix → fill, each window capped at its queue's
// length. The arrays of its last phase are reused where they have room, so
// set-up allocates a fixed number of times whatever the task count, and
// not at all on a picker that has seen a phase as large.
func (p *taskPicker) reset(ph Phase, nodes int) {
	p.prefs, p.next, p.left = ph.Preferred, 0, ph.Tasks
	p.pending = sized(p.pending, ph.Tasks)
	p.byNode = sized(p.byNode, nodes)
	p.counts = sized(p.counts, nodes)
	clear(p.counts)
	prefers := func(n NodeID) bool { return n >= 0 && int(n) < nodes }
	total := 0
	for i := range p.pending {
		p.pending[i] = true
		for _, n := range p.prefs(i) {
			if prefers(n) {
				p.counts[n]++
				total++
			}
		}
	}
	p.flat = sized(p.flat, total)
	flat := p.flat
	for n, c := range p.counts {
		p.byNode[n], flat = flat[:0:c], flat[c:]
	}
	for i := range p.pending {
		for _, n := range p.prefs(i) {
			if prefers(n) {
				p.byNode[n] = append(p.byNode[n], int32(i))
			}
		}
	}
}

// sized returns s at length n, on its own array when that has the room;
// what it holds is left to the caller.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// phaseScratch is what scheduling a phase works in and throws away when
// the phase ends, sized by its tasks and by the cluster's nodes: the
// picker's queues, the freed slots' heap, the parallel executor's in-flight
// heap and its pool's links, nodes and ready list, and finish's positions.
// The Cluster keeps one between phases (Cluster.scratch), and each executor
// resets what it uses in place, so a warm phase allocates its result and
// its workers and nothing else.
type phaseScratch struct {
	picker taskPicker
	freed  slotHeap
	infl   lbHeap
	next   []int32
	nodes  []parNode
	ready  []int32
	pos    []int32
}

// takeScratch hands a phase the cluster's scratch, or a new one while
// another phase holds it; RunPhase stores it back when the phase ends.
// Unlike a sync.Pool the kept one survives collections, so a warm phase's
// allocations are the same every time.
func (c *Cluster) takeScratch() *phaseScratch {
	if s := c.scratch.Swap(nil); s != nil {
		return s
	}
	return new(phaseScratch)
}

// pick takes the next task for a freed slot on node, or -1 when no tasks
// remain.
func (p *taskPicker) pick(node NodeID) (ti int, local bool) {
	if p.left == 0 {
		return -1, false
	}
	ti = -1
	q := p.byNode[node]
	for ti < 0 && len(q) > 0 {
		if cand := int(q[0]); p.pending[cand] {
			ti, local = cand, true
		}
		q = q[1:]
	}
	p.byNode[node] = q
	if ti < 0 {
		for p.next < len(p.pending) && !p.pending[p.next] {
			p.next++
		}
		if p.next >= len(p.pending) {
			return -1, false
		}
		ti = p.next
		local = ContainsNode(p.prefs(ti), node)
	}
	p.pending[ti] = false
	p.left--
	return ti, local
}

// SchedulePhase runs all tasks on the cluster using slotsPerNode slots per
// node, emulating Hadoop's locality-preferring greedy scheduler. Tasks
// execute for real, so their measured virtual durations reflect the
// placement the scheduler chose.
//
// When the cluster allows more than one worker (Config.Parallelism, or
// GOMAXPROCS by default), task bodies run concurrently on real goroutines
// while the virtual-time schedule stays bit-identical to the serial
// executor: placements are decided by the same greedy policy in the same
// order, tasks placed on the same node run one at a time in placement
// order, and results are merged deterministically by task index.
func (c *Cluster) SchedulePhase(tasks []Task, slotsPerNode int) PhaseResult {
	return c.SchedulePhaseLease(tasks, slotsPerNode, nil, nil)
}

const errStartOrder = "sim: a phase's starts decrease in dispatch order: a task's duration was negative"

// finish puts a phase's assignments into (start, task) order and sums them
// up. They come in dispatch order, which is by start: a slot goes back at
// free + duration, no earlier than it was popped, unless a duration was
// negative (errStartOrder). So only runs of equal start need ordering, and
// tasks being 0..n-1 once each, one pass over them hands the run at lo its
// positions lo, lo+1, … in task order; an in-place permutation moves the
// records there. runs and pos are scratch of len(Assignments), any
// contents; pos is by task: the start of its run, then its position.
func (r *PhaseResult) finish(runs, pos []int32) {
	as := r.Assignments
	lo := 0
	for j, a := range as {
		if j == 0 || a.Start != as[lo].Start {
			if a.Start < as[lo].Start {
				panic(errStartOrder)
			}
			lo, runs[j] = j, int32(j)
		}
		pos[a.Task] = int32(lo)
		if a.Local {
			r.LocalTasks++
		}
		r.Makespan = max(r.Makespan, a.Start+a.Duration)
	}
	for t, lo := range pos {
		pos[t] = runs[lo]
		runs[lo]++
	}
	for i := range as {
		for p := pos[as[i].Task]; int(p) != i; p = pos[as[i].Task] {
			as[i], as[p] = as[p], as[i]
		}
	}
}

// schedulePhaseSerial executes every task body inline in the event loop,
// taking slots from q (the full cluster or a job's lease).
func (c *Cluster) schedulePhaseSerial(ph Phase, q *slotQueue, sc *phaseScratch) PhaseResult {
	res := PhaseResult{}
	picker := &sc.picker
	picker.reset(ph, c.cfg.Nodes)
	res.Waves = (ph.Tasks + q.total - 1) / q.total
	res.Assignments = make([]Assignment, 0, ph.Tasks)

	for scheduled := 0; scheduled < ph.Tasks; scheduled++ {
		s := q.pop()
		ti, local := picker.pick(NodeID(s.node))
		dur := (c.cfg.TaskStartup + ph.Run(0, ti, NodeID(s.node), s.free)) / c.cfg.SpeedOf(NodeID(s.node))
		res.Assignments = append(res.Assignments, Assignment{Task: ti, Node: NodeID(s.node), Slot: s.idx, Start: s.free, Duration: dur, Local: local})
		q.freed.push(slot{node: s.node, idx: s.idx, free: s.free + dur})
	}
	sc.next, sc.pos = sized(sc.next, ph.Tasks), sized(sc.pos, ph.Tasks)
	res.finish(sc.next, sc.pos)
	return res
}
