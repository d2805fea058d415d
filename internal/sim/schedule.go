package sim

import (
	"cmp"
	"slices"
)

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
// a pure function of the heap's contents — the parallel executor pushes
// completions back in arrival order, and a total order keeps its picks
// bit-identical to the serial executor's. node and idx are int32 so the
// entry packs into 16 bytes; a 10k-node cluster holds 80k of them.
type slot struct {
	free float64
	node int32
	idx  int32
}

// slotHeap is a typed binary min-heap of slots. It replaces the previous
// container/heap implementation: push and pop move concrete values, so
// dispatch no longer boxes a slot into an interface{} (one allocation per
// push and one per pop) on the scheduler's hottest loop.
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

func (h slotHeap) Len() int { return len(h) }

func (h *slotHeap) push(s slot) {
	*h = append(*h, s)
	q := *h
	// Sift up.
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !slotLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *slotHeap) pop() slot {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	q.siftDown(0)
	return top
}

// siftDown restores the heap invariant below position i.
func (h slotHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && slotLess(h[r], h[l]) {
			min = r
		}
		if !slotLess(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// init establishes the heap invariant over arbitrary contents.
func (h slotHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
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
}

// newTaskPicker lays the queues out by count → prefix → fill, each window
// capped at its queue's length, so set-up is a fixed number of allocations
// whatever the task count.
func newTaskPicker(ph Phase, nodes int) *taskPicker {
	p := &taskPicker{
		prefs:   ph.Preferred,
		pending: make([]bool, ph.Tasks),
		byNode:  make([][]int32, nodes),
		left:    ph.Tasks,
	}
	prefers := func(n NodeID) bool { return n >= 0 && int(n) < nodes }
	counts, total := make([]int, nodes), 0
	for i := range p.pending {
		p.pending[i] = true
		for _, n := range p.prefs(i) {
			if prefers(n) {
				counts[n]++
				total++
			}
		}
	}
	flat := make([]int32, total)
	for n, c := range counts {
		p.byNode[n], flat = flat[:0:c], flat[c:]
	}
	for i := range p.pending {
		for _, n := range p.prefs(i) {
			if prefers(n) {
				p.byNode[n] = append(p.byNode[n], int32(i))
			}
		}
	}
	return p
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

// finish sorts a phase's assignments, which arrive in the order the executor
// made or completed them, by (start, task) — a total order — and sums them up.
func (r *PhaseResult) finish() {
	slices.SortFunc(r.Assignments, func(a, b Assignment) int {
		if a.Start != b.Start {
			return cmp.Compare(a.Start, b.Start)
		}
		return cmp.Compare(a.Task, b.Task)
	})
	for _, a := range r.Assignments {
		if a.Local {
			r.LocalTasks++
		}
		r.Makespan = max(r.Makespan, a.Start+a.Duration)
	}
}

// schedulePhaseSerial executes every task body inline in the event loop.
// h is the initial slot heap (full cluster or a job's lease).
func (c *Cluster) schedulePhaseSerial(ph Phase, h slotHeap) PhaseResult {
	res := PhaseResult{}
	picker := newTaskPicker(ph, c.cfg.Nodes)
	totalSlots := len(h)
	res.Waves = (ph.Tasks + totalSlots - 1) / totalSlots
	res.Assignments = make([]Assignment, 0, ph.Tasks)

	for scheduled := 0; scheduled < ph.Tasks; scheduled++ {
		s := h.pop()
		ti, local := picker.pick(NodeID(s.node))
		dur := (c.cfg.TaskStartup + ph.Run(0, ti, NodeID(s.node), s.free)) / c.cfg.SpeedOf(NodeID(s.node))
		res.Assignments = append(res.Assignments, Assignment{Task: ti, Node: NodeID(s.node), Slot: s.idx, Start: s.free, Duration: dur, Local: local})
		h.push(slot{node: s.node, idx: s.idx, free: s.free + dur})
	}
	res.finish()
	return res
}
