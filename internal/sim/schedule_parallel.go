package sim

import (
	"math"
	"sync"
)

// The parallel executor runs task bodies on real goroutines while
// reproducing the serial executor's virtual-time schedule exactly. The
// coordinator below replays the same greedy policy (taskPicker over a
// slot heap); the one thing it must get right is the ORDER of placement
// decisions, because each decision consumes picker state.
//
// The serial executor pops the slot with the minimum (free, node) at
// every step. A slot's free time is known once its previous task reports
// a duration, so the coordinator may safely place a task on an idle slot
// only when no in-flight task could possibly free its slot earlier: every
// in-flight task on node n ends no earlier than start + TaskStartup /
// SpeedOf(n). Whenever the earliest idle slot beats that bound strictly,
// its placement is the one the serial executor would make next; otherwise
// the coordinator waits for a completion and re-evaluates. With the
// default nonzero TaskStartup this dispatches whole waves at once.
//
// Determinism of the task bodies themselves comes from per-node ordering,
// which is ownership: a node's placements wait on a chain in placement
// order, a node has at most one owner among the pool's workers, and the
// owner runs the chain front to back. Tasks sharing that node's state (the
// per-machine lookup caches of §3.2) therefore observe the same access
// sequence as under the serial executor, and the pool's mutex orders one
// owner's accesses before the next one's. State shared across nodes must be
// synchronized and order-independent (atomic counters, OR-able sketches);
// see the concurrency model note in DESIGN.md.

// lbEntry is one in-flight task's earliest possible virtual end time.
type lbEntry struct {
	lb  float64
	seq int32
}

// lbHeap tracks the minimum lower bound over all in-flight tasks as a
// typed min-heap with lazy deletion: completions mark their sequence
// number retired, and stale tops are popped on the next min query. The
// dispatch loop consults the minimum once per placement, so this keeps
// coordination O(log inflight) instead of the previous full-map scan per
// dispatch — the scan went quadratic at 10k nodes × 8 slots.
type lbHeap struct {
	h       []lbEntry
	retired []bool // indexed by seq; seq < len(tasks) always
}

func (l *lbHeap) push(e lbEntry) {
	l.h = append(l.h, e)
	i := len(l.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if l.h[parent].lb <= l.h[i].lb {
			break
		}
		l.h[i], l.h[parent] = l.h[parent], l.h[i]
		i = parent
	}
}

func (l *lbHeap) popTop() {
	n := len(l.h) - 1
	l.h[0] = l.h[n]
	l.h = l.h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && l.h[r].lb < l.h[c].lb {
			c = r
		}
		if l.h[i].lb <= l.h[c].lb {
			break
		}
		l.h[i], l.h[c] = l.h[c], l.h[i]
		i = c
	}
}

// retire marks an in-flight entry complete; its heap entry is dropped
// lazily by the next min query.
func (l *lbHeap) retire(seq int32) { l.retired[seq] = true }

// min returns the earliest possible end time of any in-flight task, or
// +Inf when none are in flight.
func (l *lbHeap) min() float64 {
	for len(l.h) > 0 && l.retired[l.h[0].seq] {
		l.popTop()
	}
	if len(l.h) == 0 {
		return math.Inf(1)
	}
	return l.h[0].lb
}

// none ends a chain.
const none = int32(-1)

// parNode is one node's place in the pool: the chain of its placements no
// worker has taken yet, whether a worker owns it — is running, or about to
// run, a chain detached from it — and its link on the ready list.
type parNode struct {
	head, tail int32 // dispatch sequence numbers; head is none when empty
	link       int32 // the next ready node
	owned      bool
}

// workerPool runs one phase's placements on a fixed set of goroutines.
// Everything per task is indexed by dispatch sequence number and sized once
// for the phase: placed[seq] is the placement — the phase's assignment
// record, its Duration written by the worker that ran it — and next[seq]
// links it first into its node's chain, then into the chain of finished
// work. A node that has work and no owner is on the ready list; a worker
// claims ready nodes by detaching their chains, runs them outside the lock,
// and hands them back finished when it claims again. So a node has at most
// one owner, its chain runs in placement order, and no more bodies run at
// once than there are workers.
//
// mu guards nodes, the ready list, the finished chain and the links of any
// sequence number on them; a detached chain belongs to its worker alone
// until it is handed back, a collected one to the coordinator.
type workerPool struct {
	c      *Cluster
	tasks  []Task
	placed []Assignment
	next   []int32
	nodes  []parNode

	mu      sync.Mutex
	work    sync.Cond // workers wait here for a ready node
	done    sync.Cond // the coordinator waits here for finished work
	wg      sync.WaitGroup
	workers int
	idle    int   // workers waiting on work
	ready   int32 // head of the ready list
	nready  int
	fin     int32 // head of the finished chain
	closed  bool

	// A panicking body fails the phase: failSeq is the lowest sequence
	// number whose body panicked, failure what it panicked with.
	failSeq int32
	failure any
}

func (c *Cluster) newWorkerPool(tasks []Task, placed []Assignment, workers int) *workerPool {
	p := &workerPool{
		c: c, tasks: tasks, placed: placed,
		next:    make([]int32, len(tasks)),
		nodes:   make([]parNode, c.cfg.Nodes),
		workers: workers, ready: none, fin: none, failSeq: none,
	}
	p.work.L, p.done.L = &p.mu, &p.mu
	for n := range p.nodes {
		p.nodes[n].head = none
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// worker claims chains and runs them until the pool closes or a body of
// its own panics.
func (p *workerPool) worker() {
	defer p.wg.Done()
	head, tail := none, none
	for {
		if head, tail = p.turn(head, tail); head == none || !p.run(head) {
			return
		}
	}
}

// run executes a claimed chain front to back. A panic in a body is caught
// here — once per chain, not per task —, recorded against the pool, and
// ends the worker.
func (p *workerPool) run(head int32) (ok bool) {
	seq := head
	defer func() {
		if ok {
			return
		}
		v := recover()
		p.mu.Lock()
		if p.failSeq == none || seq < p.failSeq {
			p.failSeq, p.failure = seq, v
		}
		p.done.Signal()
		p.mu.Unlock()
	}()
	cfg := &p.c.cfg
	for ; seq != none; seq = p.next[seq] {
		a := &p.placed[seq]
		a.Duration = (cfg.TaskStartup + p.tasks[a.Task].Run(a.Node, a.Start)) / cfg.SpeedOf(a.Node)
	}
	return true
}

// turn is a worker's one critical section per batch. It hands in the chain
// the worker has run (head to tail, none the first time): the nodes on it
// lose their owner — one that was given more work meanwhile goes back on
// the ready list — and the chain joins the finished ones. Then it waits for
// ready nodes and claims its share of them, a 4·workers-th, so that a round
// of many nodes is spread over all workers and still costs few turns. The
// claimed chains come back joined into one; head is none once the pool has
// closed.
func (p *workerPool) turn(head, tail int32) (int32, int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if head != none {
		for seq := head; seq != none; seq = p.next[seq] {
			if n := p.placed[seq].Node; p.nodes[n].owned {
				p.nodes[n].owned = false
				if p.nodes[n].head != none {
					p.pushReady(int32(n))
				}
			}
		}
		p.next[tail], p.fin = p.fin, head
		p.done.Signal()
	}
	for p.nready == 0 && !p.closed {
		p.idle++
		p.work.Wait()
		p.idle--
	}
	if p.closed {
		return none, none
	}
	head, tail = none, none
	for k := (p.nready + 4*p.workers - 1) / (4 * p.workers); k > 0; k-- {
		n := &p.nodes[p.ready]
		p.ready, p.nready = n.link, p.nready-1
		if head == none {
			head = n.head
		} else {
			p.next[tail] = n.head
		}
		tail, n.head, n.owned = n.tail, none, true
	}
	if p.nready > 0 && p.idle > 0 {
		p.work.Signal() // this worker was woken for the ready list, not for one node
	}
	return head, tail
}

func (p *workerPool) pushReady(n int32) {
	p.nodes[n].link, p.ready = p.ready, n
	p.nready++
}

// exchange is the coordinator's one critical section per round. It
// publishes the placements [from, to) — each joins its node's chain, and a
// node without an owner becomes ready — and collects the finished chain,
// waiting for one when there is none: the round placed everything the
// virtual clock allows, so only a completion can move the phase on. Once a
// body has panicked it publishes nothing and reports !ok.
func (p *workerPool) exchange(from, to int32) (fin int32, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failSeq != none {
		return none, false
	}
	for seq := from; seq < to; seq++ {
		p.next[seq] = none
		ni := int32(p.placed[seq].Node)
		n := &p.nodes[ni]
		if n.head != none {
			p.next[n.tail] = seq
		} else if n.head = seq; !n.owned {
			p.pushReady(ni)
		}
		n.tail = seq
	}
	if p.nready > 0 && p.idle > 0 {
		p.work.Signal()
	}
	for p.fin == none && p.failSeq == none {
		p.done.Wait()
	}
	if p.failSeq != none {
		return none, false
	}
	fin, p.fin = p.fin, none
	return fin, true
}

// close stops the workers — each finishes the chain it is running — and
// waits for them.
func (p *workerPool) close() {
	p.mu.Lock()
	p.closed = true
	p.work.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// schedulePhaseParallel executes task bodies on a pool of up to `workers`
// goroutines, keeping results bit-identical to schedulePhaseSerial. A body
// that panics fails the phase the way it does under the serial executor:
// the panic is re-raised here, on the caller's goroutine, once the pool is
// down.
func (c *Cluster) schedulePhaseParallel(tasks []Task, workers int, h slotHeap) PhaseResult {
	res := PhaseResult{}
	picker := newTaskPicker(tasks, c.cfg.Nodes)
	totalSlots := len(h)
	res.Waves = (len(tasks) + totalSlots - 1) / totalSlots
	// Indexed by dispatch sequence number until the phase is over: the pool
	// runs placements straight out of the result.
	res.Assignments = make([]Assignment, len(tasks))

	pool := c.newWorkerPool(tasks, res.Assignments, min(workers, len(tasks), c.cfg.Nodes))

	// At most one task per slot is in flight; entries retired below the top
	// linger, which is what append is for.
	infl := lbHeap{h: make([]lbEntry, 0, min(len(tasks), totalSlots)), retired: make([]bool, len(tasks))}
	seq, completed := int32(0), 0
	for completed < len(tasks) {
		// Place every task the virtual clock has already decided: the
		// earliest idle slot strictly precedes any possible in-flight
		// completion, so it is exactly the slot the serial executor pops
		// next.
		from := seq
		for int(seq) < len(tasks) && h.Len() > 0 && h[0].free < infl.min() {
			s := h.pop()
			ti, local := picker.pick(NodeID(s.node))
			res.Assignments[seq] = Assignment{Task: ti, Node: NodeID(s.node), Slot: s.idx, Start: s.free, Local: local}
			infl.push(lbEntry{lb: s.free + c.cfg.TaskStartup/c.cfg.SpeedOf(NodeID(s.node)), seq: seq})
			seq++
		}
		fin, ok := pool.exchange(from, seq)
		if !ok {
			break
		}
		// Completion order does not matter: the slot heap's order is total
		// and the assignments are sorted below.
		for ; fin != none; fin = pool.next[fin] {
			a := &res.Assignments[fin]
			completed++
			infl.retire(fin)
			if a.Local {
				res.LocalTasks++
			}
			if end := a.Start + a.Duration; end > res.Makespan {
				res.Makespan = end
			}
			h.push(slot{node: int32(a.Node), idx: a.Slot, free: a.Start + a.Duration})
		}
	}
	pool.close()
	if pool.failSeq != none {
		panic(pool.failure)
	}
	res.sortAssignments()
	return res
}
