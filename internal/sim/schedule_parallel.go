package sim

import (
	"errors"
	"math"
	"sync"
)

// The parallel executor runs task bodies on real goroutines while
// reproducing the serial executor's virtual-time schedule exactly. The
// coordinator below replays the same greedy policy (taskPicker over a
// slot queue); the one thing it must get right is the ORDER of placement
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
// owner runs the chain it detached front to back. Tasks sharing that node's
// state (the per-machine lookup caches of §3.2) therefore observe the same
// access sequence as under the serial executor, and the pool's mutex orders
// one owner's accesses before the next one's. State shared across nodes
// must be synchronized and order-independent (atomic counters, OR-able
// sketches); see the concurrency model note in DESIGN.md.

// lbHeap tracks the earliest time any in-flight task's slot could free up:
// a heap of slots keyed by that lower bound, idx carrying the task's
// dispatch sequence number, with lazy deletion — completions mark their
// sequence number retired, and stale tops are popped on the next min query.
// The dispatch loop asks for the minimum once per placement: O(log inflight).
type lbHeap struct {
	h       slotHeap
	retired []bool // indexed by seq; seq < ph.Tasks always
}

// min returns the earliest possible end time of any in-flight task, or
// +Inf when none are in flight.
func (l *lbHeap) min() float64 {
	for len(l.h) > 0 && l.retired[l.h[0].idx] {
		l.h.pop()
	}
	if len(l.h) == 0 {
		return math.Inf(1)
	}
	return l.h[0].free
}

// none ends a chain.
const none = int32(-1)

// parNode is one node's place in the pool: the chain of its placements no
// worker has taken yet, and whether a worker owns it — is running, or about
// to run, a chain detached from it.
type parNode struct {
	head, tail int32 // dispatch sequence numbers; head is none when empty
	owned      bool
}

// workerPool runs one phase's placements on a fixed set of goroutines.
// Everything per task is indexed by dispatch sequence number and sized once
// for the phase: placed[seq] is the placement — the phase's assignment
// record, its Duration written by the worker that ran it — and next[seq]
// links it first into its node's chain, then into the chain of finished
// work. ready lists the nodes that have work and no owner.
//
// mu guards nodes, ready, the finished chain and the links of any sequence
// number on them; a detached chain belongs to its worker alone until it is
// handed back, a collected one to the coordinator.
type workerPool struct {
	c      *Cluster
	run    func(worker, i int, node NodeID, start float64) float64
	placed []Assignment
	next   []int32
	nodes  []parNode

	mu      sync.Mutex
	work    sync.Cond // workers wait here for a ready node
	done    sync.Cond // the coordinator waits here for finished work, and for the workers to end
	workers int
	live    int // workers that have not ended
	ready   []int32
	fin     int32 // head of the finished chain
	closed  bool
	// A body that does not return fails the phase: failSeq is the lowest
	// sequence number whose body panicked, failure what it panicked with —
	// errBodyExited for one that ended its goroutine instead.
	failSeq int32
	failure any
}

var errBodyExited = errors.New("sim: a task body exited its goroutine (runtime.Goexit, t.FailNow) instead of returning")

func (c *Cluster) newWorkerPool(ph Phase, placed []Assignment, workers int) *workerPool {
	p := &workerPool{
		c: c, run: ph.Run, placed: placed, workers: workers, live: workers,
		next: make([]int32, ph.Tasks), nodes: make([]parNode, c.cfg.Nodes),
		ready: make([]int32, 0, min(ph.Tasks, c.cfg.Nodes)), // a node is listed at most once
		fin:   none, failSeq: none,
	}
	p.work.L, p.done.L = &p.mu, &p.mu
	for n := range p.nodes {
		p.nodes[n].head = none
	}
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// worker claims chains and runs them front to back until the pool closes or
// a body does not return: it panicked, or it ended the goroutine, which
// leaves seq on its placement. Either is caught here — once per worker, not
// per task — and recorded against the pool, which it closes: no worker
// claims again. w is the index its bodies are told: a worker runs one body
// at a time, so no two run under one index.
func (p *workerPool) worker(w int) {
	seq := none // the placement being run
	defer func() {
		v := recover()
		if v == nil && seq != none {
			v = errBodyExited
		}
		p.mu.Lock()
		if v != nil {
			if p.failSeq == none || seq < p.failSeq {
				p.failSeq, p.failure = seq, v
			}
			p.closed = true
			p.work.Broadcast()
		}
		p.live--
		p.done.Signal()
		p.mu.Unlock()
	}()
	cfg := &p.c.cfg
	for head := p.turn(none); head != none; head = p.turn(head) {
		for seq = head; seq != none; seq = p.next[seq] {
			a := &p.placed[seq]
			a.Duration = (cfg.TaskStartup + p.run(w, a.Task, a.Node, a.Start)) / cfg.SpeedOf(a.Node)
		}
	}
}

// turn is a worker's one critical section per batch. It hands in the chain
// the worker has run (none the first time): the nodes on it lose their
// owner — one given more work meanwhile becomes ready again — and the chain
// joins the finished ones. Then it waits for ready nodes and claims a
// 4·workers-th of them, so that a round of many nodes spreads over all
// workers in few turns: their chains joined into one, none once closed.
func (p *workerPool) turn(ran int32) (head int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ran != none {
		last := ran
		for seq := ran; seq != none; seq = p.next[seq] {
			if n := p.placed[seq].Node; p.nodes[n].owned {
				p.nodes[n].owned = false
				if p.nodes[n].head != none {
					p.ready = append(p.ready, int32(n))
				}
			}
			last = seq
		}
		p.next[last], p.fin = p.fin, ran
		p.done.Signal()
	}
	for len(p.ready) == 0 && !p.closed {
		p.work.Wait()
	}
	if p.closed {
		return none
	}
	head, tail := none, none
	rest := len(p.ready) - (len(p.ready)+4*p.workers-1)/(4*p.workers)
	for _, ni := range p.ready[rest:] {
		n := &p.nodes[ni]
		if head == none {
			head = n.head
		} else {
			p.next[tail] = n.head
		}
		tail, n.head, n.owned = n.tail, none, true
	}
	if p.ready = p.ready[:rest]; rest > 0 {
		p.work.Signal() // this worker was woken for the ready list, not for one node
	}
	return head
}

// exchange is the coordinator's one critical section per round. It
// publishes the placements [from, to) — each joins its node's chain, and a
// node without an owner becomes ready — and collects the finished chain,
// waiting for one when there is none: the round placed all the virtual
// clock allows. Once a body has failed the phase it publishes nothing: !ok.
func (p *workerPool) exchange(from, to int32) (fin int32, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for seq := from; seq < to && p.failSeq == none; seq++ {
		p.next[seq] = none
		ni := int32(p.placed[seq].Node)
		n := &p.nodes[ni]
		if n.head != none {
			p.next[n.tail] = seq
		} else if n.head = seq; !n.owned {
			p.ready = append(p.ready, ni)
		}
		n.tail = seq
	}
	if len(p.ready) > 0 {
		p.work.Signal()
	}
	for p.fin == none && p.failSeq == none {
		p.done.Wait()
	}
	fin, p.fin = p.fin, none
	return fin, p.failSeq == none
}

// schedulePhaseParallel executes task bodies on a pool of `workers`
// goroutines (PhaseWorkers of the phase), keeping results bit-identical to
// schedulePhaseSerial — a body's panic included: it is re-raised here, on
// the caller's goroutine, once the pool is down.
func (c *Cluster) schedulePhaseParallel(ph Phase, workers int, q *slotQueue) PhaseResult {
	res := PhaseResult{}
	picker := newTaskPicker(ph, c.cfg.Nodes)
	res.Waves = (ph.Tasks + q.total - 1) / q.total
	// Indexed by dispatch sequence number until the phase is over: the pool
	// runs placements straight out of the result.
	res.Assignments = make([]Assignment, ph.Tasks)
	pool := c.newWorkerPool(ph, res.Assignments, workers)

	// At most one task per slot is in flight; entries retired below the top
	// linger, which is what append is for.
	infl := lbHeap{h: make(slotHeap, 0, min(ph.Tasks, q.total)), retired: make([]bool, ph.Tasks)}
	seq, completed := int32(0), 0
	for completed < ph.Tasks {
		// Place every task the virtual clock has already decided: the
		// earliest idle slot strictly precedes any possible in-flight
		// completion, so it is exactly the slot the serial executor pops
		// next.
		from := seq
		for int(seq) < ph.Tasks && q.min() < infl.min() {
			s := q.pop()
			ti, local := picker.pick(NodeID(s.node))
			res.Assignments[seq] = Assignment{Task: ti, Node: NodeID(s.node), Slot: s.idx, Start: s.free, Local: local}
			infl.h.push(slot{free: s.free + c.cfg.TaskStartup/c.cfg.SpeedOf(NodeID(s.node)), idx: seq})
			seq++
		}
		fin, ok := pool.exchange(from, seq)
		if !ok {
			break
		}
		// Completion order does not matter: the slot queue's order is total
		// and the assignments stay in dispatch order.
		for ; fin != none; fin = pool.next[fin] {
			a := &res.Assignments[fin]
			completed++
			infl.retired[fin] = true // its heap entry is dropped by a later min query
			q.freed.push(slot{node: int32(a.Node), idx: a.Slot, free: a.Start + a.Duration})
		}
	}
	// Stop the workers — each finishes the chain it is running — and wait.
	pool.mu.Lock()
	pool.closed = true
	pool.work.Broadcast()
	for pool.live > 0 {
		pool.done.Wait()
	}
	pool.mu.Unlock()
	if pool.failSeq != none {
		panic(pool.failure)
	}
	res.finish(pool.next) // the chains are done with
	return res
}
