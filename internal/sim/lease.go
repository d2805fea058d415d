package sim

import "slices"

// Lease is a job-scoped subset of the cluster's execution slots: for each
// node, the slot indices (in [0, slotsPerNode)) the holder may run tasks
// on during one phase. The multi-tenant job service carves the cluster
// into leases so several jobs' phases interleave on one virtual timeline;
// a phase scheduled under a lease touches no slot outside it.
//
// A lease covering every slot of every node is bit-identical to
// unrestricted scheduling: the slot queue's cursor walks the same
// node-major, index-ascending order either way, so the greedy picker makes
// the same sequence of placement decisions.
type Lease struct {
	// slots[n] lists the leased slot indices on node n, ascending. A nil
	// entry means no slots on that node. len(slots) may be shorter than
	// the cluster's node count.
	slots [][]int32
	total int
}

// NewLease builds a lease from per-node slot index lists. Each list must
// be ascending; the lease keeps a reference (no copy).
func NewLease(slots [][]int32) *Lease {
	l := &Lease{slots: slots}
	for _, s := range slots {
		l.total += len(s)
	}
	return l
}

// NodeSlots returns the leased slot indices on node n, ascending.
func (l *Lease) NodeSlots(n NodeID) []int32 {
	if int(n) >= len(l.slots) {
		return nil
	}
	return l.slots[n]
}

// newSlotQueue starts a phase's slot queue, every slot unused: the leased
// slots when lease is non-nil, otherwise every slot of every node; nodes
// for which down returns true contribute none. It counts them, and panics
// naming the cause when there are none.
func (c *Cluster) newSlotQueue(slotsPerNode int, lease *Lease, down func(NodeID) bool) slotQueue {
	q := slotQueue{nodes: c.cfg.Nodes, perNode: slotsPerNode, lease: lease, down: down, node: -1}
	q.total = q.nodes * slotsPerNode
	if lease != nil {
		q.nodes, q.total = len(lease.slots), lease.total
	}
	if down != nil {
		q.total = 0
		for n := range q.nodes {
			q.total += q.slotsOn(n)
		}
	}
	if q.total == 0 {
		cause := "every node with a slot down"
		if lease != nil && lease.total == 0 {
			cause = "empty lease"
		}
		panic("sim: no slots available to schedule on (" + cause + ")")
	}
	q.advance()
	return q
}

// slotsOn returns how many slots node n offers the phase: none when down.
func (q *slotQueue) slotsOn(n int) int {
	switch {
	case q.down != nil && q.down(NodeID(n)):
		return 0
	case q.lease != nil:
		return len(q.lease.slots[n])
	}
	return q.perNode
}

// advance moves the cursor to the next slot no task has used, node by node;
// past the last node the cursor is spent.
func (q *slotQueue) advance() {
	for q.k++; q.k >= q.width; q.k = 0 {
		if q.node++; q.node == q.nodes {
			return
		}
		q.width = q.slotsOn(q.node)
	}
	q.next = slot{node: int32(q.node), idx: int32(q.k)}
	if q.lease != nil {
		q.next.idx = q.lease.slots[q.node][q.k]
	}
}

// SchedulePhaseLease is SchedulePhase restricted to available nodes and
// to a slot lease. Any node for which down returns true contributes no
// slots, so the greedy picker routes its would-be-local tasks elsewhere;
// the failure-domain chaos engine uses it to replan placement around
// crashed nodes. A nil down admits every node; a down that rejects all
// nodes panics, because a cluster with zero slots can never finish a
// phase. When lease is non-nil, only the leased slots run tasks, so
// concurrent jobs granted disjoint leases never contend for the same
// lane. A nil lease admits the whole cluster.
func (c *Cluster) SchedulePhaseLease(tasks []Task, slotsPerNode int, lease *Lease, down func(NodeID) bool) PhaseResult {
	return c.RunPhase(phaseOf(tasks), slotsPerNode, lease, down)
}

// RunPhase is SchedulePhaseLease over a phase given by index: the one
// entry both executors sit behind. A phase of one worker — Parallelism 1,
// one task, a one-node cluster, Phase.Workers 1 — runs its bodies on the
// caller's goroutine: a body's panic passes through as it is, and one that
// ends its goroutine (runtime.Goexit, t.FailNow) ends the caller's, where
// the pool fails the phase with errBodyExited.
func (c *Cluster) RunPhase(ph Phase, slotsPerNode int, lease *Lease, down func(NodeID) bool) PhaseResult {
	if slotsPerNode <= 0 {
		slotsPerNode = 1
	}
	if ph.Tasks == 0 {
		return PhaseResult{}
	}
	sc := c.takeScratch()
	q := c.newSlotQueue(slotsPerNode, lease, down)
	q.freed = slices.Grow(sc.freed[:0], min(ph.Tasks, q.total))
	w := c.PhaseWorkers(ph.Tasks)
	if ph.Workers > 0 {
		w = min(w, ph.Workers)
	}
	var res PhaseResult
	if w > 1 {
		res = c.schedulePhaseParallel(ph, w, &q, sc)
	} else {
		res = c.schedulePhaseSerial(ph, &q, sc)
	}
	sc.freed, sc.picker.prefs = q.freed, nil // the closure would pin the phase
	c.scratch.Store(sc)
	return res
}
