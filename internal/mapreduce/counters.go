package mapreduce

import (
	"slices"
	"sync"

	"efind/internal/chaos"
	"efind/internal/obs"
)

// Slot is a counter's place in its engine's CounterTable, dense from 0. Tasks
// count by slot; results, traces and profiles carry names.
type Slot int32

// The engine's own counters, at the same slots in every table.
const (
	slotInputRecords Slot = iota
	slotInputBytes
	slotOutputRecords
	slotOutputBytes
	slotCombineIn
	slotCombineOut
	slotRetries
	slotTasksLost
	slotSpecLaunched
	slotSpecWon
	slotSpecLost
	numBuiltins
)

// CounterTable gives counter names dense slots, append-only: the one place a
// counter name is looked up. An engine owns one, built-ins first; the EFind
// runtime resolves an operator's names when it compiles a plan, and a name
// first seen in user code (TaskContext.Inc) takes the next slot then.
type CounterTable struct {
	mu    sync.Mutex
	slots map[string]Slot
	names []string
}

func newCounterTable() *CounterTable {
	t := &CounterTable{slots: make(map[string]Slot)}
	for _, name := range [numBuiltins]string{
		CounterInputRecords, CounterInputBytes, CounterOutputRecords, CounterOutputBytes,
		CounterCombineInRecords, CounterCombineOutRecords, CounterTaskRetries,
		chaos.CtrTasksLost, chaos.CtrSpecLaunched, chaos.CtrSpecWon, chaos.CtrSpecLost,
	} {
		t.Slot(name)
	}
	return t
}

// standalone is the one table of contexts built outside an engine: one each
// would cost a context more allocations than its own.
var standalone = newCounterTable()

// Slot returns name's slot, giving a name the table has not seen the next.
func (t *CounterTable) Slot(name string) Slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.slots[name]
	if !ok {
		s = Slot(len(t.names))
		t.slots[name], t.names = s, append(t.names, name)
	}
	return s
}

// Names returns the names by slot as of now. The table only appends, so the
// slice stays valid as it grows.
func (t *CounterTable) Names() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.names[:len(t.names):len(t.names)]
}

// TaskCounter is one counter of a finished task.
type TaskCounter struct {
	Slot  Slot
	Value int64
}

// CounterSet is a finished task's counters: those it added to, newest bound
// first, then what the engine appended (task.retries, the chaos counters).
type CounterSet []TaskCounter

// Get returns the set's value at slot, 0 when the set has none there.
func (s CounterSet) Get(slot Slot) int64 {
	for _, c := range s {
		if c.Slot == slot {
			return c.Value
		}
	}
	return 0
}

// Add adds delta at slot, appending the counter when the set lacks it.
func (s *CounterSet) Add(slot Slot, delta int64) {
	for i := range *s {
		if (*s)[i].Slot == slot {
			(*s)[i].Value += delta
			return
		}
	}
	*s = append(*s, TaskCounter{slot, delta})
}

// slotState is one slot of a task's counter row.
type slotState struct {
	v            int64
	prev         Slot // 1 + the slot bound before this one, 0 for none
	bound, added bool
}

// taskCounters is a task's counters, kept on its worker's frame: a row by
// slot of its engine's table, its bound slots listed newest first.
type taskCounters struct {
	table *CounterTable
	row   []slotState
	last  Slot // 1 + the slot bound last, 0 for none
	bound int  // how many are bound
}

// Cell is a counter of one task, bound by slot (TaskContext.Cell) when a
// stage opens and then added to with no string or map work. A counter is
// exported to TaskStats.Counters iff Add was called on its cell, even with
// 0; binding a cell that is never added to leaves no trace.
type Cell struct {
	r *taskCounters
	s Slot
}

// Add adds delta to the counter.
func (c Cell) Add(delta int64) {
	e := &c.r.row[c.s]
	e.v += delta
	e.added = true
}

// Cell binds slot s on the task — the task's order of counters is the order
// of first binding — and returns its cell, valid for the life of the task.
func (c *TaskContext) Cell(s Slot) Cell {
	r := c.ctrs
	if int(s) >= len(r.row) {
		n := max(int(s)+1, len(r.table.Names()))
		r.row = slices.Grow(r.row, n-len(r.row))[:n]
	}
	if e := &r.row[s]; !e.bound {
		e.bound, e.prev, r.last, r.bound = true, r.last, s+1, r.bound+1
	}
	return Cell{r, s}
}

// Inc adds delta to the named counter (the paper's globally visible
// MapReduce counters, §4.2), looking the name up in the engine's table.
func (c *TaskContext) Inc(name string, delta int64) { c.Cell(c.ctrs.table.Slot(name)).Add(delta) }

// Counter returns the current task-local value of the named counter.
func (c *TaskContext) Counter(name string) int64 {
	if s := c.ctrs.table.Slot(name); int(s) < len(c.ctrs.row) {
		return c.ctrs.row[s].v
	}
	return 0
}

// CounterTable returns the table the task's counters are slots of.
func (c *TaskContext) CounterTable() *CounterTable { return c.ctrs.table }

// take appends the counters the task added to set, newest bound first, and
// clears the row for the next task.
func (r *taskCounters) take(set CounterSet) CounterSet {
	for s := r.last; s != 0; {
		e := r.row[s-1]
		if e.added {
			set = append(set, TaskCounter{s - 1, e.v})
		}
		r.row[s-1], s = slotState{}, e.prev
	}
	r.last, r.bound = 0, 0
	return set
}

// FoldCounters sums the tasks' counters by slot and returns the sums some
// task added to, named as the trace registry takes them: the fold of a
// phase's totals and its trace, and of the tasks a failed phase completed.
func (e *Engine) FoldCounters(stats []TaskStats) []obs.Metric {
	names := e.counters.Names()
	sums := make([]slotState, len(names))
	for i := range stats {
		for _, c := range stats[i].Counters {
			sum := &sums[c.Slot]
			sum.v, sum.added = sum.v+c.Value, true
		}
	}
	out := make([]obs.Metric, 0, len(names))
	for s, sum := range sums {
		if sum.added {
			out = append(out, obs.Metric{Name: names[s], Value: sum.v})
		}
	}
	return out
}
