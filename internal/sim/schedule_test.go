package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestSlotQueueMatchesHeap holds the slot queue to the single heap it
// replaced: every slot of the phase — the lease's, or every node's, less
// the down nodes' — pushed free at 0 into one slotHeap. Over random
// clusters, leases and down sets, and random interleavings of pops and
// pushes of popped slots at a handful of free times (0 included, so ties
// with the unused slots abound), both must pop the same sequence and agree
// on the least free time and the slot count.
func TestSlotQueueMatchesHeap(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Nodes = 1 + rng.Intn(64)
		c := NewCluster(cfg)
		perNode := 1 + rng.Intn(8)
		var lease *Lease
		if rng.Intn(2) == 0 {
			slots := make([][]int32, rng.Intn(cfg.Nodes+1)) // may stop short of the cluster
			for n := range slots {
				if rng.Intn(4) == 0 {
					continue // no slots on this node
				}
				for s := 0; s < perNode; s++ {
					if rng.Intn(3) > 0 {
						slots[n] = append(slots[n], int32(s))
					}
				}
			}
			lease = NewLease(slots)
		}
		var down func(NodeID) bool
		if rng.Intn(2) == 0 {
			isDown := make([]bool, cfg.Nodes)
			for n := range isDown {
				isDown[n] = rng.Intn(3) == 0
			}
			down = func(n NodeID) bool { return isDown[n] }
		}

		var ref slotHeap
		for n := 0; n < cfg.Nodes; n++ {
			if down != nil && down(NodeID(n)) {
				continue
			}
			if lease != nil {
				for _, idx := range lease.NodeSlots(NodeID(n)) {
					ref.push(slot{node: int32(n), idx: idx})
				}
				continue
			}
			for s := 0; s < perNode; s++ {
				ref.push(slot{node: int32(n), idx: int32(s)})
			}
		}
		if len(ref) == 0 {
			continue // TestZeroSlotPanicNamesCause
		}
		tasks := 1 + rng.Intn(2*len(ref))
		q := c.newSlotQueue(tasks, perNode, lease, down)
		name := fmt.Sprintf("seed %d (%d nodes × %d slots, lease %v, down %v)", seed, cfg.Nodes, perNode, lease != nil, down != nil)
		if q.total != len(ref) {
			t.Fatalf("%s: queue counts %d slots, the heap holds %d", name, q.total, len(ref))
		}
		var out []slot // popped, not pushed back
		for step := 0; step < 4*tasks; step++ {
			want := math.Inf(1)
			if len(ref) > 0 {
				want = ref[0].free
			}
			if got := q.min(); got != want {
				t.Fatalf("%s, step %d: queue's least free time %g, heap's %g", name, step, got, want)
			}
			if len(ref) > 0 && (len(out) == 0 || rng.Intn(2) == 0) {
				want, got := ref.pop(), q.pop()
				if got != want {
					t.Fatalf("%s, step %d: queue popped %+v, heap %+v", name, step, got, want)
				}
				out = append(out, got)
				continue
			}
			k := rng.Intn(len(out))
			s := out[k]
			out[k] = out[len(out)-1]
			out = out[:len(out)-1]
			s.free = float64(rng.Intn(4)) * 0.5 // 0, 0.5, 1, 1.5: heavy ties
			ref.push(s)
			q.freed.push(s)
		}
	}
}

// TestFinishMatchesSort holds finish to sorting by (Start, Task): random
// phases in dispatch order — starts never decreasing, many equal, one run
// covering every task now and then — come out as slices.SortFunc orders
// them, with LocalTasks and Makespan summed, whatever the scratch holds.
// A start that decreases panics by name.
func TestFinishMatchesSort(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		if seed%10 == 0 {
			n = rng.Intn(3)
		}
		as := make([]Assignment, n)
		start, oneRun := 0.0, seed%4 == 0
		for j, task := range rng.Perm(n) {
			if !oneRun && rng.Intn(4) == 0 {
				start += float64(1+rng.Intn(3)) * 0.25
			}
			as[j] = Assignment{Start: start, Duration: rng.Float64(), Task: task, Node: NodeID(rng.Intn(64)), Slot: int32(rng.Intn(8)), Local: rng.Intn(2) == 0}
		}
		want := PhaseResult{Assignments: slices.Clone(as)}
		slices.SortFunc(want.Assignments, func(a, b Assignment) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Task, b.Task))
		})
		for _, a := range as {
			if a.Local {
				want.LocalTasks++
			}
			want.Makespan = max(want.Makespan, a.Start+a.Duration)
		}
		got := PhaseResult{Assignments: as}
		runs := make([]int32, n)
		for j := range runs {
			runs[j] = int32(rng.Intn(1 << 20)) // any contents
		}
		got.finish(runs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d assignments): finish gave\n%+v\nsort gave\n%+v", seed, n, got, want)
		}
	}

	as := []Assignment{{Start: 0, Task: 1}, {Start: 2, Task: 0}, {Start: 1, Task: 2}}
	defer func() {
		if got := recover(); got != errStartOrder {
			t.Fatalf("a start that decreases: finish panicked with %v, want %q", got, errStartOrder)
		}
	}()
	(&PhaseResult{Assignments: as}).finish(make([]int32, len(as)))
}

// TestZeroSlotPanicNamesCause: a phase with no slot to run on panics
// through RunPhase, naming why — an empty lease, or every node with a slot
// down, leased or not.
func TestZeroSlotPanicNamesCause(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	allDown := func(NodeID) bool { return true }
	ph := Phase{Tasks: 2, Preferred: func(int) []NodeID { return nil }, Run: func(_, _ int, _ NodeID, _ float64) float64 { return 1 }}
	for _, tc := range []struct {
		name  string
		lease *Lease
		down  func(NodeID) bool
		want  string
	}{
		{"every node down", nil, allDown, "every node with a slot down"},
		{"empty lease", NewLease([][]int32{nil, {}}), nil, "empty lease"},
		{"empty lease, nodes down", NewLease(nil), allDown, "empty lease"},
		{"leased nodes down", NewLease([][]int32{{0, 1}}), func(n NodeID) bool { return n == 0 }, "every node with a slot down"},
	} {
		got := func() (v any) {
			defer func() { v = recover() }()
			NewCluster(cfg).RunPhase(ph, 2, tc.lease, tc.down)
			return nil
		}()
		if want := "sim: no slots available to schedule on (" + tc.want + ")"; got != want {
			t.Errorf("%s: RunPhase panicked with %v, want %q", tc.name, got, want)
		}
	}
}
