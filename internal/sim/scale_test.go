package sim

import (
	"reflect"
	"testing"
	"time"
)

// scaleCluster builds a cluster with mixed node speeds at the given size.
func scaleCluster(nodes, parallelism int) *Cluster {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.Parallelism = parallelism
	speeds := make([]float64, nodes)
	for i := range speeds {
		speeds[i] = []float64{1, 1, 0.5, 2}[i%4]
	}
	cfg.NodeSpeed = speeds
	return NewCluster(cfg)
}

// TestScaleSerialParallelBitIdentical extends the determinism suite to
// cluster scale: a 10k-node / 100k-task phase must finish inside a CI
// wall-clock budget — in short mode too; this is exactly the regression
// the scale-up guards — and the parallel executor's schedule must stay
// bit-identical to the serial one.
func TestScaleSerialParallelBitIdentical(t *testing.T) {
	const (
		nodes  = 10_000
		nTasks = 100_000
		slots  = 2
		budget = 60 * time.Second // generous for slow shared CI runners
	)
	start := time.Now()
	serial := scaleCluster(nodes, 1).SchedulePhase(buildVariedTasks(nTasks, nodes), slots)
	par := scaleCluster(nodes, 8).SchedulePhase(buildVariedTasks(nTasks, nodes), slots)
	elapsed := time.Since(start)

	if len(serial.Assignments) != nTasks {
		t.Fatalf("serial scheduled %d assignments, want %d", len(serial.Assignments), nTasks)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("10k-node schedule diverged: serial makespan %g waves %d locals %d vs parallel makespan %g waves %d locals %d",
			serial.Makespan, serial.Waves, serial.LocalTasks, par.Makespan, par.Waves, par.LocalTasks)
	}
	if elapsed > budget {
		t.Fatalf("10k-node/100k-task serial+parallel phases took %v, budget %v", elapsed, budget)
	}
	t.Logf("10k nodes / 100k tasks ×2 executors in %v (%.0f tasks/sec combined)", elapsed, float64(2*nTasks)/elapsed.Seconds())
}

// buildReplicatedTasks is the taskPicker's worst case: every task lists
// the same few nodes as preferred (heavily replicated hot chunks), so a
// task picked via one hot node's queue leaves dead entries in the other
// hot queues. Unless scans consume them, each pick on a hot node re-crawls
// an ever-longer dead prefix, turning the phase quadratic.
func buildReplicatedTasks(n, nodes int) []Task {
	hot := []NodeID{0, 1, 2}
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			Preferred: hot,
			Run:       func(NodeID, float64) float64 { return 1 },
		}
	}
	_ = nodes
	return tasks
}

// TestPickerCompactsDeadEntries pins that scans consume dead entries:
// after a phase where every task preferred the same nodes, the hot queues
// must not retain entries in proportion to the task count.
func TestPickerCompactsDeadEntries(t *testing.T) {
	const n, nodes, maxRetained = 10_000, 100, 128
	p := newTaskPicker(phaseOf(buildReplicatedTasks(n, nodes)), nodes)
	// Drain round-robin across all nodes, like slots freeing cluster-wide;
	// the hot queues go stale as other nodes steal their tasks.
	for left := n; left > 0; {
		for node := 0; node < nodes && left > 0; node++ {
			if ti, _ := p.pick(NodeID(node)); ti >= 0 {
				left--
			}
		}
	}
	for _, node := range []NodeID{0, 1, 2} {
		if retained := len(p.byNode[node]); retained > maxRetained {
			t.Fatalf("node %d queue retains %d entries after drain; scans are not consuming dead entries", node, retained)
		}
	}
}

// BenchmarkPickerReplicatedWorstCase schedules a phase whose every task
// prefers the same three nodes — the dead-entry crawl that consuming
// scans avoid. ns/op here is the whole phase.
func BenchmarkPickerReplicatedWorstCase(b *testing.B) {
	const nTasks, nodes = 50_000, 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := scaleCluster(nodes, 1)
		c.SchedulePhase(buildReplicatedTasks(nTasks, nodes), 2)
	}
}

// BenchmarkSchedulePhaseSerial10k is the headline scheduler-throughput
// benchmark at cluster scale: 10k nodes, 100k varied tasks, serial
// executor. tasks/sec ≈ 100k / (ns_per_op × 1e-9).
func BenchmarkSchedulePhaseSerial10k(b *testing.B) {
	const nTasks, nodes = 100_000, 10_000
	tasks := buildVariedTasks(nTasks, nodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := scaleCluster(nodes, 1)
		c.SchedulePhase(tasks, 2)
	}
}

// BenchmarkSchedulePhaseParallel10k is the same phase under the parallel
// executor, measuring coordination overhead at scale.
func BenchmarkSchedulePhaseParallel10k(b *testing.B) {
	const nTasks, nodes = 100_000, 10_000
	tasks := buildVariedTasks(nTasks, nodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := scaleCluster(nodes, 8)
		c.SchedulePhase(tasks, 2)
	}
}

// BenchmarkRunPhaseOneWave10k is sched_scale's two phase shapes through
// RunPhase on a 10,000-node cluster with mixed speeds: a one-wave map phase
// of 20,000 single-preference tasks on 8 slots per node, and a reduce phase
// of 256 tasks without preferences on 4. Both use a fraction of the
// cluster's slots. The executor follows -cpu, as Parallelism is unset.
func BenchmarkRunPhaseOneWave10k(b *testing.B) {
	const nodes = 10_000
	c := scaleCluster(nodes, 0)
	for _, bc := range []struct {
		name         string
		tasks, slots int
		preferred    bool
	}{
		{"map/20000tasks×8slots", 20_000, 8, true},
		{"reduce/256tasks×4slots", 256, 4, false},
	} {
		prefs := make([][]NodeID, bc.tasks)
		if bc.preferred {
			for i := range prefs {
				prefs[i] = []NodeID{NodeID(i % nodes)}
			}
		}
		ph := Phase{
			Tasks:     bc.tasks,
			Preferred: func(i int) []NodeID { return prefs[i] },
			Run:       func(_, i int, node NodeID, _ float64) float64 { return 0.001 * float64(1+(i+int(node))%3) },
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := c.RunPhase(ph, bc.slots, nil, nil); res.Waves != 1 {
					b.Fatalf("%d waves, want 1", res.Waves)
				}
			}
		})
	}
}

// TestTaskPickerAllocs pins the picker's set-up: the per-node queues are
// windows of one flat array, so building them is the same handful of
// allocations for 1,000 tasks and for 100,000 — and they are the queues
// growing each by append built: every node's preferring tasks in task
// order, out-of-range preferences ignored.
func TestTaskPickerAllocs(t *testing.T) {
	const nodes = 1000
	build := func(n int) []Task {
		tasks := buildVariedTasks(n, nodes)
		tasks[0].Preferred = []NodeID{-1, 7, nodes, 7}
		return tasks
	}
	small, large := build(1000), build(100_000)
	for _, tasks := range [][]Task{small, large} {
		want := make([][]int32, nodes)
		for i, task := range tasks {
			for _, n := range task.Preferred {
				if n >= 0 && int(n) < nodes {
					want[n] = append(want[n], int32(i))
				}
			}
		}
		p := newTaskPicker(phaseOf(tasks), nodes)
		for n := range want {
			if !reflect.DeepEqual(append([]int32(nil), p.byNode[n]...), want[n]) {
				t.Fatalf("%d tasks: node %d queue = %v, want %v", len(tasks), n, p.byNode[n], want[n])
			}
			if cap(p.byNode[n]) != len(want[n]) {
				t.Fatalf("%d tasks: node %d queue has capacity %d for %d entries: it could grow into its neighbour", len(tasks), n, cap(p.byNode[n]), len(want[n]))
			}
		}
	}
	smallPhase, largePhase := phaseOf(small), phaseOf(large)
	atSmall := testing.AllocsPerRun(5, func() { newTaskPicker(smallPhase, nodes) })
	atLarge := testing.AllocsPerRun(5, func() { newTaskPicker(largePhase, nodes) })
	if atSmall != atLarge || atLarge > 6 {
		t.Errorf("newTaskPicker allocates %.0f times for 1,000 tasks and %.0f for 100,000; want the same, at most 6", atSmall, atLarge)
	}
}
