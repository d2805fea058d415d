package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// ran is what one task body observed.
type ran struct {
	task  int
	start float64
}

// raise lifts a high-water mark to v.
func raise(mark *atomic.Int32, v int32) {
	for h := mark.Load(); v > h && !mark.CompareAndSwap(h, v); h = mark.Load() {
	}
}

// execCase is one random phase: cluster shape, task bag, optional lease and
// down nodes. Everything derives from the seed, so a failure reproduces.
type execCase struct {
	cfg   Config
	slots int
	prefs [][]NodeID
	lease *Lease
	down  []bool // nil: none
}

func randomExecCase(seed int64) execCase {
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.Nodes = 1 + rng.Intn(64)
	cfg.TaskStartup = []float64{0.005, 0}[seed%2] // 0: the gate admits one task per round
	cfg.NodeSpeed = make([]float64, cfg.Nodes)
	for i := range cfg.NodeSpeed {
		cfg.NodeSpeed[i] = []float64{1, 1, 0.5, 2}[rng.Intn(4)]
	}
	ec := execCase{cfg: cfg, slots: 1 + rng.Intn(8)}
	nTasks := rng.Intn(2001)
	if seed%5 == 0 {
		nTasks = rng.Intn(4) // the edges: no task, one task, fewer tasks than workers
	}
	ec.prefs = make([][]NodeID, nTasks)
	for i := range ec.prefs {
		for k := rng.Intn(4); k > 0; k-- {
			// Two past either end: out of range; repeats happen by themselves.
			ec.prefs[i] = append(ec.prefs[i], NodeID(rng.Intn(cfg.Nodes+4)-2))
		}
	}
	up := 0 // a node that stays up and keeps a slot
	if rng.Intn(2) == 0 {
		ec.down = make([]bool, cfg.Nodes)
		up = rng.Intn(cfg.Nodes)
		for n := range ec.down {
			ec.down[n] = n != up && rng.Intn(4) == 0
		}
	}
	if rng.Intn(2) == 0 {
		slots := make([][]int32, up+1+rng.Intn(cfg.Nodes-up)) // may stop short of the cluster
		for n := range slots {
			for s := 0; s < ec.slots; s++ {
				if (n == up && s == 0) || rng.Intn(3) > 0 {
					slots[n] = append(slots[n], int32(s))
				}
			}
		}
		ec.lease = NewLease(slots)
	}
	return ec
}

// run schedules the case at the given parallelism and returns the result,
// what each node's bodies observed in order, how often each task ran, and
// the most bodies that ran at once. A body that finds another one running
// on its node fails the test.
func (ec execCase) run(t *testing.T, parallelism int) (res PhaseResult, perNode [][]ran, runs []int32, peak int32) {
	t.Helper()
	cfg := ec.cfg
	cfg.Parallelism = parallelism
	perNode = make([][]ran, cfg.Nodes)
	runs = make([]int32, len(ec.prefs))
	busy := make([]atomic.Int32, cfg.Nodes)
	var running, high atomic.Int32
	tasks := make([]Task, len(ec.prefs))
	for i := range tasks {
		i := i
		tasks[i] = Task{Preferred: ec.prefs[i], Run: func(node NodeID, start float64) float64 {
			raise(&high, running.Add(1))
			if busy[node].Add(1) != 1 {
				t.Errorf("parallelism %d: task %d found another body running on node %d", parallelism, i, node)
			}
			// The node's owner alone appends here; -race checks that it is alone.
			perNode[node] = append(perNode[node], ran{i, start})
			atomic.AddInt32(&runs[i], 1)
			if i%3 == 0 {
				runtime.Gosched() // let the other workers interleave
			}
			busy[node].Add(-1)
			running.Add(-1)
			// Pure in (task, node), zero now and then.
			return float64((i*7+int(node)*3)%5) * 0.0015
		}}
	}
	res = NewCluster(cfg).SchedulePhaseLease(tasks, ec.slots, ec.lease, ec.downFn())
	return res, perNode, runs, high.Load()
}

// downFn is the case's down nodes as the scheduler takes them.
func (ec execCase) downFn() func(NodeID) bool {
	if ec.down == nil {
		return nil
	}
	return func(n NodeID) bool { return ec.down[n] }
}

// TestExecutorProperties holds the pool executor to the serial one over
// random phases: the same PhaseResult, the same (task, start) sequence seen
// by each node's bodies, every task run exactly once, never more bodies at
// once than workers and never two on one node. Run under -race as well.
func TestExecutorProperties(t *testing.T) {
	cases := int64(60)
	if testing.Short() {
		cases = 20
	}
	for seed := int64(0); seed < cases; seed++ {
		ec := randomExecCase(seed)
		name := fmt.Sprintf("seed %d (%d nodes × %d slots, %d tasks, startup %g, lease %v, down %v)",
			seed, ec.cfg.Nodes, ec.slots, len(ec.prefs), ec.cfg.TaskStartup, ec.lease != nil, ec.down != nil)
		serial, serialSeen, _, _ := ec.run(t, 1)
		if len(serial.Assignments) != len(ec.prefs) {
			t.Fatalf("%s: serial executor made %d assignments", name, len(serial.Assignments))
		}
		for _, workers := range []int{2, 4, 16} {
			par, seen, runs, peak := ec.run(t, workers)
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("%s, %d workers: schedule diverged\nserial:   %+v\nparallel: %+v", name, workers, serial, par)
			}
			if !reflect.DeepEqual(serialSeen, seen) {
				t.Fatalf("%s, %d workers: per-node body order diverged\nserial:   %v\nparallel: %v", name, workers, serialSeen, seen)
			}
			for i, n := range runs {
				if n != 1 {
					t.Fatalf("%s, %d workers: task %d ran %d times", name, workers, i, n)
				}
			}
			if int(peak) > workers {
				t.Fatalf("%s: %d bodies ran at once on %d workers", name, peak, workers)
			}
		}
	}
}

// TestExecutorWorkerIndex holds both executors to what Phase.Run promises of
// its worker index, over random phases: every body is told an index below
// PhaseWorkers and below the phase's own cap — 0 under the serial executor,
// a cap of 1 included —, no two bodies ever run at once under one index, and
// a phase run through the []Task adapter, which sets no cap, ends as
// it does through RunPhase, bit for bit — also when a body panics or ends
// its goroutine, and the caller gets that instead of a result.
func TestExecutorWorkerIndex(t *testing.T) {
	cases := int64(45)
	if testing.Short() {
		cases = 15
	}
	boom := errors.New("boom")
	// outcome is how a phase ended: its result, or what its caller recovered.
	type outcome struct {
		res      PhaseResult
		panicked any
	}
	end := func(phase func() PhaseResult) (o outcome) {
		defer func() { o.panicked = recover() }()
		o.res = phase()
		return o
	}
	for seed := int64(0); seed < cases; seed++ {
		ec := randomExecCase(seed)
		n, down := len(ec.prefs), ec.downFn()
		var serial outcome
		for _, parallelism := range []int{1, 2, 4, 16} {
			cfg := ec.cfg
			cfg.Parallelism = parallelism
			workers := NewCluster(cfg).PhaseWorkers(n)
			if workers < 1 || workers > parallelism || (n > 0 && workers > n) {
				t.Fatalf("seed %d: PhaseWorkers(%d) = %d at parallelism %d", seed, n, workers, parallelism)
			}
			// Three phases in four cap their workers (Phase.Workers) at 1 to 3.
			limit := (int(seed) + parallelism) % 4
			if limit > 0 {
				workers = min(workers, limit)
			}
			// Two seeds in three, one body does not return.
			failAt, fail, want := -1, func() {}, any(nil)
			if n > 0 && seed%3 != 0 {
				failAt, fail, want = int(seed)%n, func() { panic(boom) }, boom
				if seed%3 == 2 && workers > 1 { // on the caller's goroutine Goexit would end the test
					fail, want = runtime.Goexit, errBodyExited
				}
			}
			duration := func(i int, node NodeID) float64 {
				if i == failAt {
					fail()
				}
				return float64((i*7+int(node)*3)%5) * 0.0015
			}
			inUse := make([]atomic.Bool, workers)
			byIndex := end(func() PhaseResult {
				return NewCluster(cfg).RunPhase(Phase{
					Tasks:     n,
					Workers:   limit,
					Preferred: func(i int) []NodeID { return ec.prefs[i] },
					Run: func(worker, i int, node NodeID, _ float64) float64 {
						if worker < 0 || worker >= workers {
							t.Errorf("seed %d, parallelism %d: task %d was told worker %d of %d", seed, parallelism, i, worker, workers)
							return duration(i, node)
						}
						if !inUse[worker].CompareAndSwap(false, true) {
							t.Errorf("seed %d, parallelism %d: task %d found another body running as worker %d", seed, parallelism, i, worker)
						}
						if i%3 == 0 {
							runtime.Gosched() // let the other workers interleave
						}
						inUse[worker].Store(false)
						return duration(i, node)
					},
				}, ec.slots, ec.lease, down)
			})
			tasks := make([]Task, n)
			for i := range tasks {
				i := i
				tasks[i] = Task{Preferred: ec.prefs[i], Run: func(node NodeID, _ float64) float64 { return duration(i, node) }}
			}
			bySlice := end(func() PhaseResult { return NewCluster(cfg).SchedulePhaseLease(tasks, ec.slots, ec.lease, down) })
			if byIndex.panicked != want || !reflect.DeepEqual(byIndex, bySlice) {
				t.Fatalf("seed %d, parallelism %d, failing body %d (%v):\nRunPhase:           %+v\nSchedulePhaseLease: %+v", seed, parallelism, failAt, want, byIndex, bySlice)
			}
			if parallelism == 1 {
				serial = byIndex
			} else if want != errBodyExited && !reflect.DeepEqual(serial, byIndex) {
				t.Fatalf("seed %d: %d workers ended the phase %+v, the serial executor %+v", seed, workers, byIndex, serial)
			}
		}
	}
}

// TestPanicReachesCaller: a panicking task body fails the phase the same
// way under both executors — the value arrives at the caller of
// SchedulePhase, no other task runs twice, and the pool is gone. With a
// goroutine per node the parallel leg was an unrecovered panic on a node
// goroutine: the process died whatever the caller did. A body that ends its
// goroutine instead (runtime.Goexit, which is what t.FailNow does) would
// leave its node owned and the coordinator waiting for ever; the pool fails
// the phase by name.
func TestPanicReachesCaller(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		parallelism, nodes int
		fail               func()
		want               any
	}{
		{1, 6, func() { panic(boom) }, boom},
		{4, 6, func() { panic(boom) }, boom},
		{4, 6, runtime.Goexit, errBodyExited},
		{4, 1, func() { panic(boom) }, boom}, // one node, one worker: the serial executor
	} {
		cfg := DefaultConfig()
		cfg.Nodes = tc.nodes
		cfg.Parallelism = tc.parallelism
		const n = 60
		runs := make([]int32, n)
		tasks := make([]Task, n)
		for i := range tasks {
			i := i
			tasks[i] = Task{Run: func(NodeID, float64) float64 {
				atomic.AddInt32(&runs[i], 1)
				if i == 7 {
					tc.fail()
				}
				return 1
			}}
		}
		baseline := runtime.NumGoroutine()
		var got any
		func() {
			defer func() { got = recover() }()
			NewCluster(cfg).SchedulePhase(tasks, 2)
		}()
		if got != tc.want {
			t.Fatalf("parallelism %d: the caller recovered %v, want %v", tc.parallelism, got, tc.want)
		}
		for i, r := range runs {
			if r > 1 || (i == 7 && r != 1) {
				t.Fatalf("parallelism %d: task %d ran %d times", tc.parallelism, i, r)
			}
		}
		waitForGoroutines(t, baseline)
	}

	// One worker runs the bodies on the caller's goroutine: a Goexit in one
	// ends the caller as it would from a plain call — no result, no panic.
	cfg := DefaultConfig()
	cfg.Nodes, cfg.Parallelism = 1, 4
	returned, ended := false, make(chan struct{})
	go func() {
		defer close(ended)
		defer func() { returned = returned || recover() != nil }()
		NewCluster(cfg).SchedulePhase([]Task{
			{Run: func(NodeID, float64) float64 { return 1 }},
			{Run: func(NodeID, float64) float64 { runtime.Goexit(); return 1 }},
		}, 2)
		returned = true
	}()
	<-ended
	if returned {
		t.Fatal("one node: SchedulePhase came back, or panicked, from a body that ended its goroutine")
	}
}

// waitForGoroutines fails the test unless the goroutine count is back at
// baseline within a second.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after the phase returned, %d before it", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecutorFootprintAllocs pins what the pool costs beside the tasks: a
// fixed number of arrays sized once per phase, so a 10,000-node phase makes
// as many allocations as a 100-node one, and a fixed number of goroutines —
// the workers, not one per node that got work — gone when the phase returns.
func TestExecutorFootprintAllocs(t *testing.T) {
	const workers, slots = 4, 2 // 2 slots per node: every node gets work
	var peak atomic.Int32
	build := func(nodes int) (*Cluster, []Task) {
		tasks := buildVariedTasks(2*nodes, nodes)
		for i := range tasks {
			inner := tasks[i].Run
			tasks[i].Run = func(node NodeID, start float64) float64 {
				raise(&peak, int32(runtime.NumGoroutine()))
				return inner(node, start)
			}
		}
		return scaleCluster(nodes, workers), tasks
	}
	measure := func(nodes int) float64 {
		c, tasks := build(nodes)
		least := math.Inf(1) // of three: the runtime's own caches (sudogs, dead goroutines) refill now and then
		for i := 0; i < 3; i++ {
			least = min(least, testing.AllocsPerRun(3, func() {
				if res := c.SchedulePhase(tasks, slots); len(res.Assignments) != len(tasks) {
					t.Fatalf("%d assignments for %d tasks", len(res.Assignments), len(tasks))
				}
			}))
		}
		return least
	}
	baseline := runtime.NumGoroutine()
	small, large := measure(100), measure(10_000)
	t.Logf("pool executor: %.0f allocations for 100 nodes × 200 tasks, %.0f for 10,000 × 20,000; at most %d goroutines seen from a body, %d outside the phase",
		small, large, peak.Load(), baseline)
	if small != large || large > 24 {
		t.Errorf("a phase allocates %.0f times on 100 nodes and %.0f on 10,000; want the same, at most 24", small, large)
	}
	if got, limit := int(peak.Load()), baseline+workers+1; got > limit {
		t.Errorf("a body saw %d goroutines, want at most %d (%d outside the phase + %d workers + 1)", got, limit, baseline, workers)
	}
	waitForGoroutines(t, baseline)

	// Nothing is sized by slots: 256 tasks on 10,000 nodes allocate the
	// same bytes at 1 and at 8 slots per node — exactly under the serial
	// executor, and within the runtime's goroutine bookkeeping under the
	// pool (a slot-sized array would be 10,000 entries or more).
	tasks := buildVariedTasks(256, 10_000)
	for _, tc := range []struct {
		parallelism int
		slack       uint64
	}{{1, 0}, {workers, 4 << 10}} {
		c := scaleCluster(10_000, tc.parallelism)
		bytes := func(slots int) uint64 {
			least := uint64(math.MaxUint64)
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				c.SchedulePhase(tasks, slots)
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			return least
		}
		if one, eight := bytes(1), bytes(8); max(one, eight)-min(one, eight) > tc.slack {
			t.Errorf("parallelism %d: 256 tasks on 10,000 nodes allocate %d B at 1 slot per node and %d B at 8; want the same, within %d B",
				tc.parallelism, one, eight, tc.slack)
		}
	}
}
