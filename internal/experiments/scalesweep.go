package experiments

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"efind/internal/chaos"
	"efind/internal/dfs"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// ScaleSweep is the cluster-scale throughput experiment: it drives the
// wave scheduler and the MapReduce engine at node counts far beyond the
// paper's 12-node testbed (up to 10k nodes / 1M tasks at full scale) and
// reports REAL wall-clock scheduler throughput, unlike every other
// experiment in this package, which reports virtual time. Each node
// count runs three legs:
//
//   - sched: a raw scheduling phase (varied durations, mixed locality
//     preferences) under the serial executor, timed for tasks/sec and
//     allocations/task, then repeated under the parallel executor and
//     compared — any divergence from bit-identical schedules fails the
//     experiment, extending the determinism suite to cluster scale.
//   - engine: a map-only MapReduce job with one record per split, timed
//     end to end (scheduling + task bodies + accounting) for tasks/sec.
//   - chaos: the same job under a node crash plus capped speculation;
//     output must stay identical to the clean run, and the leg is timed
//     so recovery splicing's cost is tracked too.
//
// Virtual makespans (".vms", identical across machines) are gated at
// every node count. Wall-clock throughput and allocation gauges feed
// the CI gate only for the LARGEST node count — those legs run long
// enough to time stably (and each timed leg is best-of-sweepRepeats) —
// while the
// smaller rows' throughputs are recorded under ungated names: a
// 200-task leg finishes in a couple of milliseconds, where run-to-run
// scheduler-noise swamps any 10% budget.
func ScaleSweep(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Scale sweep: scheduler and engine throughput vs cluster size (wall-clock)",
		Columns: []string{"tasks", "sched_ktps", "allocs_task", "engine_tasks", "engine_ktps", "chaos_ktps", "makespan"},
	}
	if len(scale.SweepNodes) == 0 {
		return nil, fmt.Errorf("scale-sweep: no node counts configured")
	}
	maxNodes := 0
	for _, n := range scale.SweepNodes {
		if n > maxNodes {
			maxNodes = n
		}
	}
	for _, nodes := range scale.SweepNodes {
		// Task counts scale with the cluster so every row runs the same
		// number of waves — the 10k-node row carries the full task load.
		simTasks := scale.SweepTasks * nodes / maxNodes
		engTasks := scale.SweepEngineTasks * nodes / maxNodes

		schedTPS, allocsPerTask, makespan, err := sweepSched(nodes, simTasks)
		if err != nil {
			return nil, err
		}
		engineTPS, chaosTPS, err := sweepEngine(nodes, engTasks)
		if err != nil {
			return nil, err
		}

		prefix := fmt.Sprintf("sweep.n%d", nodes)
		gauge(prefix+".makespan.vms", makespan)
		if nodes == maxNodes {
			gauge(prefix+".sched.tps", schedTPS)
			gauge(prefix+".sched.allocs", allocsPerTask)
			gauge(prefix+".engine.tps", engineTPS)
			gauge(prefix+".chaos.tps", chaosTPS)
		} else {
			gauge(prefix+".sched.tasks_per_sec", schedTPS)
			gauge(prefix+".engine.tasks_per_sec", engineTPS)
		}

		t.Add(fmt.Sprintf("%d nodes", nodes),
			float64(simTasks), schedTPS/1000, allocsPerTask,
			float64(engTasks), engineTPS/1000, chaosTPS/1000, makespan)
	}
	t.Note("sched_ktps: serial wave-scheduler throughput (wall clock, thousands of tasks/sec)")
	t.Note("serial and parallel executors produced bit-identical schedules at every size")
	t.Note("chaos leg (node crash + speculation) produced output identical to the clean run")
	return t, nil
}

// sweepCluster builds a scale-sweep cluster: mixed node speeds so
// schedules are sensitive to placement, startup small so waves overlap.
func sweepCluster(nodes, parallelism int) *sim.Cluster {
	cfg := sim.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Parallelism = parallelism
	cfg.TaskStartup = 0.005
	speeds := make([]float64, nodes)
	for i := range speeds {
		speeds[i] = []float64{1, 1, 0.5, 2}[i%4]
	}
	cfg.NodeSpeed = speeds
	return sim.NewCluster(cfg)
}

// sweepTasks builds a task bag whose durations are pure in (task, node)
// with mixed locality preferences, like the sim determinism suite's.
func sweepTasks(n, nodes int) []sim.Task {
	tasks := make([]sim.Task, n)
	for i := range tasks {
		i := i
		var pref []sim.NodeID
		switch i % 3 {
		case 0:
			pref = []sim.NodeID{sim.NodeID(i % nodes), sim.NodeID((i + 1) % nodes)}
		case 1:
			pref = []sim.NodeID{sim.NodeID((i * 7) % nodes)}
		}
		tasks[i] = sim.Task{
			Preferred: pref,
			Run: func(node sim.NodeID, _ float64) float64 {
				return 0.5 + math.Mod(float64(i)*1.37+float64(node)*0.61, 2.0)
			},
		}
	}
	return tasks
}

// sweepRepeats is the best-of count for every timed leg: wall-clock
// throughput keeps the fastest run, squeezing out scheduler noise, GC
// pauses, and cold caches so the CI gate compares steady-state numbers.
const sweepRepeats = 5

// sweepSched times the raw scheduler at the given size and checks
// serial/parallel bit-identity. Returns wall-clock tasks/sec (best of
// sweepRepeats) and heap allocations/task for the serial run, and the
// (virtual) makespan.
func sweepSched(nodes, nTasks int) (tps, allocsPerTask, makespan float64, err error) {
	tasks := sweepTasks(nTasks, nodes)

	var serial sim.PhaseResult
	best := math.Inf(1)
	var before, after runtime.MemStats
	for r := 0; r < sweepRepeats; r++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		serial = sweepCluster(nodes, 1).SchedulePhase(tasks, 2)
		elapsed := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		if elapsed < best {
			best = elapsed
		}
	}

	par := sweepCluster(nodes, 8).SchedulePhase(tasks, 2)
	if !reflect.DeepEqual(serial, par) {
		return 0, 0, 0, fmt.Errorf("scale-sweep: %d nodes / %d tasks: parallel schedule diverged from serial (makespan %g vs %g, waves %d vs %d)",
			nodes, nTasks, par.Makespan, serial.Makespan, par.Waves, serial.Waves)
	}
	tps = float64(nTasks) / best
	allocsPerTask = float64(after.Mallocs-before.Mallocs) / float64(nTasks)
	return tps, allocsPerTask, serial.Makespan, nil
}

// sweepEngine times a map-only engine job with one record per split at
// the given size — clean, then under a node crash plus capped
// speculation — and verifies chaos never changes the output.
func sweepEngine(nodes, nTasks int) (engineTPS, chaosTPS float64, err error) {
	runOnce := func(name string, plan *chaos.Plan) (*mapreduce.MapPhaseResult, float64, error) {
		cluster := sweepCluster(nodes, 1)
		fs := dfs.New(cluster)
		fs.ChunkTarget = 1 // one record per chunk = one task per record
		records := make([]dfs.Record, nTasks)
		for i := range records {
			records[i] = dfs.Record{Key: fmt.Sprintf("k%07d", i), Value: "v"}
		}
		input, err := fs.Create("sweep-in", records)
		if err != nil {
			return nil, 0, err
		}
		e := mapreduce.New(cluster, fs)
		job := &mapreduce.Job{Name: name, Input: input, Chaos: plan}
		start := time.Now()
		res, err := e.NewRun().RunMapPhase(job, nil)
		if err != nil {
			return nil, 0, err
		}
		return res, float64(nTasks) / time.Since(start).Seconds(), nil
	}
	// Each repeat runs on a fresh engine so the virtual clock restarts at
	// zero and chaos windows land identically; best-of keeps the fastest.
	runLeg := func(name string, plan *chaos.Plan) (*mapreduce.MapPhaseResult, float64, error) {
		var res *mapreduce.MapPhaseResult
		best := 0.0
		for r := 0; r < sweepRepeats; r++ {
			got, tps, err := runOnce(name, plan)
			if err != nil {
				return nil, 0, err
			}
			res = got
			if tps > best {
				best = tps
			}
		}
		return res, best, nil
	}

	clean, cleanTPS, err := runLeg("sweep-clean", nil)
	if err != nil {
		return 0, 0, fmt.Errorf("scale-sweep: clean engine leg: %w", err)
	}

	// Crash the node holding the first assignment mid-phase, and race
	// capped speculative backups against seeded stragglers.
	victim := clean.Phase.Assignments[0].Node
	at := 0.5 * clean.Phase.Makespan
	plan := chaos.MustNew(chaos.Config{
		Seed:            1,
		Crashes:         []chaos.Crash{{Node: victim, At: at, Recover: at + 1e6}},
		Spec:            chaos.Speculation{Enabled: true, MaxPerPhase: 64},
		StragglerRate:   0.01,
		StragglerFactor: 8,
	}, nodes)
	chaotic, chaosLegTPS, err := runLeg("sweep-chaos", plan)
	if err != nil {
		return 0, 0, fmt.Errorf("scale-sweep: chaos engine leg: %w", err)
	}
	for i := range clean.Outputs {
		c, x := clean.Outputs[i], chaotic.Outputs[i]
		if !reflect.DeepEqual(c.Buckets, x.Buckets) || !reflect.DeepEqual(c.Reducers, x.Reducers) {
			return 0, 0, fmt.Errorf("scale-sweep: chaos changed map output of task %d", i)
		}
	}
	return cleanTPS, chaosLegTPS, nil
}
