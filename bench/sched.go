package main

import (
	"fmt"
	"reflect"

	"efind/internal/chaos"
	"efind/internal/dfs"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// schedSizes shapes the scheduler workload.
type schedSizes struct {
	nodes, tasks, numReduce, ops int
}

func schedSizesFor(tiny bool) schedSizes {
	if tiny {
		return schedSizes{nodes: 200, tasks: 600, numReduce: 16, ops: 3}
	}
	return schedSizes{nodes: 10000, tasks: 20000, numReduce: 256, ops: 36}
}

// schedVariants is the op cycle: a clean map-only phase, the same phase
// under a node crash plus speculation, and a map+reduce job.
var schedVariants = []string{"maponly", "chaos", "reduce"}

// schedWorld is a 10,000-node cluster running one-record splits: the
// record path does almost nothing, so `sim` scheduling, task accounting
// and chaos splicing are nearly all the work — the mirror image of the
// job workloads.
type schedWorld struct {
	sz      schedSizes
	cluster *sim.Cluster
	fs      *dfs.FS
	engine  *mapreduce.Engine
	input   *dfs.File
	ref     digest // identity map and reduce: output = input
	clean   *mapreduce.MapPhaseResult
	plan    *chaos.Plan
}

// schedCluster mixes node speeds so schedules depend on placement, as
// the scale-sweep experiment does.
func schedCluster(nodes int) *sim.Cluster {
	cfg := sim.DefaultConfig()
	cfg.Nodes = nodes
	cfg.TaskStartup = 0.005
	cfg.NodeSpeed = make([]float64, nodes)
	for i := range cfg.NodeSpeed {
		cfg.NodeSpeed[i] = []float64{1, 1, 0.5, 2}[i%4]
	}
	return sim.NewCluster(cfg)
}

func setupSched(e *env, sz schedSizes) (*schedWorld, error) {
	w := &schedWorld{sz: sz, cluster: schedCluster(sz.nodes)}
	w.fs = dfs.New(w.cluster)
	w.fs.ChunkTarget = 1 // one record per chunk = one map task per record
	records := make([]dfs.Record, sz.tasks)
	for i := range records {
		// The seed perturbs keys (and so reducer routing), not the shape.
		records[i] = dfs.Record{Key: fmt.Sprintf("k%07d-%d", i, e.seed), Value: "v"}
	}
	input, err := w.fs.Create("sched-in", records)
	if err != nil {
		return nil, err
	}
	w.input = input
	w.ref = digestRecords(records)
	w.engine = mapreduce.New(w.cluster, w.fs)

	// The clean phase is the reference for "chaos never changes the
	// answer" and sizes the fault schedule: crash the node holding the
	// first assignment halfway through, and race capped speculative
	// backups against seeded stragglers.
	clean, err := w.engine.NewRun().RunMapPhase(&mapreduce.Job{Name: "sched-clean", Input: input}, nil)
	if err != nil {
		return nil, err
	}
	w.clean = clean
	at := 0.5 * clean.Phase.Makespan
	w.plan, err = chaos.New(chaos.Config{
		Seed:            e.seed,
		Crashes:         []chaos.Crash{{Node: clean.Phase.Assignments[0].Node, At: at, Recover: at + 1e6}},
		Spec:            chaos.Speculation{Enabled: true, MaxPerPhase: 64},
		StragglerRate:   0.01,
		StragglerFactor: 8,
	}, sz.nodes)
	return w, err
}

func (w *schedWorld) label(i int) string { return schedVariants[i%len(schedVariants)] }

// mapOutputDigest fingerprints what a map phase produced.
func mapOutputDigest(mp *mapreduce.MapPhaseResult) digest {
	var d digest
	for _, o := range mp.Outputs {
		for _, b := range o.Buckets {
			for _, p := range b {
				d.add(p.Key, p.Value)
			}
		}
	}
	return d
}

func (w *schedWorld) op(i int, c *opCtx) opResult {
	variant := w.label(i)
	out := opResult{records: w.sz.tasks}
	if variant == "reduce" {
		// NumReduce is pinned: with the default reducer count every map
		// task on a 10,000-node cluster allocates a reducer-sized bucket
		// slice (README.md, findings).
		job := &mapreduce.Job{Name: "sched-reduce", Input: w.input, Reduce: mapreduce.IdentityReduce, NumReduce: w.sz.numReduce}
		c.m.start()
		res, err := w.engine.Run(job)
		out.wall = c.m.stop()
		if err != nil {
			out.err = err
			return out
		}
		out.vtime = res.VTime
		out.digest, out.err = digestFile(res.Output)
		if out.err == nil && out.digest != w.ref {
			out.err = fmt.Errorf("reduce output digest %v, reference %v", out.digest, w.ref)
		}
		if err := w.fs.Remove(res.Output.Name); err != nil && out.err == nil {
			out.err = err
		}
		return out
	}

	job := &mapreduce.Job{Name: "sched-" + variant, Input: w.input}
	if variant == "chaos" {
		job.Chaos = w.plan
	}
	c.m.start()
	mp, err := w.engine.NewRun().RunMapPhase(job, nil)
	out.wall = c.m.stop()
	if err != nil {
		out.err = err
		return out
	}
	out.vtime = mp.VTime
	out.digest = mapOutputDigest(mp)
	out.counts = map[string]float64{}
	if variant == "chaos" {
		out.counts["chaos_ops"] = 1
		out.counts["task_retries"] = float64(mp.Counters[mapreduce.CounterTaskRetries] +
			mp.Counters[chaos.CtrTasksLost] + mp.Counters[chaos.CtrSpecLaunched])
		for t := range w.clean.Outputs {
			if !reflect.DeepEqual(w.clean.Outputs[t].Buckets, mp.Outputs[t].Buckets) {
				out.err = fmt.Errorf("chaos changed the map output of task %d", t)
				return out
			}
		}
		if mp.Counters[chaos.CtrNodeCrashes] == 0 {
			out.err = fmt.Errorf("no crash event fired: the chaos variant is vacuous")
		}
	}
	if out.err == nil && out.digest != w.ref {
		out.err = fmt.Errorf("map output digest %v, reference %v", out.digest, w.ref)
	}
	return out
}

func (w *schedWorld) close() error { return w.engine.Close() }

var schedScale = &workloadSpec{
	name:   "sched_scale",
	why:    "10,000 nodes, one-record splits: scheduling, task accounting and chaos splicing do the work and the record path almost none",
	cycle:  len(schedVariants),
	ops:    func(tiny bool) int { return schedSizesFor(tiny).ops },
	setup:  func(e *env) (world, error) { return setupSched(e, schedSizesFor(e.tiny)) },
	layers: schedLayers,
}
