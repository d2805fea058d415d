package core

import (
	"fmt"
	"math"

	"efind/internal/dfs"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// runDynamic executes a job in the adaptive mode of §4: start with the
// baseline plan (no statistics needed), collect statistics during the
// first wave of tasks, and re-optimize the running job at most once
// (Algorithm 1), reusing completed-task results when the plan changes
// (Figure 10).
func (pr *planRun) runDynamic() error {
	rt, conf := pr.rt, pr.conf
	// Warm start (Figure 8): when the catalog already holds statistics
	// for every operator — collected by previous jobs — the adaptive
	// optimizer generates its initial plan from them and runs it
	// directly; re-optimization mid-job is only needed when statistics
	// are missing or stale, and staleness shows up as a fresh collection
	// on the next cold operator.
	ops, _ := conf.Operators()
	warm := len(ops) > 0
	for _, o := range ops {
		if rt.Catalog.Get(o.Name()) == nil {
			warm = false
			break
		}
	}
	mode := ModeBaseline
	if warm {
		rt.traceInstant("adaptive: warm start from catalog statistics")
		mode = ModeOptimized
	}
	plan, err := pr.planFor(mode)
	if err != nil {
		return err
	}
	co, err := pr.compile(plan)
	if err != nil {
		return err
	}
	if warm {
		// Note: no statistics are harvested from a warm run — tasks under
		// shuffle plans measure only fragments of the Table 1 terms, and
		// folding those in would corrupt the catalog's baseline-measured
		// statistics.
		return pr.runJobs(co, 0, conf.Input, nil, nil)
	}
	if len(co.jobs) != 1 {
		return fmt.Errorf("efind: internal: baseline plan compiled to %d jobs", len(co.jobs))
	}
	// The paper changes the plan at most once; a negative MaxPlanChanges
	// is the ablation's adaptive statistics without replanning.
	pr.cold, pr.mayChange = true, conf.MaxPlanChanges >= 0

	// First wave of map tasks under the baseline plan: the statistics
	// collection phase.
	n := len(conf.Input.Chunks)
	wave := rt.Engine.Cluster.MapSlots()
	if wave > n {
		wave = n
	}
	mp1, err := pr.run.RunMapPhase(co.engineJob(conf, 0, conf.Input), seq(0, wave))
	if err != nil {
		return err
	}
	pr.add(mp1.VTime, mp1.Counters)

	// Fold first-wave statistics into the catalog for the operators whose
	// work happens before the reduce phase.
	preReduce := append(append([]*Operator(nil), conf.head...), conf.body...)
	newPlan, improved := pr.reoptimize(plan, preReduce, mp1.Stats, wave < n)
	if improved && pr.mayChange {
		// Figure 10(a): the completed first-wave map tasks are reused
		// as-is, the remaining splits run under the new plan (including any
		// shuffling jobs it introduces), and the reduce phase consumes
		// outputs from both plans. A job changes plan once: a mid-map
		// change rules out a mid-reduce one.
		if co, err = pr.compile(newPlan); err != nil {
			return err
		}
		pr.mayChange = false
		pr.res.JobsRun++ // the superseded baseline job
		pr.res.Replanned = true
		pr.res.ReplanPhase = "map"
		rt.traceInstant(fmt.Sprintf("adaptive: plan changed mid-map to %s", newPlan))
	}
	// Finish the map phase — under the new plan or the current one — and
	// reduce over the first wave's outputs and the rest's.
	return pr.runJobs(co, 0, conf.Input, seq(wave, n), mp1)
}

// reoptimize implements Algorithm 1 for the given operators: fold the
// task statistics into the catalog, refuse when variance is too high,
// otherwise build a new plan and accept it only if it beats the current
// plan by more than the plan-change cost. canChange is false when no work
// remains for the new plan to improve (e.g. all splits already processed).
func (pr *planRun) reoptimize(cur *JobPlan, ops []*Operator, tasks []mapreduce.TaskStats, canChange bool) (*JobPlan, bool) {
	rt, conf := pr.rt, pr.conf
	// Algorithm 1, lines 1–3: statistics must be stable across tasks.
	// Operators whose statistics vary too much keep their current plan;
	// only stable ones are re-optimized (an operator-granular reading of
	// the paper's variance gate — a filter-heavy operator downstream sees
	// few records per task and would otherwise block the whole job).
	opSet := map[string]bool{}
	for _, o := range ops {
		st := collectStats(rt.Catalog, rt.Engine.CounterTable(), o, tasks, rt.Env)
		rt.traceStats(o.Name(), st)
		if st == nil || st.MaxRelStdDev > conf.VarianceThreshold {
			rt.traceInstant(fmt.Sprintf("reoptimize: operator %q skipped (unstable or missing statistics)", o.Name()))
			continue
		}
		opSet[o.Name()] = true
	}
	if len(opSet) == 0 || !canChange {
		rt.traceInstant("reoptimize: no change (no stable operators or no remaining work)")
		return nil, false
	}
	newPlan := &JobPlan{}
	curCost, newCost := 0.0, 0.0
	opts := DefaultPlannerOptions()
	replace := func(plans []OperatorPlan) []OperatorPlan {
		out := make([]OperatorPlan, 0, len(plans))
		for _, p := range plans {
			if opSet[p.Op.Name()] {
				st := rt.Catalog.Get(p.Op.Name())
				np := OptimizeOperator(p.Op, p.Pos, st, rt.Env, opts)
				pr.applyDegrades(&np, st)
				// Both sides are credited with their build decisions' amortized
				// payoff, so the comparison ranks plans the way the optimizer
				// did (the plans' recorded costs stay honest per-run costs).
				curCost += planRank(p, st, rt.Env, opts)
				newCost += planRank(np, st, rt.Env, opts)
				p = np
			}
			out = append(out, p)
			newPlan.Cost += p.Cost
		}
		return out
	}
	newPlan.Head = replace(cur.Head)
	newPlan.Body = replace(cur.Body)
	newPlan.Tail = replace(cur.Tail)

	// Algorithm 1, line 10: the improvement must exceed the modeled
	// overhead of switching plans mid-job.
	changeCost := 2 * rt.Engine.Cluster.Config().TaskStartup
	if curCost-newCost <= changeCost {
		rt.traceInstant(fmt.Sprintf("reoptimize: keep plan (improvement %.4f <= change cost %.4f)", curCost-newCost, changeCost))
		return nil, false
	}
	// The new plan must actually differ.
	if newPlan.String() == cur.String() {
		rt.traceInstant("reoptimize: keep plan (re-optimized plan is identical)")
		return nil, false
	}
	rt.traceInstant(fmt.Sprintf("reoptimize: plan change accepted (modeled cost %.4f -> %.4f)", curCost, newCost))
	if planHasBuild(newPlan) {
		// Observed redundancy became a build trigger: the re-optimized
		// plan starts (or continues) piggyback index creation mid-job.
		rt.traceInstant("adaptive: piggyback index build started mid-job")
	}
	return newPlan, true
}

// traceInstant marks an adaptive-optimizer event on the engine's trace
// timeline, if a trace is attached.
func (rt *Runtime) traceInstant(name string) {
	if t := rt.Engine.Trace; t != nil {
		t.AddInstant(name, "adaptive")
	}
}

// traceStats publishes the optimizer's view of an operator's collected
// statistics — the FM-sketch Θ estimate, the miss ratio R, the serve
// time Tj, and the variance-gate reading — as registry gauges, so
// profiles record what the re-optimization decision was based on.
func (rt *Runtime) traceStats(op string, st *OperatorStats) {
	t := rt.Engine.Trace
	if t == nil || st == nil {
		return
	}
	set := func(name string, v float64) {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return // unrepresentable in JSON; absence means "no reading"
		}
		t.Metrics.SetGauge(name, v)
	}
	p := "efind." + op + ".stats."
	set(p+"n1", st.N1)
	set(p+"relstddev", st.MaxRelStdDev)
	for ix, is := range st.Index {
		set(p+ix+".nik", is.Nik)
		set(p+ix+".tj", is.Tj)
		set(p+ix+".r", is.R)
		set(p+ix+".theta", is.Theta)
	}
}

// reduceInWaves is Figure 10(b), the cut along the reducer axis: the first
// wave of reduce tasks runs under the current plan; if re-optimization
// then changes the tail operators' plan, the remaining reducers run the
// new plan's reduce side and their output goes through its shuffling jobs
// (runJobs, from job 1). Either way the shards are merged here, the
// first-wave reducers' results untouched, and written under the
// configured name.
func (pr *planRun) reduceInWaves(job *mapreduce.Job, outputs []*mapreduce.MapOutput) (*dfs.File, error) {
	conf, fs := pr.conf, pr.rt.Engine.FS
	wave := func(job *mapreduce.Job, from, to int) (*mapreduce.ReduceSubsetResult, error) {
		sub, err := pr.run.RunReduceSubset(job, outputs, seq(from, to))
		if err == nil {
			pr.add(sub.VTime, sub.Counters)
		}
		return sub, err
	}
	rwave := pr.rt.Engine.Cluster.ReduceSlots()
	if rwave > conf.NumReduce {
		rwave = conf.NumReduce
	}
	sub1, err := wave(job, 0, rwave)
	if err != nil {
		return nil, err
	}
	pr.res.JobsRun++
	shards := append([][]dfs.Record(nil), sub1.Shards...)
	homes := append([]sim.NodeID(nil), sub1.Homes...)

	newPlan, improved := pr.reoptimize(pr.res.Plan, conf.tail, sub1.Stats, rwave < conf.NumReduce)
	// Whatever runs from here on neither changes plan again nor measures
	// a whole reduce phase under one plan.
	pr.mayChange, pr.cold = false, false

	switch {
	case improved:
		co, err := pr.compile(newPlan)
		if err != nil {
			return nil, err
		}
		pr.res.Replanned = true
		pr.res.ReplanPhase = "reduce"
		pr.rt.traceInstant(fmt.Sprintf("adaptive: plan changed mid-reduce to %s", newPlan))
		// The remaining reducers run the new plan's reduce side (user
		// reduce plus the stages that feed the tail shuffling jobs); their
		// output is materialized and pushed through the rest of the chain.
		sub2, err := wave(co.engineJob(conf, 0, conf.Input), rwave, conf.NumReduce)
		if err != nil {
			return nil, err
		}
		pr.temp, err = fs.CreateSharded(fs.TempName(conf.Name+"-replan"), sub2.Shards, sub2.Homes)
		if err != nil {
			return nil, err
		}
		if err := pr.runJobs(co, 1, pr.temp, nil, nil); err != nil {
			return nil, err
		}
		// What the chain produced joins the first wave's shards (already
		// post-processed by the old plan's in-reduce tail stages).
		pr.temp = pr.res.Output
		for _, ch := range pr.temp.Chunks {
			recs, err := ch.Records()
			if err != nil {
				return nil, err
			}
			shards = append(shards, recs)
			home := sim.NodeID(0)
			if len(ch.Replicas) > 0 {
				home = ch.Replicas[0]
			}
			homes = append(homes, home)
		}
		if err := pr.drop(); err != nil {
			return nil, err
		}
	case rwave < conf.NumReduce:
		sub2, err := wave(job, rwave, conf.NumReduce)
		if err != nil {
			return nil, err
		}
		shards = append(shards, sub2.Shards...)
		homes = append(homes, sub2.Homes...)
	}
	name := conf.OutputName
	if name == "" {
		name = fs.TempName(conf.Name + "-out")
	}
	return fs.CreateSharded(name, shards, homes)
}

// seq returns [from, to).
func seq(from, to int) []int {
	if to <= from {
		return []int{}
	}
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}
