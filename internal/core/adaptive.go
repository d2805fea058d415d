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
func (rt *Runtime) runDynamic(conf *IndexJobConf) (*JobResult, error) {
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
	if warm {
		rt.traceInstant("adaptive: warm start from catalog statistics")
		plan, err := rt.planWithMode(conf, ModeOptimized)
		if err != nil {
			return nil, err
		}
		// Note: no statistics are harvested from a warm run — tasks under
		// shuffle plans measure only fragments of the Table 1 terms, and
		// folding those in would corrupt the catalog's baseline-measured
		// statistics.
		return rt.runPlan(conf, plan)
	}

	basePlan, err := rt.planWithMode(conf, ModeBaseline)
	if err != nil {
		return nil, err
	}
	co, err := compilePlan(rt, conf, basePlan)
	if err != nil {
		return nil, err
	}
	if len(co.jobs) != 1 {
		return nil, fmt.Errorf("efind: internal: baseline plan compiled to %d jobs", len(co.jobs))
	}
	mainJob := co.engineJob(conf, 0, conf.Input)

	total := &JobResult{Plan: basePlan, Counters: make(map[string]int64)}
	changesLeft := conf.MaxPlanChanges
	if changesLeft == 0 {
		changesLeft = 1 // the paper changes the plan at most once
	} else if changesLeft < 0 {
		changesLeft = 0 // ablation: adaptive statistics without replanning
	}

	// First wave of map tasks under the baseline plan: the statistics
	// collection phase.
	n := len(conf.Input.Chunks)
	wave := rt.Engine.Cluster.MapSlots()
	if wave > n {
		wave = n
	}
	mp1, err := rt.run.RunMapPhase(mainJob, seq(0, wave))
	if err != nil {
		return nil, err
	}
	total.VTime += mp1.VTime
	total.JobsRun = 1
	mapreduce.MergeCounters(total.Counters, mp1.Counters)

	// Fold first-wave statistics into the catalog for the operators whose
	// work happens before the reduce phase.
	preReduce := append(append([]*Operator(nil), conf.head...), conf.body...)
	newPlan, improved := rt.reoptimize(conf, basePlan, preReduce, mp1.Stats, wave < n)

	if improved && changesLeft > 0 {
		changesLeft--
		return rt.changePlanAtMap(conf, total, mp1, newPlan, wave, n)
	}

	// No map-phase change: finish the map phase under the current plan.
	var mpRest *mapreduce.MapPhaseResult
	if wave < n {
		mpRest, err = rt.run.RunMapPhase(mainJob, seq(wave, n))
		if err != nil {
			return nil, err
		}
		total.VTime += mpRest.VTime
		mapreduce.MergeCounters(total.Counters, mpRest.Counters)
	}

	if conf.Reducer == nil {
		merged := mergeMapPhases(mp1, mpRest)
		res, err := rt.run.FinishMapOnly(mainJob, merged)
		if err != nil {
			return nil, err
		}
		total.Output = res.Output
		return total, nil
	}

	outputs := append(append([]*mapreduce.MapOutput(nil), mp1.Outputs...), outputsOf(mpRest)...)

	// Reduce phase: with tail operators present and a change still
	// allowed, run the first wave of reducers under the current plan and
	// consider a mid-reduce change (Figure 10(b)).
	if len(conf.tail) > 0 && changesLeft > 0 {
		return rt.reducePhaseAdaptive(conf, total, mainJob, outputs, basePlan)
	}

	sub, err := rt.run.RunReduceSubset(mainJob, outputs, nil)
	if err != nil {
		return nil, err
	}
	total.VTime += sub.VTime
	mapreduce.MergeCounters(total.Counters, sub.Counters)
	rt.harvestTailStats(conf, sub.Stats)
	out, err := rt.writeOutput(conf, sub.Shards, sub.Homes)
	if err != nil {
		return nil, err
	}
	total.Output = out
	return total, nil
}

// reoptimize implements Algorithm 1 for the given operators: fold the
// task statistics into the catalog, refuse when variance is too high,
// otherwise build a new plan and accept it only if it beats the current
// plan by more than the plan-change cost. canChange is false when no work
// remains for the new plan to improve (e.g. all splits already processed).
func (rt *Runtime) reoptimize(conf *IndexJobConf, cur *JobPlan, ops []*Operator, tasks []mapreduce.TaskStats, canChange bool) (*JobPlan, bool) {
	// Algorithm 1, lines 1–3: statistics must be stable across tasks.
	// Operators whose statistics vary too much keep their current plan;
	// only stable ones are re-optimized (an operator-granular reading of
	// the paper's variance gate — a filter-heavy operator downstream sees
	// few records per task and would otherwise block the whole job).
	opSet := map[string]bool{}
	for _, o := range ops {
		st := collectStats(rt.Catalog, o, tasks, rt.Env)
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
	replace := func(plans []OperatorPlan) []OperatorPlan {
		out := make([]OperatorPlan, 0, len(plans))
		for _, p := range plans {
			if !opSet[p.Op.Name()] {
				out = append(out, p)
				continue
			}
			st := rt.Catalog.Get(p.Op.Name())
			np := OptimizeOperator(p.Op, p.Pos, st, rt.Env, conf.Planner)
			conf.applyDegrades(&np)
			// Both sides are credited with their build decisions' amortized
			// payoff, so the comparison ranks plans the way the optimizer
			// did (the plans' recorded costs stay honest per-run costs).
			curCost += PlanCost(p, st, rt.Env) - planBuildCredit(p, st, rt.Env, conf.Planner)
			newCost += np.Cost - planBuildCredit(np, st, rt.Env, conf.Planner)
			out = append(out, np)
		}
		return out
	}
	newPlan.Head = replace(cur.Head)
	newPlan.Body = replace(cur.Body)
	newPlan.Tail = replace(cur.Tail)
	newPlan.Cost = newCost

	// Algorithm 1, line 10: the improvement must exceed the change cost.
	if curCost-newCost <= conf.PlanChangeCost {
		rt.traceInstant(fmt.Sprintf("reoptimize: keep plan (improvement %.4f <= change cost %.4f)", curCost-newCost, conf.PlanChangeCost))
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

// changePlanAtMap implements Figure 10(a): completed first-wave map tasks
// are reused as-is; the remaining splits are processed under the new plan
// (including any shuffling jobs it introduces); the reduce phase consumes
// outputs from both plans.
func (rt *Runtime) changePlanAtMap(conf *IndexJobConf, total *JobResult, mp1 *mapreduce.MapPhaseResult, newPlan *JobPlan, wave, n int) (*JobResult, error) {
	co, err := compilePlan(rt, conf, newPlan)
	if err != nil {
		return nil, err
	}
	// The new plan's first job runs only the remaining splits; any
	// piggyback builders must offer from those (LIAH: build only what
	// the job reads anyway).
	co.restrictBuilds(seq(wave, n))
	total.Plan = newPlan
	total.Replanned = true
	total.ReplanPhase = "map"
	rt.traceInstant(fmt.Sprintf("adaptive: plan changed mid-map to %s", newPlan))

	input := conf.Input
	for k := range co.jobs {
		job := co.engineJob(conf, k, input)
		if k == 0 {
			job.Splits = seq(wave, n)
		}
		last := k == len(co.jobs)-1
		if !last {
			r, err := rt.run.Run(job)
			if err != nil {
				return nil, err
			}
			total.VTime += r.VTime
			total.JobsRun++
			mapreduce.MergeCounters(total.Counters, r.Counters)
			if input != conf.Input {
				if err := rt.Engine.FS.Remove(input.Name); err != nil {
					return nil, err
				}
			}
			input = r.Output
			continue
		}
		// Final job: its reducers pull from both the new-plan map tasks
		// and the completed baseline first-wave tasks.
		mpRest, err := rt.run.RunMapPhase(job, nil)
		if err != nil {
			return nil, err
		}
		total.VTime += mpRest.VTime
		total.JobsRun++
		mapreduce.MergeCounters(total.Counters, mpRest.Counters)
		if input != conf.Input {
			if err := rt.Engine.FS.Remove(input.Name); err != nil {
				return nil, err
			}
		}
		if conf.Reducer == nil {
			merged := mergeMapPhases(mp1, mpRest)
			res, err := rt.run.FinishMapOnly(job, merged)
			if err != nil {
				return nil, err
			}
			total.Output = res.Output
			return total, nil
		}
		outputs := append(append([]*mapreduce.MapOutput(nil), mp1.Outputs...), mpRest.Outputs...)
		sub, err := rt.run.RunReduceSubset(job, outputs, nil)
		if err != nil {
			return nil, err
		}
		total.VTime += sub.VTime
		mapreduce.MergeCounters(total.Counters, sub.Counters)
		rt.harvestTailStats(conf, sub.Stats)
		out, err := rt.writeOutput(conf, sub.Shards, sub.Homes)
		if err != nil {
			return nil, err
		}
		total.Output = out
	}
	return total, nil
}

// reducePhaseAdaptive implements Figure 10(b): the first wave of reduce
// tasks runs under the current plan; if re-optimization then changes the
// tail operators' plan, the remaining reducers run under the new plan
// (feeding its shuffling jobs) and the outputs are merged, keeping the
// first-wave reducers' results in the final output untouched.
func (rt *Runtime) reducePhaseAdaptive(conf *IndexJobConf, total *JobResult, mainJob *mapreduce.Job, outputs []*mapreduce.MapOutput, curPlan *JobPlan) (*JobResult, error) {
	rwave := rt.Engine.Cluster.ReduceSlots()
	if rwave > conf.NumReduce {
		rwave = conf.NumReduce
	}
	sub1, err := rt.run.RunReduceSubset(mainJob, outputs, seq(0, rwave))
	if err != nil {
		return nil, err
	}
	total.VTime += sub1.VTime
	mapreduce.MergeCounters(total.Counters, sub1.Counters)

	newPlan, improved := rt.reoptimize(conf, curPlan, conf.tail, sub1.Stats, rwave < conf.NumReduce)
	if !improved {
		var shards [][]dfs.Record
		var homes []sim.NodeID
		shards = append(shards, sub1.Shards...)
		homes = append(homes, sub1.Homes...)
		if rwave < conf.NumReduce {
			sub2, err := rt.run.RunReduceSubset(mainJob, outputs, seq(rwave, conf.NumReduce))
			if err != nil {
				return nil, err
			}
			total.VTime += sub2.VTime
			mapreduce.MergeCounters(total.Counters, sub2.Counters)
			shards = append(shards, sub2.Shards...)
			homes = append(homes, sub2.Homes...)
		}
		out, err := rt.writeOutput(conf, shards, homes)
		if err != nil {
			return nil, err
		}
		total.Output = out
		return total, nil
	}

	// Plan change in the middle of the reduce phase.
	total.Plan = newPlan
	total.Replanned = true
	total.ReplanPhase = "reduce"
	rt.traceInstant(fmt.Sprintf("adaptive: plan changed mid-reduce to %s", newPlan))
	co, err := compilePlan(rt, conf, newPlan)
	if err != nil {
		return nil, err
	}
	// Remaining reducers run the new plan's reduce side (user reduce plus
	// the stages that feed the tail shuffling jobs).
	confNoOut := *conf
	confNoOut.OutputName = ""
	newMain := co.engineJob(&confNoOut, 0, conf.Input)
	sub2, err := rt.run.RunReduceSubset(newMain, outputs, seq(rwave, conf.NumReduce))
	if err != nil {
		return nil, err
	}
	total.VTime += sub2.VTime
	mapreduce.MergeCounters(total.Counters, sub2.Counters)

	// Materialize the new-plan reducers' output and push it through the
	// tail shuffling/resume jobs.
	input, err := rt.Engine.FS.CreateSharded(rt.Engine.FS.TempName(conf.Name+"-replan"), sub2.Shards, sub2.Homes)
	if err != nil {
		return nil, err
	}
	for k := 1; k < len(co.jobs); k++ {
		job := co.engineJob(&confNoOut, k, input)
		r, err := rt.run.Run(job)
		if err != nil {
			return nil, err
		}
		total.VTime += r.VTime
		total.JobsRun++
		mapreduce.MergeCounters(total.Counters, r.Counters)
		if err := rt.Engine.FS.Remove(input.Name); err != nil {
			return nil, err
		}
		input = r.Output
	}

	// Merge: first-wave reducers' results (already post-processed by the
	// old plan's in-reduce tail stages) plus the new plan's output.
	shards := append([][]dfs.Record(nil), sub1.Shards...)
	homes := append([]sim.NodeID(nil), sub1.Homes...)
	for _, ch := range input.Chunks {
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
	if err := rt.Engine.FS.Remove(input.Name); err != nil {
		return nil, err
	}
	out, err := rt.writeOutput(conf, shards, homes)
	if err != nil {
		return nil, err
	}
	total.Output = out
	return total, nil
}

// planWithMode builds a plan as if the job ran under the given mode.
func (rt *Runtime) planWithMode(conf *IndexJobConf, m Mode) (*JobPlan, error) {
	clone := *conf
	clone.Mode = m
	return rt.planFor(&clone)
}

// harvestTailStats folds tail-operator statistics from reduce tasks into
// the catalog so subsequent optimized runs can plan them.
func (rt *Runtime) harvestTailStats(conf *IndexJobConf, tasks []mapreduce.TaskStats) {
	for _, o := range conf.tail {
		collectStats(rt.Catalog, o, tasks, rt.Env)
	}
}

// writeOutput materializes the final shards under the configured name.
func (rt *Runtime) writeOutput(conf *IndexJobConf, shards [][]dfs.Record, homes []sim.NodeID) (*dfs.File, error) {
	name := conf.OutputName
	if name == "" {
		name = rt.Engine.FS.TempName(conf.Name + "-out")
	}
	return rt.Engine.FS.CreateSharded(name, shards, homes)
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

// outputsOf tolerates a nil phase.
func outputsOf(mp *mapreduce.MapPhaseResult) []*mapreduce.MapOutput {
	if mp == nil {
		return nil
	}
	return mp.Outputs
}

// mergeMapPhases concatenates two map phases (the second may be nil).
func mergeMapPhases(a, b *mapreduce.MapPhaseResult) *mapreduce.MapPhaseResult {
	if b == nil {
		return a
	}
	counters := make(map[string]int64)
	mapreduce.MergeCounters(counters, a.Counters)
	mapreduce.MergeCounters(counters, b.Counters)
	return &mapreduce.MapPhaseResult{
		Outputs:  append(append([]*mapreduce.MapOutput(nil), a.Outputs...), b.Outputs...),
		Stats:    append(append([]mapreduce.TaskStats(nil), a.Stats...), b.Stats...),
		Counters: counters,
		VTime:    a.VTime + b.VTime,
	}
}
