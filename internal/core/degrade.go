package core

// Failure-triggered re-optimization: the degradation ladder for index
// partition outages. An access whose partition is inside an outage window
// fails with chaos.ErrUnavailable; the ixclient retry middleware backs off
// and polls, and only when the ladder is exhausted does the error climb
// here (under ErrorFailJob). Instead of failing the job, the runtime
// demotes the affected index to the always-applicable baseline strategy —
// re-using the §4 plan-change machinery with a failure trigger instead of
// a cost trigger — and re-runs. Completed map tasks of single-job inline
// plans are reused (Figure 10(a) applied to faults); multi-job plans
// restart from the original input. Each (operator, index) pair degrades at
// most once, so a permanent outage that survives even the baseline
// strategy fails the job with the original error.

import (
	"errors"
	"fmt"
	"sort"

	"efind/internal/chaos"
	"efind/internal/ixclient"
	"efind/internal/mapreduce"
)

// mapPhaseFailure wraps a map-phase error together with the partial phase
// result, so a failure-triggered plan change can re-run only the splits
// that never completed. resumable marks single-job plans, whose per-split
// outputs are final records and thus valid under any inline plan.
type mapPhaseFailure struct {
	jobName   string
	mp        *mapreduce.MapPhaseResult
	resumable bool
	err       error
}

func (e *mapPhaseFailure) Error() string {
	return fmt.Sprintf("efind: job %q: %v", e.jobName, e.err)
}

func (e *mapPhaseFailure) Unwrap() error { return e.err }

// runJob executes one compiled job like Engine.Run, but keeps the partial
// map-phase result on failure so the degrade ladder can reuse completed
// splits. resumable marks jobs whose map output is plan-independent (the
// only job of a single-job plan).
func (rt *Runtime) runJob(job *mapreduce.Job, resumable bool) (*mapreduce.Result, error) {
	mp, err := rt.run.RunMapPhase(job, nil)
	if err != nil {
		return nil, &mapPhaseFailure{jobName: job.Name, mp: mp, resumable: resumable, err: err}
	}
	if job.Reduce == nil {
		return rt.run.FinishMapOnly(job, mp)
	}
	return rt.run.RunReducePhase(job, mp)
}

// submitDegradable runs the job, degrading index strategies on exhausted
// outages until the job completes or no fallback remains.
func (rt *Runtime) submitDegradable(conf *IndexJobConf) (*JobResult, error) {
	res, err := rt.submitOnce(conf)
	var reopts int64
	for err != nil {
		op, ix, ok := degradeTarget(err)
		if !ok || conf.DisableDegrade || !conf.degrade(op, ix) {
			return nil, err
		}
		reopts++
		if t := rt.Engine.Trace; t != nil {
			t.AddInstant(fmt.Sprintf("reopt:failure %s/%s -> baseline", op, ix), "chaos")
			t.Metrics.Add(chaos.CtrReoptFailure, 1)
		}
		var mf *mapPhaseFailure
		if errors.As(err, &mf) && mf.resumable && conf.Mode != ModeDynamic {
			res, err = rt.resumeDegraded(conf, mf.mp)
		} else {
			res, err = rt.submitOnce(conf)
		}
	}
	if reopts > 0 {
		res.Counters[chaos.CtrReoptFailure] += reopts
	}
	return res, nil
}

// degradeTarget extracts the (operator, index) pair whose outage exhausted
// the retry ladder; ok is false for every other kind of failure.
func degradeTarget(err error) (op, ix string, ok bool) {
	var ie *ixclient.IndexError
	if !errors.As(err, &ie) || !errors.Is(err, chaos.ErrUnavailable) {
		return "", "", false
	}
	return ie.Op, ie.Index, true
}

// degrade marks one (operator, index) pair as demoted to the baseline
// strategy. It returns false when the pair is already degraded — the
// ladder is exhausted and the failure is final.
func (c *IndexJobConf) degrade(op, ix string) bool {
	if c.degraded[op][ix] {
		return false
	}
	if c.degraded == nil {
		c.degraded = make(map[string]map[string]bool)
	}
	if c.degraded[op] == nil {
		c.degraded[op] = make(map[string]bool)
	}
	c.degraded[op][ix] = true
	return true
}

// applyDegrades rewrites an operator plan so every demoted index runs the
// baseline strategy, regardless of what the optimizer chose. Demoting a
// shuffle decision can break Property 4's "shuffles first" ordering, so
// the decisions are stably re-partitioned around it; the relative order
// within each class is preserved, and per-index results are keyed by
// index position, so output is unaffected.
func (c *IndexJobConf) applyDegrades(p *OperatorPlan) {
	m := c.degraded[p.Op.Name()]
	if len(m) == 0 {
		return
	}
	changed := false
	for i, d := range p.Decisions {
		if m[p.Op.Indices()[d.Index].Name()] && d.Strategy != Baseline {
			p.Decisions[i] = Decision{Index: d.Index, Strategy: Baseline}
			changed = true
		}
	}
	if !changed {
		return
	}
	sort.SliceStable(p.Decisions, func(i, j int) bool {
		return isShuffle(p.Decisions[i].Strategy) && !isShuffle(p.Decisions[j].Strategy)
	})
}

func isShuffle(s Strategy) bool { return s == Repartition || s == IndexLocality }

// resumeDegraded finishes a job whose single-job plan failed mid-map: the
// (now degraded) plan is rebuilt, the splits that never completed are
// re-run under it, and the completed splits' outputs — final records,
// identical under every inline plan — are merged back in split order, so
// the job's output is bit-identical to an unfailed run. Falls back to a
// full re-run when the degraded plan is not a single inline job.
func (rt *Runtime) resumeDegraded(conf *IndexJobConf, partial *mapreduce.MapPhaseResult) (*JobResult, error) {
	plan, err := rt.planFor(conf)
	if err != nil {
		return nil, err
	}
	co, err := compilePlan(rt, conf, plan)
	if err != nil {
		return nil, err
	}
	if len(co.jobs) != 1 {
		return rt.runPlan(conf, plan)
	}
	job := co.engineJob(conf, 0, conf.Input)

	var missing []int
	for i := range partial.Outputs {
		if partial.Outputs[i] == nil {
			missing = append(missing, i)
		}
	}
	// Completed splits are reused, so only the re-run ones can build.
	co.restrictBuilds(missing)
	rest, err := rt.run.RunMapPhase(job, missing)
	if err != nil {
		return nil, &mapPhaseFailure{jobName: job.Name, mp: rest, err: err}
	}

	// Merge by split position so reduce input order — and with it the
	// output — matches an unfailed run exactly.
	merged := &mapreduce.MapPhaseResult{
		Outputs:  append([]*mapreduce.MapOutput(nil), partial.Outputs...),
		Stats:    append([]mapreduce.TaskStats(nil), partial.Stats...),
		Counters: make(map[string]int64),
		VTime:    partial.Phase.Makespan + rest.VTime,
	}
	for j, i := range missing {
		merged.Outputs[i] = rest.Outputs[j]
		merged.Stats[i] = rest.Stats[j]
	}
	// The failed phase never folded its completed tasks' counters; the
	// resumed phase's are already merged into rest.Counters.
	mapreduce.MergeCounters(merged.Counters, partial.Counters)
	mapreduce.MergeCounters(merged.Counters, rest.Counters)
	for i, st := range partial.Stats {
		if partial.Outputs[i] != nil {
			mapreduce.MergeCounters(merged.Counters, st.Counters)
		}
	}

	res := &JobResult{Plan: plan, Counters: make(map[string]int64), JobsRun: 1}
	var r *mapreduce.Result
	if job.Reduce == nil {
		r, err = rt.run.FinishMapOnly(job, merged)
	} else {
		r, err = rt.run.RunReducePhase(job, merged)
	}
	if err != nil {
		return nil, fmt.Errorf("efind: job %q: %w", job.Name, err)
	}
	res.raw = append(res.raw, r)
	res.VTime = r.VTime
	mapreduce.MergeCounters(res.Counters, r.Counters)
	res.Output = r.Output
	return res, nil
}
