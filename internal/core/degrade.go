package core

// Failure-triggered re-optimization: the degradation ladder for index
// partition outages. An access whose partition is inside an outage window
// fails with chaos.ErrUnavailable; the ixclient retry ladder backs off
// and polls, and only when the ladder is exhausted does the error climb
// here (under ErrorFailJob). Instead of failing the job, the submission
// demotes the affected index to the always-applicable baseline strategy
// and runs another attempt through the same executor (planRun.attempt,
// exec.go). When the failure was in the map phase of a single-job plan and
// the demoted plan is again a single job, that attempt is a resume: the
// failed phase's completed tasks are handed to runJobs as done work and
// its unfinished splits as the splits to run — exactly what a
// cost-triggered change does with a dynamic job's first wave (Figure
// 10(a)). Every other failure (a reduce phase, a multi-job chain, a
// dynamic job, a resumed phase) restarts from the original input. The
// demoted set lives on the submission, not on the caller's configuration,
// and each (operator, index) pair degrades at most once, so an outage
// that survives even the baseline strategy fails the job with the
// original error.

import (
	"errors"
	"fmt"
	"sort"

	"efind/internal/chaos"
	"efind/internal/ixclient"
	"efind/internal/mapreduce"
)

// mapPhaseFailure is a map-phase error. resumable, when non-nil, is the
// phase's partial result: the next attempt can keep its completed splits
// and re-run only the others. It is set for the whole map phase of a
// single-job plan, whose per-split outputs are final records, valid under
// any inline plan.
type mapPhaseFailure struct {
	jobName   string
	resumable *mapreduce.MapPhaseResult
	err       error
}

func (e *mapPhaseFailure) Error() string {
	return fmt.Sprintf("efind: job %q: %v", e.jobName, e.err)
}

func (e *mapPhaseFailure) Unwrap() error { return e.err }

// submit runs the job, degrading index strategies on exhausted outages
// until the job completes or no fallback remains.
func (pr *planRun) submit() error {
	err := pr.attempt(nil)
	var reopts int64
	for err != nil {
		op, ix, ok := degradeTarget(err)
		if !ok || !pr.degrade(op, ix) {
			return err
		}
		reopts++
		pr.run.Instant(fmt.Sprintf("reopt:failure %s/%s -> baseline", op, ix), "chaos")
		if t := pr.rt.Engine.Trace; t != nil {
			t.Metrics.Add(chaos.CtrReoptFailure, 1)
		}
		// A dynamic job re-submits from scratch: its first wave must run
		// again to measure under the demoted plan.
		var failed *mapreduce.MapPhaseResult
		var mf *mapPhaseFailure
		if errors.As(err, &mf) && pr.conf.Mode != ModeDynamic {
			failed = mf.resumable
		}
		err = pr.attempt(failed)
	}
	if reopts > 0 {
		pr.res.Counters[chaos.CtrReoptFailure] += reopts
	}
	return nil
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
func (pr *planRun) degrade(op, ix string) bool {
	if pr.degraded[[2]string{op, ix}] {
		return false
	}
	if pr.degraded == nil {
		pr.degraded = make(map[[2]string]bool)
	}
	pr.degraded[[2]string{op, ix}] = true
	return true
}

// applyDegrades rewrites an operator plan so every demoted index runs the
// baseline strategy, regardless of what the optimizer chose. Demoting a
// shuffle decision can break Property 4's "shuffles first" ordering, so
// the decisions are stably re-partitioned around it; the relative order
// within each class is preserved, and per-index results are keyed by
// index position, so output is unaffected. The rewritten plan is priced
// again under st, the statistics it was optimized from (nil for a plan
// that was never priced): the demoted index takes its baseline quote, and
// the re-ordering moves what the shuffles after it carry.
func (pr *planRun) applyDegrades(p *OperatorPlan, st *OperatorStats) {
	changed := false
	for i, d := range p.Decisions {
		if pr.degraded[[2]string{p.Op.Name(), p.Op.Indices()[d.Index].Name()}] && d.Strategy != Baseline {
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
	p.Cost = 0
	for i, q := range planQuotes(*p, st, pr.rt.Env, 0) {
		p.Decisions[i].Cost = q.Cost()
		p.Cost += q.Cost()
	}
}

func isShuffle(s Strategy) bool { return s == Repartition || s == IndexLocality }
