package core

import (
	"fmt"

	"efind/internal/ixclient"
	"efind/internal/obs"
)

// ExplainCosts renders a human-readable breakdown of the four classic
// strategies' modeled costs from a price list (see WhatIf), used by
// cmd/efind-plan. It formats candidates and knows no formula.
func ExplainCosts(list []Quote, f IndexFacts) []string {
	out := []string{
		fmt.Sprintf("lookup unit (Sik+Siv)/BW + Tj           = %.6f s", list[qBaseline].Unit),
		fmt.Sprintf("baseline   N1·Nik·unit                  = %.4f s", list[qBaseline].Cost()),
		fmt.Sprintf("cache      N1·Nik·(Tcache + R·unit)     = %.4f s  (R=%.2f)", list[qCache].Cost(), f.Stats.R),
	}
	for _, q := range list[qRepartPre : qRepartLate+1] {
		out = append(out, fmt.Sprintf(
			"repart/%-4s shuffle=%.4f + result=%.4f + lookup=%.4f + job=%.4f = %.4f s (S_min=%.0fB)",
			q.Boundary, q.Shuffle, q.Result, q.Lookup, q.Job, q.Cost(), q.SMin))
	}
	return append(out, fmt.Sprintf("idxloc     (local lookups + input move)  = %.4f s", list[qIdxLoc].Cost()))
}

// ExplainBuild renders the fifth strategy's cost breakdown for a
// buildable index from the same price list: the registry's completeness,
// the blended serve time at current coverage, the BuildCost term, the
// amortized rank the planner actually compares, and the predicted
// break-even run count against the best candidate that does not build.
func ExplainBuild(list []Quote, st *OperatorStats, f IndexFacts, env Env) []string {
	f = f.atCoverage(f.Covered)
	q := list[qBuild]
	alt := cheapest(list, true, false).Cost()
	out := []string{
		fmt.Sprintf("build      registry %d/%d splits covered (%.0f%% complete), Tj(c)=%.6f s",
			f.Covered, f.Total, 100*f.Completeness(), f.Stats.Tj),
		fmt.Sprintf("build      lookups=%.4f + BuildCost N1·(offer/total)·Tbuild=%.4f = %.4f s  (offer=%d)",
			q.Lookup, q.Cost()-q.Lookup, q.Cost(), f.Offer),
		fmt.Sprintf("build      rank = cost − horizon·savings = %.4f − %.0f·%.4f = %.4f s",
			q.Cost(), q.Horizon, q.Savings, q.Rank()),
	}
	if n := PredictBuildRuns(st, f, env, alt, 1000); n >= 0 {
		return append(out, fmt.Sprintf("build      predicted break-even: run %d (vs best alternative %.4f s/run)", n, alt))
	}
	return append(out, fmt.Sprintf("build      no break-even within 1000 runs (vs best alternative %.4f s/run)", alt))
}

// IndexProfiles derives the per-index modeled-vs-observed rows of a
// finished job: each plan decision's modeled per-machine cost next to
// the serve time the run actually charged, plus the index client
// pipeline's observed counters. Rows follow the plan's data-flow order;
// the trace sorts them by key on export.
func IndexProfiles(res *JobResult) []obs.IndexProfile {
	if res == nil || res.Plan == nil {
		return nil
	}
	var out []obs.IndexProfile
	for _, p := range res.Plan.All() {
		for _, d := range p.Decisions {
			op, ix := p.Op.Name(), p.Op.Indices()[d.Index].Name()
			out = append(out, obs.IndexProfile{
				Key:           op + "/" + ix,
				Strategy:      d.Strategy.String(),
				ModeledCost:   d.Cost,
				ObservedServe: float64(res.Counters[ixclient.CtrServeNS(op, ix)]) / 1e9,
				Lookups:       res.Counters[ixclient.CtrLookups(op, ix)],
				CacheProbes:   res.Counters[ixclient.CtrProbes(op, ix)],
				CacheMisses:   res.Counters[ixclient.CtrMisses(op, ix)],
				Errors:        res.Counters[ixclient.CtrErrors(op, ix)],
				Retries:       res.Counters[ixclient.CtrRetries(op, ix)],
				Timeouts:      res.Counters[ixclient.CtrTimeouts(op, ix)],
				NetRoundTrips: res.Counters[ixclient.CtrNetRoundTrips(op, ix)],
			})
		}
	}
	return out
}

// RenderProfile renders a job profile as human-readable report lines.
// Every section iterates in the profile's sorted order, so the report is
// byte-stable across runs.
func RenderProfile(p *obs.Profile) []string {
	out := []string{fmt.Sprintf("profile %q: total virtual time %.4f s", p.Label, p.TotalVTime)}
	if len(p.Stages) > 0 {
		out = append(out, "stages:")
		for _, s := range p.Stages {
			out = append(out, fmt.Sprintf("  %-44s %-7s vtime=%.4fs tasks=%d local=%d waves=%d",
				s.Name, s.Kind, s.VTime, s.Tasks, s.LocalTasks, s.Waves))
		}
	}
	if len(p.Indexes) > 0 {
		out = append(out, "indexes (modeled vs observed):")
		for _, ix := range p.Indexes {
			out = append(out, fmt.Sprintf("  %-34s %-9s modeled=%.4fs served=%.4fs lookups=%d misses=%d/%d errors=%d retries=%d timeouts=%d rtts=%d",
				ix.Key, ix.Strategy, ix.ModeledCost, ix.ObservedServe, ix.Lookups,
				ix.CacheMisses, ix.CacheProbes, ix.Errors, ix.Retries, ix.Timeouts, ix.NetRoundTrips))
		}
	}
	if len(p.Counters) > 0 {
		out = append(out, "counters:")
		for _, c := range p.Counters {
			out = append(out, fmt.Sprintf("  %-56s %d", c.Name, c.Value))
		}
	}
	if len(p.Gauges) > 0 {
		out = append(out, "gauges:")
		for _, g := range p.Gauges {
			out = append(out, fmt.Sprintf("  %-56s %.6g", g.Name, g.Value))
		}
	}
	return out
}
