package experiments

import (
	"fmt"
	"math"

	"efind/internal/adaptix"
	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/index"
	"efind/internal/jobsvc"
	"efind/internal/kvstore"
	"efind/internal/obs"
	"efind/internal/workloads"
)

// The adaptive-build experiment runs the Fig. 11(f) synthetic query
// family repeatedly through the job service against an index that does
// not exist yet: an adaptix.Buildable whose store starts empty and whose
// scan fallback prices every lookup at scan cost. Each run's planner
// weighs "build now, win later" (the fifth strategy) against the four
// classic strategies; chosen builds piggyback on the map scan, commit
// between jobs, and shrink the next run's serve time, so the per-run
// makespan converges from scan-cost to the indexed plan's cost. The
// cost model's predicted break-even run is checked against the observed
// crossover versus a leg that never builds.

// abRuns is how many times each leg repeats the query. The offer rate
// covers the input in ceil(1/abOfferRate) runs, so the tail of the
// sequence shows the converged steady state.
const abRuns = 8

// abOfferRate is the fraction of input splits one run offers to build
// (LIAH's rho): 0.25 converges in four runs.
const abOfferRate = 0.25

// abIndexName names the buildable index; distinct from the generator's
// pre-built "syn-index", which this experiment deliberately ignores.
const abIndexName = "syn-adx"

// Fixed build geometry: the store's fully-built serve time, the
// per-lookup penalty of one uncovered split, and the per-record charge
// of the piggyback build stage.
const (
	abStoreServe = 0.0008
	abScanTime   = 5e-5
	abBuildTime  = 2e-5
)

// abExtract derives the index entry of one scanned synthetic record.
// The value depends only on the key, so lookups return identical values
// whether a key's records were served from the store or the scan
// fallback — outputs are comparable at every coverage.
func abExtract(_, value string) []index.BuildEntry {
	k := workloads.SyntheticKey(value)
	return []index.BuildEntry{{Key: k, Value: "ix(" + k + ")"}}
}

// abConf composes one run of the query family over the buildable index.
func abConf(name string, input *dfs.File, bix *adaptix.Buildable, mode core.Mode) *core.IndexJobConf {
	conf := buildSynConf(name, input, bix, mode)
	conf.VarianceThreshold = experimentVarianceThreshold
	return conf
}

// abLeg is one leg: its runs' statuses, the final registry coverage and
// — for the building leg — the cost model's break-even prediction.
type abLeg struct {
	*lab
	covered, total int
	predicted      int
	altCost        float64
}

// runAdaptiveLeg runs one leg in a fresh lab: `runs` identical
// ModeOptimized submissions of the query family through a single-tenant
// job service (MaxInFlight 1, so coverage grows strictly between runs).
// offerRate 0 never builds; prebuilt additionally bulk-builds the index
// before the first run (the convergence target).
func runAdaptiveLeg(scale Scale, tr *obs.Trace, label string, offerRate float64, prebuilt bool, runs int) (*abLeg, error) {
	out := &abLeg{predicted: -1}
	var bix *adaptix.Buildable
	run, err := runLeg(leg{trace: tr, section: "adaptive-build/" + label}, func(l *lab) (strategyJob, error) {
		input, _, err := l.genSyn(scale, 1024)
		if err != nil {
			return strategyJob{}, err
		}
		store := kvstore.NewHash(l.cluster, abIndexName, 16, 3, abStoreServe)
		bix, err = adaptix.New(adaptix.Config{
			Name:      abIndexName,
			Source:    input,
			Extract:   abExtract,
			Store:     store,
			Registry:  adaptix.NewRegistry(),
			ScanTime:  abScanTime,
			BuildTime: abBuildTime,
			OfferRate: offerRate,
		})
		if err != nil {
			return strategyJob{}, err
		}
		if prebuilt {
			if err := bix.BuildAll(); err != nil {
				return strategyJob{}, err
			}
		}
		if err := l.rt.CollectStats(abConf("ab-"+label+"-stats", input, bix, core.ModeBaseline)); err != nil {
			return strategyJob{}, err
		}

		// The break-even prediction is made once, up front, from the same
		// inputs the first run's planner will see: the collected statistics,
		// the registry's (empty) coverage, and the best non-build plan as the
		// alternative.
		if offerRate > 0 && !prebuilt {
			st := l.rt.Catalog.Get("syn")
			if st == nil {
				return strategyJob{}, fmt.Errorf("adaptive-build/%s: no statistics for operator syn", label)
			}
			facts := core.IndexFacts{
				Stats: st.Index[abIndexName], Buildable: true,
				Offer: len(bix.OfferSplits()), ScanTime: abScanTime, BuildTime: abBuildTime,
				TjIdx: store.ServeTime(),
			}
			facts.Covered, facts.Total = bix.BuildProgress()
			_, _, alt := core.WhatIf(core.HeadOp, st, facts, l.rt.Env, core.DefaultPlannerOptions())
			out.altCost = alt.Cost()
			out.predicted = core.PredictBuildRuns(st, facts, l.rt.Env, out.altCost, runs)
		}

		job := strategyJob{tenants: []jobsvc.TenantConfig{{Name: "ab", MaxInFlight: 1}}}
		for i := 0; i < runs; i++ {
			job.subs = append(job.subs, jobsvc.Submission{
				Tenant: "ab",
				At:     0.05 * float64(i),
				Conf:   abConf(fmt.Sprintf("ab-%s-%d", label, i), input, bix, core.ModeOptimized),
			})
		}
		return job, nil
	})
	if err != nil {
		return nil, err
	}
	out.lab = run
	out.covered, out.total = bix.BuildProgress()
	return out, nil
}

// AdaptiveBuild runs the adaptive index creation experiment: the same
// synthetic query abRuns times under three legs — adaptive (builds as a
// side-effect), scan-only (never builds; the honest alternative), and
// prebuilt (the index bulk-built up front; the convergence target). The
// experiment itself enforces the reproduction claims: full coverage,
// monotone per-run makespans, convergence to within 10% of the prebuilt
// leg, identical outputs everywhere, and a predicted break-even within
// ±1 run of the observed crossover — the last three as claims on the
// table, whose cells they are computed from.
func AdaptiveBuild(scale Scale, tr *obs.Trace) (*Table, error) {
	adaptive, err := runAdaptiveLeg(scale, tr, "adaptive", abOfferRate, false, abRuns)
	if err != nil {
		return nil, err
	}
	scanonly, err := runAdaptiveLeg(scale, tr, "scan-only", 0, false, abRuns)
	if err != nil {
		return nil, err
	}
	prebuilt, err := runAdaptiveLeg(scale, tr, "prebuilt", 0, true, abRuns)
	if err != nil {
		return nil, err
	}

	// Every run of every leg computes the same join.
	var want []uint64
	for _, lg := range []*abLeg{prebuilt, adaptive, scanonly} {
		got, err := lg.outputDigests()
		if err != nil {
			return nil, err
		}
		if want == nil {
			want = got
		}
		for k, h := range got {
			if h != want[0] {
				return nil, fmt.Errorf("adaptive-build: output diverged (run %d, hash %x vs %x)", k+1, h, want[0])
			}
		}
	}

	if adaptive.covered != adaptive.total || adaptive.total == 0 {
		return nil, fmt.Errorf("adaptive-build: coverage %d/%d after %d runs; build never completed",
			adaptive.covered, adaptive.total, abRuns)
	}
	if scanonly.covered != 0 {
		return nil, fmt.Errorf("adaptive-build: scan-only leg built %d splits; offer rate 0 must never build", scanonly.covered)
	}

	t := &Table{
		Title:   fmt.Sprintf("Adaptive build: %d runs of the Fig. 11(f) query — makespan (virtual s) and committed splits per run", abRuns),
		Columns: []string{"adaptive", "scanonly", "prebuilt", "committed"},
	}
	for k := 0; k < abRuns; k++ {
		t.Add(fmt.Sprintf("run%d", k+1),
			adaptive.statuses[k].Makespan(), scanonly.statuses[k].Makespan(), prebuilt.statuses[k].Makespan(),
			float64(adaptive.statuses[k].Result.Counters[core.CtrBuildCommitted]))
	}
	t.claim(len(t.Rows) == abRuns, "%d rows, want %d", len(t.Rows), abRuns)

	// Convergence: monotone (small tolerance for plan-shape switches at
	// full coverage), at least 2x below the first run, under the scan-only
	// leg and within 10% of the prebuilt plan's makespan.
	first, last := t.Rows[0].Label, t.Rows[len(t.Rows)-1].Label
	prev, committed := t.at(first, "adaptive"), 0.0
	// Break-even: the first run where the building leg's cumulative cost
	// dips under the never-building leg's, versus the model's prediction.
	observed, cumA, cumS := -1, 0.0, 0.0
	for k, r := range t.Rows {
		span := t.at(r.Label, "adaptive")
		t.claim(span <= prev*1.01, "makespan rose at %s: %.4f -> %.4f", r.Label, prev, span)
		prev = span
		committed += t.at(r.Label, "committed")
		cumA += span
		cumS += t.at(r.Label, "scanonly")
		if observed < 0 && cumA <= cumS {
			observed = k + 1
		}
	}
	start, final := t.at(first, "adaptive"), t.at(last, "adaptive")
	scan, target := t.at(last, "scanonly"), t.at(last, "prebuilt")
	t.claim(start/final >= 2, "convergence too shallow: %s %.4f vs %s %.4f", first, start, last, final)
	t.claim(final < scan, "converged run (%.4f) should beat the scan-only leg (%.4f)", final, scan)
	t.claim(final <= target*1.10, "converged makespan %.4f not within 10%% of prebuilt %.4f", final, target)
	// The building leg commits its offered splits every run until the
	// registry is complete, then stops.
	t.claim(committed > 0, "no splits were ever committed")
	t.claim(t.at(last, "committed") == 0, "%s still committed %v splits; build should have completed", last, t.at(last, "committed"))
	// The scan-only leg is steady: identical plans at identical coverage
	// (tolerance for float rounding at different virtual admission times).
	scanFirst := t.at(first, "scanonly")
	t.claim(math.Abs(scanFirst-scan) <= 1e-6*scan, "scan-only leg drifted: %s %.9f vs %s %.9f", first, scanFirst, last, scan)
	t.claim(observed >= 0, "no observed break-even within %d runs (cum %.4f vs %.4f)", abRuns, cumA, cumS)
	t.claim(adaptive.predicted >= 0, "model predicts no break-even within %d runs (observed %d)", abRuns, observed)
	t.claim(math.Abs(float64(observed-adaptive.predicted)) <= 1, "predicted break-even run %d vs observed %d (tolerance ±1)", adaptive.predicted, observed)

	t.Note("coverage %d/%d splits after %d runs; first plan %s; steady plan %s",
		adaptive.covered, adaptive.total, abRuns, adaptive.statuses[0].Result.Plan, adaptive.statuses[abRuns-1].Result.Plan)
	t.Note("break-even: model predicts run %d (alternative %.4f s/run), observed run %d",
		adaptive.predicted, adaptive.altCost, observed)
	t.Note("convergence: run1 %.4f -> run%d %.4f (%.2fx), prebuilt plan %.4f",
		start, abRuns, final, start/final, target)
	return t, t.err
}
