package core

import (
	"fmt"

	"efind/internal/index"
)

// Strategy is one of the paper's four index access strategies (§3), plus
// the adaptive-build strategy of internal/adaptix.
type Strategy int

// Strategies.
const (
	// Baseline accesses the index once per lookup key via chained
	// functions (§3.1, formula (1)).
	Baseline Strategy = iota
	// LookupCache adds a per-machine LRU cache in front of the index
	// (§3.2, formula (2)).
	LookupCache
	// Repartition inserts a shuffling job that groups equal lookup keys
	// before accessing the index (§3.3, formula (3)).
	Repartition
	// IndexLocality co-partitions lookup keys with the index partitions
	// and schedules the lookup tasks on the partition hosts (§3.4,
	// formula (4)).
	IndexLocality
	// Build is the fifth family (HAIL/LIAH-style adaptive index
	// creation): lookups run cache-fronted against the partially-built
	// index — indexed access for covered splits, scan fallback for the
	// rest — while the map scan piggybacks an incremental build of this
	// run's offered splits, so repeated jobs converge to indexed plans.
	// Only applicable to head operators of index.Buildable accessors
	// with uncovered splits remaining.
	Build
)

func (s Strategy) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case LookupCache:
		return "cache"
	case Repartition:
		return "repart"
	case IndexLocality:
		return "idxloc"
	case Build:
		return "build"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Boundary picks where a re-partitioning plan materializes the first
// job's output (the paper varies the job boundary to minimize the
// materialized size, Cost_result = f·N1·S_min).
type Boundary int

// Boundaries.
const (
	// BoundaryPre materializes the pre-processed carriers right after the
	// group-by; the lookup runs memoized in the next job's map tasks
	// (the "first case" of Figure 7, also the only boundary compatible
	// with index locality).
	BoundaryPre Boundary = iota
	// BoundaryIdx performs the lookup in the shuffle job's reduce and
	// materializes carriers with results attached.
	BoundaryIdx
	// BoundaryLate runs the rest of the operator pipeline (remaining
	// lookups, postProcess, and the original Map for head operators)
	// inside the shuffle job's reduce and materializes its final output.
	BoundaryLate
)

func (b Boundary) String() string {
	switch b {
	case BoundaryPre:
		return "pre"
	case BoundaryIdx:
		return "idx"
	case BoundaryLate:
		return "late"
	default:
		return fmt.Sprintf("boundary(%d)", int(b))
	}
}

// OpPosition locates an operator in the MapReduce data flow.
type OpPosition int

// Operator positions.
const (
	HeadOp OpPosition = iota // before Map
	BodyOp                   // between Map and Reduce
	TailOp                   // after Reduce
)

func (p OpPosition) String() string {
	switch p {
	case HeadOp:
		return "head"
	case BodyOp:
		return "body"
	default:
		return "tail"
	}
}

// IndexFacts is everything the price list knows about one index of one
// operator: the Table 1 terms, whether index locality is possible, and —
// for an adaptively built index — how far the build has come and what the
// rest of it costs. The planner reads them off the accessor once per
// enumeration (factsOf); the what-if callers state them directly.
type IndexFacts struct {
	// Stats are the (operator, index) pair's Table 1 terms. For a
	// buildable index pricing replaces Stats.Tj by TjAt(Covered): a
	// catalog measurement was taken at the coverage of the measuring run,
	// and a commit since then would mis-price every strategy of this index.
	Stats IndexStats
	// Partitioned reports an exposed partition scheme with known hosts,
	// index locality's precondition.
	Partitioned bool
	// Buildable marks an index.Buildable accessor; the fields below are
	// meaningful only when it is set.
	Buildable bool
	// Covered and Total are the committed and total build units (input
	// splits) from the registry.
	Covered, Total int
	// Offer is how many splits one run offers to build; pricing caps it
	// to the uncovered remainder.
	Offer int
	// ScanTime is the per-lookup serve penalty of one uncovered split,
	// BuildTime the per-record charge of the piggyback build stage.
	ScanTime, BuildTime float64
	// TjIdx is the fully-built serve time (the underlying store's T_j).
	TjIdx float64
}

// TjAt models the blended serve time at a given coverage: the built
// store's T_j plus the scan fallback over every uncovered split. This is
// exactly Buildable.ServeTime's formula, so modeled and charged serve
// times agree by construction.
func (f IndexFacts) TjAt(covered int) float64 {
	if covered > f.Total {
		covered = f.Total
	}
	return f.TjIdx + float64(f.Total-covered)*f.ScanTime
}

// Completeness is the covered fraction in [0,1].
func (f IndexFacts) Completeness() float64 {
	if f.Total == 0 {
		return 0
	}
	return float64(f.Covered) / float64(f.Total)
}

// atCoverage returns the facts as pricing wants them for a buildable
// index at the given coverage: the serve time blended for it and the
// offer capped to what is left to build. Everything that accepts facts
// from outside the package passes them through here.
func (f IndexFacts) atCoverage(covered int) IndexFacts {
	if !f.Buildable {
		return f
	}
	f.Covered = covered
	f.Stats.Tj = f.TjAt(covered)
	if f.Offer > f.Total-covered {
		f.Offer = f.Total - covered
	}
	if f.Offer < 0 {
		f.Offer = 0
	}
	return f
}

// factsOf reads an accessor's facts. The build geometry (store T_j,
// per-split scan time) is the accessor's own declaration rather than a
// catalog measurement, so a plan priced after more splits committed uses
// the current coverage even when the catalog's measured T_j is stale.
func factsOf(a index.Accessor, is IndexStats) IndexFacts {
	f := IndexFacts{Stats: is}
	if p, ok := a.(index.Partitioned); ok {
		sch := p.Scheme()
		f.Partitioned = sch != nil && sch.Partitions > 0 && len(sch.Hosts) == sch.Partitions
	}
	if b, ok := a.(index.Buildable); ok {
		f.Buildable = true
		f.Covered, f.Total = b.BuildProgress()
		f.ScanTime, f.BuildTime, f.Offer = b.ScanServeTime(), b.BuildCharge(), len(b.OfferSplits())
		f.TjIdx = b.ServeTime() - float64(f.Total-f.Covered)*f.ScanTime
	}
	return f.atCoverage(f.Covered)
}

// Quote is one priced candidate: a strategy (and, for re-partitioning, a
// job boundary) for one index at one point of an operator's access order,
// with the terms its formula sums kept apart.
type Quote struct {
	Strategy Strategy
	Boundary Boundary
	// Feasible reports whether the planner may choose the candidate for
	// this index at this operator. The terms are priced either way: a
	// forced plan can hold a decision the planner would not make.
	Feasible bool
	// Unit is what one index lookup costs under this candidate: the
	// remote round trip (Sik+Siv)/BW + Tj, blended with the probe as
	// Tcache + R·unit behind a cache, T_j alone at the partition's host.
	Unit float64
	// Lookup is the index access term (Cost_lookup; under index locality
	// it includes moving the input to the partition hosts), Shuffle the
	// carrier transfer N1·Spre/BW, Result the DFS round trip f·N1·S_min,
	// Job the fixed overhead of the extra MapReduce job, and BuildCharge
	// the piggyback stage's N1·(Offer/Total)·BuildTime.
	Lookup, Shuffle, Result, Job, BuildCharge float64
	// SMin is the materialized size per record behind Result.
	SMin float64
	// Savings is the modeled payoff per future run of the splits this
	// run would commit, N1·Nik·R·Offer·ScanTime, and Horizon the number
	// of future runs the planner credits it for. Zero unless building.
	Savings, Horizon float64
}

// Cost is the modeled per-machine cost of one run. The terms are added in
// the order the formulas were first written down — ((shuffle + result) +
// lookup) + job, then the build charge — so that a cost computed from a
// Quote has the bits it always had; absent terms are +0 and change nothing.
func (q Quote) Cost() float64 {
	return q.Shuffle + q.Result + q.Lookup + q.Job + q.BuildCharge
}

// Credit is the amortized future payoff of building: "pay a little now,
// win on the next runs".
func (q Quote) Credit() float64 { return q.Horizon * q.Savings }

// Rank is what candidates are compared by: the honest per-run cost less
// the build credit. Only the ranking is amortized; a Decision records Cost.
func (q Quote) Rank() float64 { return q.Cost() - q.Credit() }

// String renders the candidate the way a plan does: "cache", "repart/pre".
func (q Quote) String() string { return candidateName(q.Strategy, q.Boundary) }

// candidateName names a strategy, with its boundary where it has one.
func candidateName(s Strategy, b Boundary) string {
	if s == Repartition {
		return s.String() + "/" + b.String()
	}
	return s.String()
}

// The price list's fixed order. Ties go to the earlier candidate, so the
// order is also the planner's preference among equals: the strategies
// that add no job before those that do, an earlier boundary (less work in
// the reduce) before a later one, building last.
const (
	qBaseline = iota
	qCache
	qRepartPre
	qRepartIdx
	qRepartLate
	qIdxLoc
	qBuild
	numQuotes
)

// attached is what one index's results add to the carrier: the carrier is
// that much bigger behind the lookup, and later shuffles of the access
// order carry it.
func attached(is *IndexStats) float64 { return is.Nik * (is.Sik + is.Siv) }

// price is the cost model: every candidate for one index of an operator at
// pos, when the carrier reaching it weighs spreEff bytes (Spre plus the
// results earlier indices of the access order attached) and a build is
// credited over horizon future runs. f must come from factsOf or
// atCoverage.
func price(pos OpPosition, st *OperatorStats, f *IndexFacts, env Env, spreEff, horizon float64) (list [numQuotes]Quote) {
	is := &f.Stats
	unit := (is.Sik+is.Siv)/env.BW + is.Tj
	probed := env.Tcache + is.R*unit

	// Formula (1): Cost_base = N1·Nik·((Sik+Siv)/BW + Tj).
	list[qBaseline] = Quote{Strategy: Baseline, Feasible: true, Unit: unit, Lookup: st.N1 * is.Nik * unit}
	// Formula (2): Cost_cache = N1·Nik·(Tcache + R·((Sik+Siv)/BW + Tj)).
	list[qCache] = Quote{Strategy: LookupCache, Feasible: true, Unit: probed, Lookup: st.N1 * is.Nik * probed}

	// Formula (3): Cost_repart = Cost_shuffle + Cost_result + Cost_lookup,
	// plus the extra job. The boundary picks S_min among the carrier
	// before the lookup, after it, and after the rest of the pipeline
	// (Smap for head operators, Spost otherwise), mirroring the paper's
	// S_min sets. Behind BoundaryIdx/BoundaryLate the deduplicated lookups
	// run in the shuffle job's reduce tasks, which have fewer lanes than
	// the map side, so their lookup term scales by the lane factor.
	// Re-partitioning needs at most one key per record: carriers are
	// routed by their single key.
	repartOK := !is.MultiKey && is.Nik > 0
	theta := is.Theta
	if theta < 1 {
		theta = 1
	}
	shuffle := st.N1 * spreEff / env.BW
	deduped := st.N1 * is.Nik / theta
	late := st.Spost
	if pos == HeadOp && st.Smap > 0 {
		late = st.Smap
	}
	for i, smin := range [...]float64{spreEff, spreEff + attached(is), late} {
		q := &list[qRepartPre+i]
		*q = Quote{
			Strategy: Repartition, Boundary: Boundary(i), Feasible: repartOK, Unit: unit,
			Lookup: deduped * unit, Shuffle: shuffle, Result: env.F * st.N1 * smin, SMin: smin, Job: env.JobOverhead,
		}
		if q.Boundary != BoundaryPre {
			q.Lookup *= env.laneFactor()
		}
	}

	// Formula (4): the shuffle and result costs of re-partitioning (with
	// the BoundaryPre materialization the strategy requires) plus local
	// lookups and the transfer of the main data to the partition hosts:
	// Cost_idxloc = Cost_shuffle + Cost_result + N1·Nik/Θ·Tj + N1·Spre/BW.
	list[qIdxLoc] = Quote{
		Strategy: IndexLocality, Feasible: repartOK && f.Partitioned, Unit: is.Tj,
		Lookup: deduped*is.Tj + st.N1*spreEff/env.BW, Shuffle: shuffle,
		Result: env.F * st.N1 * spreEff, SMin: spreEff, Job: env.JobOverhead,
	}

	// The build strategy: cache-fronted lookups at the current coverage's
	// blended serve time, plus the piggyback stage touching the offered
	// fraction of the input once per record,
	//
	//	Cost_build = Cost_cache(TjAt(c)) + N1·(Offer/Total)·BuildTime,
	//
	// and once the offered splits are committed every cache-missing
	// lookup's serve time drops by Offer·ScanTime. The stage rides the map
	// scan of the job input, so only head operators qualify; there must
	// be something left to build and an offer to build it with.
	b := &list[qBuild]
	*b = Quote{Strategy: Build, Unit: probed, Lookup: list[qCache].Lookup}
	if f.Buildable {
		b.Feasible = pos == HeadOp && f.Covered < f.Total && f.Offer > 0 && horizon > 0
		if f.Total > 0 && f.Offer > 0 {
			b.BuildCharge = st.N1 * float64(f.Offer) / float64(f.Total) * f.BuildTime
		}
		b.Savings, b.Horizon = st.N1*is.Nik*is.R*float64(f.Offer)*f.ScanTime, horizon
	}
	return list
}

// cheapest returns the feasible candidate of lowest rank, the first of
// equals; shuffles and builds say whether those strategies may compete.
func cheapest(list []Quote, shuffles, builds bool) Quote {
	best, bestRank := qBaseline, list[qBaseline].Rank()
	for i := qCache; i < len(list); i++ {
		q := &list[i]
		if !q.Feasible || isShuffle(q.Strategy) && !shuffles || q.Strategy == Build && !builds {
			continue
		}
		if r := q.Rank(); r < bestRank {
			best, bestRank = i, r
		}
	}
	return list[best]
}

// quoteFor returns the candidate a decision chose (the zero Quote, which
// costs nothing, for a strategy the list does not know).
func quoteFor(list []Quote, s Strategy, b Boundary) Quote {
	for _, q := range list {
		if q.Strategy == s && (s != Repartition || q.Boundary == b) {
			return q
		}
	}
	return Quote{}
}

// WhatIf prices a one-index operator from stated facts — no accessor, no
// catalog — the way the planner would: the whole price list in its fixed
// order, the candidate the planner chooses, and the best one that does
// not build (what building has to beat).
func WhatIf(pos OpPosition, st *OperatorStats, f IndexFacts, env Env, opts PlannerOptions) (list []Quote, chosen, alt Quote) {
	f = f.atCoverage(f.Covered)
	priced := price(pos, st, &f, env, st.Spre, opts.buildHorizon())
	return priced[:], cheapest(priced[:], true, true), cheapest(priced[:], true, false)
}

// PredictBuildRuns predicts the break-even run count of the build
// strategy against a non-build alternative costing alt per run: the
// smallest r such that r runs under build (coverage advancing by the
// offer each run) cost no more cumulatively than r runs of the
// alternative. Returns -1 when no break-even occurs within maxRuns
// (building never pays off, e.g. Offer is 0 or the build charge dominates
// the savings).
func PredictBuildRuns(st *OperatorStats, f IndexFacts, env Env, alt float64, maxRuns int) int {
	cumBuild, cumAlt := 0.0, 0.0
	covered := f.Covered
	for r := 1; r <= maxRuns; r++ {
		at := f.atCoverage(covered)
		cumBuild += price(HeadOp, st, &at, env, st.Spre, 0)[qBuild].Cost()
		cumAlt += alt
		if cumBuild <= cumAlt {
			return r
		}
		covered += at.Offer
	}
	return -1
}
