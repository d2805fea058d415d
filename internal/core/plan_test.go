package core

import (
	"math"
	"slices"
	"testing"

	"efind/internal/index"
	"efind/internal/sim"
)

// testEnv12 mirrors the paper's environment: 12 nodes, 1 Gbps.
func testEnv12() Env {
	return Env{BW: 125e6, F: 2.5e-8, Tcache: 1e-6, Nodes: 12}
}

func opStats(n1 float64, is IndexStats, names ...string) *OperatorStats {
	st := &OperatorStats{
		N1: n1, Records: int64(n1 * 12),
		S1: 100, Spre: 60, Sidx: 200, Spost: 80, Smap: 90,
		Index: map[string]IndexStats{},
	}
	if len(names) == 0 {
		names = []string{"ix"}
	}
	for _, n := range names {
		st.Index[n] = is
	}
	return st
}

// quotes is the price list of an index with no partition scheme and no
// build, first in its operator's access order unless spreEff says otherwise.
func quotes(pos OpPosition, st *OperatorStats, is IndexStats, env Env, spreEff float64) [numQuotes]Quote {
	return price(pos, st, &IndexFacts{Stats: is}, env, spreEff, 0)
}

func costBaseline(st *OperatorStats, is IndexStats, env Env) float64 {
	return quotes(BodyOp, st, is, env, st.Spre)[qBaseline].Cost()
}

func costCache(st *OperatorStats, is IndexStats, env Env) float64 {
	return quotes(BodyOp, st, is, env, st.Spre)[qCache].Cost()
}

func TestCostBaselineFormula(t *testing.T) {
	env := testEnv12()
	is := IndexStats{Nik: 1, Sik: 20, Siv: 100, Tj: 0.0008, Theta: 1, R: 1}
	st := opStats(1000, is)
	want := 1000.0 * 1.0 * ((20.0+100.0)/125e6 + 0.0008)
	if got := costBaseline(st, is, env); math.Abs(got-want) > 1e-9 {
		t.Fatalf("cost base = %g, want %g", got, want)
	}
}

func TestCostCacheFormula(t *testing.T) {
	env := testEnv12()
	is := IndexStats{Nik: 1, Sik: 20, Siv: 100, Tj: 0.0008, Theta: 1, R: 0.25}
	st := opStats(1000, is)
	unit := (20.0+100.0)/125e6 + 0.0008
	want := 1000.0 * (1e-6 + 0.25*unit)
	if got := costCache(st, is, env); math.Abs(got-want) > 1e-9 {
		t.Fatalf("cost cache = %g, want %g", got, want)
	}
}

func TestCostRepartFormula(t *testing.T) {
	env := testEnv12()
	is := IndexStats{Nik: 1, Sik: 20, Siv: 100, Tj: 0.0008, Theta: 10, R: 1}
	st := opStats(1000, is)
	q := quotes(BodyOp, st, is, env, 60)[qRepartPre]
	shuffle, result, lookup := q.Shuffle, q.Result, q.Lookup
	if math.Abs(shuffle-1000*60/125e6) > 1e-12 {
		t.Fatalf("shuffle = %g", shuffle)
	}
	if math.Abs(result-2.5e-8*1000*60) > 1e-12 {
		t.Fatalf("result = %g", result)
	}
	unit := (20.0+100.0)/125e6 + 0.0008
	if math.Abs(lookup-1000.0/10*unit) > 1e-9 {
		t.Fatalf("lookup = %g", lookup)
	}
}

func TestCacheBeatsBaselineWhenRedundant(t *testing.T) {
	env := testEnv12()
	// High local redundancy → low miss ratio → cache wins.
	is := IndexStats{Nik: 1, Sik: 20, Siv: 100, Tj: 0.0008, Theta: 20, R: 0.05}
	st := opStats(1e5, is)
	if costCache(st, is, env) >= costBaseline(st, is, env) {
		t.Fatal("cache should beat baseline with R=0.05")
	}
}

func TestCacheLosesWhenNoRedundancy(t *testing.T) {
	env := testEnv12()
	is := IndexStats{Nik: 1, Sik: 20, Siv: 100, Tj: 0.0008, Theta: 1, R: 1}
	st := opStats(1e5, is)
	if costCache(st, is, env) <= costBaseline(st, is, env) {
		t.Fatal("cache should not beat baseline with R=1 (probe overhead)")
	}
}

func TestRepartWinsWithGlobalRedundancy(t *testing.T) {
	env := testEnv12()
	// Many duplicates across machines, bad cache locality.
	is := IndexStats{Nik: 1, Sik: 20, Siv: 100, Tj: 0.0008, Theta: 10, R: 0.95}
	st := opStats(1e5, is)
	repart := quotes(BodyOp, st, is, env, st.Spre)[qRepartPre].Cost()
	if repart >= costCache(st, is, env) || repart >= costBaseline(st, is, env) {
		t.Fatalf("repart (%g) should win with Θ=10, R=0.95 (base %g, cache %g)",
			repart, costBaseline(st, is, env), costCache(st, is, env))
	}
}

func TestIdxLocWinsForLargeResults(t *testing.T) {
	env := testEnv12()
	// 30KB results: remote transfer dominates; local lookups win even
	// though the main data must move.
	is := IndexStats{Nik: 1, Sik: 20, Siv: 30000, Tj: 0.0002, Theta: 2, R: 1}
	st := opStats(1e5, is)
	st.Spre = 60
	list := quotes(BodyOp, st, is, env, st.Spre)
	repart, idxloc := list[qRepartPre].Cost(), list[qIdxLoc].Cost()
	if idxloc >= repart {
		t.Fatalf("idxloc (%g) should beat repart (%g) at 30KB results", idxloc, repart)
	}
	// And the opposite for tiny results.
	is.Siv = 10
	list = quotes(BodyOp, st, is, env, st.Spre)
	repart, idxloc = list[qRepartPre].Cost(), list[qIdxLoc].Cost()
	if idxloc <= repart {
		t.Fatalf("idxloc (%g) should lose to repart (%g) at 10B results", idxloc, repart)
	}
}

func TestBoundaryChoice(t *testing.T) {
	// One lookup lane factor and a positive f: the three re-partitioning
	// candidates differ by their materialized size alone, so the cheapest
	// is the smallest, and so many duplicates that re-partitioning wins.
	env := testEnv12()
	choose := func(pos OpPosition, st *OperatorStats, is IndexStats, spreEff float64) (Boundary, float64) {
		list := quotes(pos, st, is, env, spreEff)
		q := cheapest(list[:], true, true)
		if q.Strategy != Repartition {
			t.Fatalf("fixture should re-partition, got %v", q)
		}
		return q.Boundary, q.SMin
	}
	is := IndexStats{Nik: 1, Sik: 20, Siv: 180, Tj: 0.0008, Theta: 1000, R: 1}
	st := &OperatorStats{N1: 1e5, Spre: 100, Spost: 50, Smap: 500}
	b, size := choose(BodyOp, st, is, 100)
	if b != BoundaryLate || size != 50 {
		t.Fatalf("body op with small Spost should pick late: got %v/%g", b, size)
	}
	b, size = choose(HeadOp, st, is, 100)
	if b != BoundaryPre || size != 100 {
		t.Fatalf("head op with big Smap should pick pre: got %v/%g", b, size)
	}
	// A carrier that shrinks at the lookup can only be stated with a
	// negative result size; what is checked is the choice by size.
	is.Sik, is.Siv = 0, -310
	b, size = choose(HeadOp, &OperatorStats{N1: 1e5, Spre: 400, Spost: 600, Smap: 600}, is, 400)
	if b != BoundaryIdx || size != 90 {
		t.Fatalf("small Sidx should pick idx boundary, got %v/%g", b, size)
	}
	// Equal sizes: the earlier boundary (less work in the reduce).
	is.Sik, is.Siv = 0, 0
	if b, _ = choose(BodyOp, &OperatorStats{N1: 1e5, Spre: 70, Spost: 70}, is, 70); b != BoundaryPre {
		t.Fatalf("equal sizes should pick the earliest boundary, got %v", b)
	}
}

// TestPermutationsCount: kPermutations(m, m) is FullEnumerate's every
// order of [0, m), each once, in lexicographic order — the sequence a
// plan's tie-break between equal costs depends on.
func TestPermutationsCount(t *testing.T) {
	if got := len(kPermutations(1, 1)); got != 1 {
		t.Fatalf("1! = %d", got)
	}
	if got := len(kPermutations(3, 3)); got != 6 {
		t.Fatalf("3! = %d", got)
	}
	if got := len(kPermutations(5, 5)); got != 120 {
		t.Fatalf("5! = %d", got)
	}
	orders := kPermutations(4, 4)
	if len(orders) != 24 {
		t.Fatalf("4! = %d", len(orders))
	}
	for i := 1; i < len(orders); i++ {
		if slices.Compare(orders[i-1], orders[i]) >= 0 {
			t.Fatalf("order %v follows %v: not strictly lexicographic (a duplicate, or a changed tie-break)", orders[i], orders[i-1])
		}
	}
}

func TestKPermutationsCount(t *testing.T) {
	// P(m,k) = m·(m-1)·…·(m-k+1)
	if got := len(kPermutations(6, 2)); got != 30 {
		t.Fatalf("P(6,2) = %d, want 30", got)
	}
	if got := len(kPermutations(6, 1)); got != 6 {
		t.Fatalf("P(6,1) = %d, want 6", got)
	}
	// k >= m falls back to full enumeration.
	if got := len(kPermutations(3, 5)); got != 6 {
		t.Fatalf("kPermutations(3,5) = %d, want 3! = 6", got)
	}
	// Every order is a full order over m indices.
	for _, o := range kPermutations(5, 2) {
		if len(o) != 5 {
			t.Fatalf("k-permutation order %v incomplete", o)
		}
	}
}

// planIdx is a minimal accessor with a partition scheme for planner tests.
type planIdx struct {
	fakeAccessor
	scheme *index.Scheme
}

func (p planIdx) Scheme() *index.Scheme { return p.scheme }

func schemeOf(n int) *index.Scheme {
	hosts := make([][]sim.NodeID, n)
	for i := range hosts {
		hosts[i] = []sim.NodeID{sim.NodeID(i % 12)}
	}
	return &index.Scheme{Partitions: n, Fn: func(string) int { return 0 }, Hosts: hosts}
}

func TestOptimizeOperatorNilStatsBaseline(t *testing.T) {
	op := NewOperator("o", nil, nil).AddIndex(fakeAccessor{name: "ix"})
	p := OptimizeOperator(op, HeadOp, nil, testEnv12(), DefaultPlannerOptions())
	if len(p.Decisions) != 1 || p.Decisions[0].Strategy != Baseline {
		t.Fatalf("no stats should yield baseline, got %v", p)
	}
}

func TestOptimizeOperatorPicksCache(t *testing.T) {
	op := NewOperator("o", nil, nil).AddIndex(fakeAccessor{name: "ix"})
	is := IndexStats{Nik: 1, Sik: 20, Siv: 100, Tj: 0.0008, Theta: 1.05, R: 0.05}
	st := opStats(1e5, is)
	p := OptimizeOperator(op, HeadOp, st, testEnv12(), DefaultPlannerOptions())
	if p.Decisions[0].Strategy != LookupCache {
		t.Fatalf("want cache, got %v", p)
	}
}

func TestOptimizeOperatorPicksRepart(t *testing.T) {
	op := NewOperator("o", nil, nil).AddIndex(fakeAccessor{name: "ix"})
	is := IndexStats{Nik: 1, Sik: 20, Siv: 100, Tj: 0.0008, Theta: 10, R: 0.95}
	st := opStats(1e5, is)
	p := OptimizeOperator(op, BodyOp, st, testEnv12(), DefaultPlannerOptions())
	if p.Decisions[0].Strategy != Repartition {
		t.Fatalf("want repart, got %v", p)
	}
}

func TestOptimizeOperatorPicksIdxLocForBigResults(t *testing.T) {
	op := NewOperator("o", nil, nil).AddIndex(planIdx{fakeAccessor{name: "ix"}, schemeOf(32)})
	is := IndexStats{Nik: 1, Sik: 20, Siv: 30000, Tj: 0.0002, Theta: 2, R: 1}
	st := opStats(1e5, is)
	st.Sidx = 30060
	p := OptimizeOperator(op, BodyOp, st, testEnv12(), DefaultPlannerOptions())
	if p.Decisions[0].Strategy != IndexLocality {
		t.Fatalf("want idxloc for 30KB results, got %v", p)
	}
}

func TestOptimizeRespectsMultiKeyInfeasibility(t *testing.T) {
	op := NewOperator("o", nil, nil).AddIndex(fakeAccessor{name: "ix"})
	// Stats that would scream repart, except records carry several keys.
	is := IndexStats{Nik: 3, Sik: 20, Siv: 100, Tj: 0.0008, Theta: 10, R: 0.95, MultiKey: true}
	st := opStats(1e5, is)
	p := OptimizeOperator(op, BodyOp, st, testEnv12(), DefaultPlannerOptions())
	s := p.Decisions[0].Strategy
	if s == Repartition || s == IndexLocality {
		t.Fatalf("multi-key index must not use shuffle strategies, got %v", s)
	}
}

func TestProperty4ShufflesFirst(t *testing.T) {
	// Two indices: one repart-worthy, one cache-worthy. The plan must
	// access the repart one first regardless of AddIndex order.
	repartIs := IndexStats{Nik: 1, Sik: 20, Siv: 100, Tj: 0.0008, Theta: 10, R: 0.95}
	cacheIs := IndexStats{Nik: 1, Sik: 10, Siv: 50, Tj: 0.0005, Theta: 20, R: 0.02}
	st := &OperatorStats{
		N1: 1e5, Records: 12e5, S1: 100, Spre: 60, Sidx: 200, Spost: 80,
		Index: map[string]IndexStats{"hot": repartIs, "cached": cacheIs},
	}
	op := NewOperator("o", nil, nil).
		AddIndex(fakeAccessor{name: "cached"}).
		AddIndex(fakeAccessor{name: "hot"})
	p := OptimizeOperator(op, BodyOp, st, testEnv12(), DefaultPlannerOptions())
	if len(p.Decisions) != 2 {
		t.Fatalf("decisions = %v", p.Decisions)
	}
	sawInline := false
	for _, d := range p.Decisions {
		isShuffle := d.Strategy == Repartition || d.Strategy == IndexLocality
		if isShuffle && sawInline {
			t.Fatalf("Property 4 violated: %v", p)
		}
		if !isShuffle {
			sawInline = true
		}
	}
	// The repart-worthy index should indeed be repartitioned and first.
	first := p.Op.Indices()[p.Decisions[0].Index].Name()
	if p.Decisions[0].Strategy != Repartition || first != "hot" {
		t.Fatalf("want hot[repart] first, got %v", p)
	}
}

func TestPlanCostMatchesOptimizerCost(t *testing.T) {
	op := NewOperator("o", nil, nil).AddIndex(fakeAccessor{name: "ix"})
	is := IndexStats{Nik: 1, Sik: 20, Siv: 100, Tj: 0.0008, Theta: 10, R: 0.95}
	st := opStats(1e5, is)
	env := testEnv12()
	p := OptimizeOperator(op, BodyOp, st, env, DefaultPlannerOptions())
	if got := PlanCost(p, st, env); math.Abs(got-p.Cost) > 1e-9 {
		t.Fatalf("PlanCost %g != optimizer cost %g", got, p.Cost)
	}
}

func TestOptimizedNeverWorseThanFixedStrategies(t *testing.T) {
	// Over a grid of stats, the optimizer's plan must cost no more than
	// any uniform strategy (it can always pick that strategy itself).
	env := testEnv12()
	op := NewOperator("o", nil, nil).AddIndex(planIdx{fakeAccessor{name: "ix"}, schemeOf(16)})
	for _, theta := range []float64{1, 2, 10, 100} {
		for _, r := range []float64{0.01, 0.5, 1} {
			for _, siv := range []float64{10, 1000, 30000} {
				is := IndexStats{Nik: 1, Sik: 20, Siv: siv, Tj: 0.0008, Theta: theta, R: r}
				st := opStats(1e5, is)
				p := OptimizeOperator(op, BodyOp, st, env, DefaultPlannerOptions())
				for _, alt := range []float64{
					costBaseline(st, is, env),
					costCache(st, is, env),
				} {
					if p.Cost > alt+1e-9 {
						t.Fatalf("theta=%g r=%g siv=%g: plan cost %g worse than fixed %g (%v)",
							theta, r, siv, p.Cost, alt, p)
					}
				}
			}
		}
	}
}

func TestMaxRelStdDev(t *testing.T) {
	if got := maxRelStdDev([]float64{5, 5, 5}, 1); got != 0 {
		t.Fatalf("uniform samples should have zero variance, got %g", got)
	}
	if got := maxRelStdDev([]float64{1, 9}, 1); got < 1 {
		t.Fatalf("spread samples should have high rel stddev, got %g", got)
	}
	// The worst of the statistics counts: the first is uniform, the second spread.
	if got := maxRelStdDev([]float64{5, 1, 5, 9}, 2); got < 1 {
		t.Fatalf("one spread statistic of two should have high rel stddev, got %g", got)
	}
	if got := maxRelStdDev([]float64{1}, 1); !math.IsInf(got, 1) {
		t.Fatalf("single sample should be infinite variance, got %g", got)
	}
}

func TestStrategyAndBoundaryStrings(t *testing.T) {
	if Baseline.String() != "baseline" || LookupCache.String() != "cache" ||
		Repartition.String() != "repart" || IndexLocality.String() != "idxloc" {
		t.Fatal("strategy names changed")
	}
	if BoundaryPre.String() != "pre" || BoundaryIdx.String() != "idx" || BoundaryLate.String() != "late" {
		t.Fatal("boundary names changed")
	}
	if HeadOp.String() != "head" || BodyOp.String() != "body" || TailOp.String() != "tail" {
		t.Fatal("position names changed")
	}
}

// TestOptimizeOperatorAllocs holds enumeration to the allocations it made
// before the cost model became one price list (measured on that code: 10
// for a partitioned and a plain index at a body operator, 14 when the
// first is buildable at a head operator, where each order also asks the
// accessor for its offered splits): pricing returns a fixed-size array and
// resolves an accessor's facts once, so it must not add any.
func TestOptimizeOperatorAllocs(t *testing.T) {
	env := testEnv12()
	env.JobOverhead, env.LaneFactor = 0.02, 2
	hot := IndexStats{Nik: 1, Sik: 20, Siv: 100, Tj: 0.0008, Theta: 10, R: 0.95}
	cold := IndexStats{Nik: 1, Sik: 10, Siv: 50, Tj: 0.0005, Theta: 20, R: 0.02}
	st := &OperatorStats{
		N1: 1e5, Records: 12e5, S1: 100, Spre: 60, Sidx: 200, Spost: 80,
		Index: map[string]IndexStats{"hot": hot, "cold": cold},
	}
	_, fb := buildStats()
	fb.name = "hot"
	var sink OperatorPlan
	for _, tc := range []struct {
		name  string
		first index.Accessor
		pos   OpPosition
		want  string
		max   float64
	}{
		{"partitioned+plain", planIdx{fakeAccessor{name: "hot"}, schemeOf(16)}, BodyOp, "hot[repart/pre] cold[cache]", 10},
		{"buildable+plain", fb, HeadOp, "hot[build] cold[cache]", 14},
	} {
		op := NewOperator("o", nil, nil).AddIndex(tc.first).AddIndex(fakeAccessor{name: "cold"})
		got := testing.AllocsPerRun(200, func() {
			sink = OptimizeOperator(op, tc.pos, st, env, DefaultPlannerOptions())
		})
		if sink.String() != tc.want {
			t.Fatalf("%s: plan %v, want %s", tc.name, sink, tc.want)
		}
		if got > tc.max {
			t.Errorf("%s: OptimizeOperator allocates %.0f times, want at most %.0f", tc.name, got, tc.max)
		}
	}
}
