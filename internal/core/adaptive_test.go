package core

import (
	"fmt"
	"strings"
	"testing"

	"efind/internal/dfs"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// newAdaptiveE2E builds an environment whose input is large enough for
// several map waves, with uniform per-chunk statistics (low variance) and
// heavy global key redundancy so re-optimization fires.
func newAdaptiveE2E(t *testing.T, records, distinctKeys int) *e2eEnv {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Nodes = 4
	cfg.MapSlotsPerNode = 2 // 8 map slots → waves of 8 splits
	cfg.ReduceSlotsPerNode = 1
	cfg.TaskStartup = 0.01
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 2 << 10
	engine := mapreduce.New(cluster, fs)
	rt := NewRuntime(engine)

	store := kvstore.NewHash(cluster, "kv", 16, 3, 0.002)
	for i := 0; i < distinctKeys; i++ {
		store.Put(fmt.Sprintf("ik%04d", i), fmt.Sprintf("value-for-%04d", i))
	}
	recs := make([]dfs.Record, records)
	for i := range recs {
		// Interleave keys so every chunk sees the same key distribution
		// (low variance across tasks) while duplicates spread globally.
		ik := fmt.Sprintf("ik%04d", i%distinctKeys)
		recs[i] = dfs.Record{Key: fmt.Sprintf("r%05d", i), Value: "payload " + ik}
	}
	input, err := fs.Create("input", recs)
	if err != nil {
		t.Fatal(err)
	}
	waves := (len(input.Chunks) + cluster.MapSlots() - 1) / cluster.MapSlots()
	if waves < 2 {
		t.Fatalf("adaptive test needs ≥2 map waves, got %d (%d chunks)", waves, len(input.Chunks))
	}
	return &e2eEnv{cluster: cluster, fs: fs, rt: rt, store: store, input: input}
}

func TestDynamicReplansAtMapPhase(t *testing.T) {
	e := newAdaptiveE2E(t, 4000, 40) // Θ = 100, slow index → repart-worthy
	op := e.lookupOp("op-dyn")
	conf := e.conf("job-dyn", ModeDynamic, op, headPlace)
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replanned {
		t.Fatalf("dynamic job should have replanned (plan %v)", res.Plan)
	}
	if res.ReplanPhase != "map" {
		t.Fatalf("replan phase = %q, want map", res.ReplanPhase)
	}
	d := res.Plan.Head[0].Decisions[0]
	if d.Strategy == Baseline {
		t.Fatalf("new plan still baseline: %v", res.Plan)
	}
	if res.Output.Records() != 4000 {
		t.Fatalf("dynamic output has %d records, want 4000", res.Output.Records())
	}
}

func TestDynamicOutputMatchesBaseline(t *testing.T) {
	e := newAdaptiveE2E(t, 3000, 30)
	opB := e.lookupOp("op-cmp-base")
	base, err := e.rt.Submit(e.conf("job-cmp-base", ModeBaseline, opB, headPlace))
	if err != nil {
		t.Fatal(err)
	}
	opD := e.lookupOp("op-cmp-dyn")
	dyn, err := e.rt.Submit(e.conf("job-cmp-dyn", ModeDynamic, opD, headPlace))
	if err != nil {
		t.Fatal(err)
	}
	sameOutput(t, "dynamic-vs-baseline", sortedOutput(base.Output), sortedOutput(dyn.Output))
}

func TestDynamicBeatsBaselineUnderRedundancy(t *testing.T) {
	e := newAdaptiveE2E(t, 6000, 40)
	opB := e.lookupOp("op-t-base")
	base, err := e.rt.Submit(e.conf("job-t-base", ModeBaseline, opB, headPlace))
	if err != nil {
		t.Fatal(err)
	}
	opD := e.lookupOp("op-t-dyn")
	dyn, err := e.rt.Submit(e.conf("job-t-dyn", ModeDynamic, opD, headPlace))
	if err != nil {
		t.Fatal(err)
	}
	if !dyn.Replanned {
		t.Fatal("expected a replan")
	}
	if dyn.VTime >= base.VTime {
		t.Fatalf("dynamic (%g) should beat baseline (%g) under heavy redundancy", dyn.VTime, base.VTime)
	}
}

func TestDynamicSticksWithBaselineWhenOptimal(t *testing.T) {
	// All keys distinct, tiny results, fast index: baseline IS the optimal
	// plan, so no replan should happen.
	e := newAdaptiveE2E(t, 3000, 3000)
	// Make lookups cheap so no alternative wins.
	store := kvstore.NewHash(e.cluster, "kv-fast", 16, 3, 1e-7)
	for i := 0; i < 3000; i++ {
		store.Put(fmt.Sprintf("ik%04d", i), "x")
	}
	op := NewOperator("op-stay",
		func(in Pair) PreResult {
			fields := strings.Fields(in.Value)
			return PreResult{Pair: in, Keys: [][]string{{fields[len(fields)-1]}}}
		}, nil)
	op.AddIndex(store)
	conf := e.conf("job-stay", ModeDynamic, op, headPlace)
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replanned {
		t.Fatalf("no replan expected for a baseline-optimal job, got %v", res.Plan)
	}
	if res.Output.Records() != 3000 {
		t.Fatalf("records = %d", res.Output.Records())
	}
}

func TestDynamicHighVarianceBlocksReplan(t *testing.T) {
	// Skewed input: some chunks have all-duplicate keys, others all
	// distinct → per-task statistics vary wildly → Algorithm 1 refuses.
	cfg := sim.DefaultConfig()
	cfg.Nodes = 4
	cfg.MapSlotsPerNode = 2
	cfg.ReduceSlotsPerNode = 1
	cfg.TaskStartup = 0.01
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 2 << 10
	rt := NewRuntime(mapreduce.New(cluster, fs))
	store := kvstore.NewHash(cluster, "kv", 16, 3, 0.002)
	for i := 0; i < 500; i++ {
		store.Put(fmt.Sprintf("ik%04d", i), strings.Repeat("v", 1+(i%200)*10))
	}
	recs := make([]dfs.Record, 4000)
	for i := range recs {
		var ik string
		if (i/64)%2 == 0 {
			ik = "ik0000" // hot chunk: one key
		} else {
			ik = fmt.Sprintf("ik%04d", i%500)
		}
		// Values of wildly varying sizes amplify per-task size variance.
		recs[i] = dfs.Record{Key: fmt.Sprintf("r%05d", i), Value: strings.Repeat("x", 1+(i%40)*20) + " " + ik}
	}
	input, err := fs.Create("input", recs)
	if err != nil {
		t.Fatal(err)
	}
	e := &e2eEnv{cluster: cluster, fs: fs, rt: rt, store: store, input: input}
	op := e.lookupOp("op-skew")
	conf := e.conf("job-skew", ModeDynamic, op, headPlace)
	conf.VarianceThreshold = 0.0001 // effectively require perfect stability
	res, err := rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replanned {
		t.Fatal("high variance must block re-optimization")
	}
}

func TestDynamicReplansAtReducePhase(t *testing.T) {
	// Tail operator with heavy redundancy: map phase has no operators, so
	// the change can only happen in the reduce phase.
	e := newAdaptiveE2E(t, 4000, 8)
	op := e.lookupOp("op-tail-dyn")
	conf := e.conf("job-tail-dyn", ModeDynamic, op, tailPlace)
	conf.NumReduce = 12 // 4 reduce slots → 3 reduce waves
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Records() != 4000 {
		t.Fatalf("records = %d, want 4000", res.Output.Records())
	}
	if res.Replanned && res.ReplanPhase != "reduce" {
		t.Fatalf("tail-only job replanned at %q", res.ReplanPhase)
	}
	// Output must match the baseline run regardless of whether the plan
	// changed.
	opB := e.lookupOp("op-tail-base")
	confB := e.conf("job-tail-base", ModeBaseline, opB, tailPlace)
	confB.NumReduce = 12
	base, err := e.rt.Submit(confB)
	if err != nil {
		t.Fatal(err)
	}
	sameOutput(t, "tail-dynamic", sortedOutput(base.Output), sortedOutput(res.Output))
}

func TestCollectStatsMeasuresTable1Terms(t *testing.T) {
	e := newAdaptiveE2E(t, 3000, 50)
	op := e.lookupOp("op-terms")
	conf := e.conf("job-terms", ModeBaseline, op, headPlace)
	if err := e.rt.CollectStats(conf); err != nil {
		t.Fatal(err)
	}
	st := e.rt.Catalog.Get("op-terms")
	if st == nil {
		t.Fatal("no stats collected")
	}
	if st.Records != 3000 {
		t.Fatalf("records = %d", st.Records)
	}
	if st.N1 != 3000.0/8 {
		t.Fatalf("N1 = %g, want 375 (per lookup lane: 4 nodes × 2 map slots)", st.N1)
	}
	if st.S1 <= 0 || st.Spre <= 0 || st.Sidx <= st.Spre || st.Spost <= 0 {
		t.Fatalf("size terms implausible: S1=%g Spre=%g Sidx=%g Spost=%g", st.S1, st.Spre, st.Sidx, st.Spost)
	}
	is := st.Index[e.store.Name()]
	if is.Nik != 1 {
		t.Fatalf("Nik = %g, want 1", is.Nik)
	}
	if is.Sik != 6 { // "ikNNNN"
		t.Fatalf("Sik = %g, want 6", is.Sik)
	}
	if is.Tj < 0.0019 || is.Tj > 0.0021 {
		t.Fatalf("Tj = %g, want ≈0.002", is.Tj)
	}
	// FM sketches are coarse at small cardinalities (50 distinct keys over
	// 64 stochastic-averaging vectors); the cost model only needs Θ≫1 vs
	// Θ≈1, so accept a wide band around the true 60.
	if is.Theta < 10 || is.Theta > 240 {
		t.Fatalf("Θ = %g, want within a small factor of 60 (3000/50)", is.Theta)
	}
	if is.R <= 0 || is.R > 1 {
		t.Fatalf("R = %g out of range", is.R)
	}
	if is.MultiKey {
		t.Fatal("single-key workload flagged multi-key")
	}
}

// honestPrice checks that a job plan says what it costs: every operator
// plan's Cost is the sum of its decisions' and what PlanCost finds under
// the catalog's statistics, and the job plan's Cost is the sum of those.
func honestPrice(t *testing.T, what string, rt *Runtime, plan *JobPlan) {
	t.Helper()
	total := 0.0
	for _, p := range plan.All() {
		sum := 0.0
		for _, d := range p.Decisions {
			sum += d.Cost
		}
		if st := rt.Catalog.Get(p.Op.Name()); p.Cost != sum || p.Cost != PlanCost(p, st, rt.Env) {
			t.Errorf("%s: operator %s {%v} says %g, its decisions sum to %g, PlanCost finds %g",
				what, p.Op.Name(), p, p.Cost, sum, PlanCost(p, st, rt.Env))
		}
		total += p.Cost
	}
	if plan.Cost != total {
		t.Errorf("%s: job plan says %g, its operators sum to %g", what, plan.Cost, total)
	}
}

// TestDegradedPlansKeepAnHonestPrice: demoting an index to baseline — in
// an optimized plan, and in the plan a dynamic job re-optimizes to — must
// re-price the plan. A demoted decision used to cost 0 inside a plan that
// still charged for the strategy it had lost, and the re-optimized job
// plan recorded the credit-reduced sum of its stable operators only.
func TestDegradedPlansKeepAnHonestPrice(t *testing.T) {
	e := newAdaptiveE2E(t, 4000, 40) // Θ = 100, slow index → repart-worthy
	kv2 := kvstore.NewHash(e.cluster, "kv2", 16, 3, 0.002)
	for i := 0; i < 40; i++ {
		kv2.Put(fmt.Sprintf("ik%04d", i), fmt.Sprintf("second-%04d", i))
	}
	twoIndexOp := func(name string) *Operator {
		return NewOperator(name, func(in Pair) PreResult {
			fields := strings.Fields(in.Value)
			ik := fields[len(fields)-1]
			return PreResult{Pair: in, Keys: [][]string{{ik}, {ik}}}
		}, nil).AddIndex(e.store).AddIndex(kv2)
	}

	// Statically: optimize from statistics that re-partition both indices,
	// then demote the one that goes first — the other then shuffles a
	// carrier without the demoted index's results, so its price moves too.
	conf := e.conf("job-honest", ModeOptimized, twoIndexOp("op-honest"), headPlace)
	is := IndexStats{Nik: 1, Sik: 20, Siv: 100, Tj: 0.002, Theta: 10, R: 0.95}
	e.rt.Catalog.put("op-honest", opStats(1e5, is, "kv", "kv2"))
	pr := &planRun{rt: e.rt, conf: conf}
	plan, err := pr.planFor(ModeOptimized)
	if err != nil {
		t.Fatal(err)
	}
	honestPrice(t, "optimized", e.rt, plan)
	first := plan.Head[0].Decisions[0]
	if !isShuffle(first.Strategy) || !isShuffle(plan.Head[0].Decisions[1].Strategy) {
		t.Fatalf("fixture should re-partition both indices, got %v", plan)
	}
	demoted, other := plan.Head[0].Op.Indices()[first.Index].Name(), plan.Head[0].Decisions[1]
	pr.degrade("op-honest", demoted)
	plan, err = pr.planFor(ModeOptimized)
	if err != nil {
		t.Fatal(err)
	}
	honestPrice(t, "optimized, "+demoted+" demoted", e.rt, plan)
	last := plan.Head[0].Decisions[1]
	if last.Index != first.Index || last.Strategy != Baseline || last.Cost != 1e5*((20.0+100.0)/e.rt.Env.BW+0.002) {
		t.Fatalf("%s should run baseline, after the shuffle, at formula (1)'s price; got %v with decision %+v", demoted, plan, last)
	}
	if moved := plan.Head[0].Decisions[0]; moved.Index != other.Index || moved.Cost >= other.Cost {
		t.Fatalf("the shuffle now carries less and should cost less than %g; got %+v", other.Cost, moved)
	}

	// Dynamically: the first wave runs the baseline plan, and the plan it
	// is re-optimized to holds the same demotion.
	dyn := e.conf("job-honest-dyn", ModeDynamic, twoIndexOp("op-honest-dyn"), headPlace)
	dyn.VarianceThreshold = 0.9
	if err := dyn.validate(e.rt); err != nil {
		t.Fatal(err)
	}
	pr = &planRun{rt: e.rt, run: e.rt.Engine.NewRun(), conf: dyn, res: &JobResult{Counters: map[string]int64{}}}
	pr.degrade("op-honest-dyn", demoted)
	cur, err := pr.planFor(ModeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	co, err := pr.compile(cur)
	if err != nil {
		t.Fatal(err)
	}
	wave, err := pr.run.RunMapPhase(co.engineJob(dyn, 0, dyn.Input), seq(0, e.cluster.MapSlots()))
	if err != nil {
		t.Fatal(err)
	}
	replanned, improved := pr.reoptimize(cur, dyn.head, wave.Stats, true)
	if !improved {
		t.Fatal("fixture should re-optimize: the index left to the planner has a better strategy than baseline")
	}
	honestPrice(t, "re-optimized, "+demoted+" demoted", e.rt, replanned)
	if s := replanned.String(); strings.Count(s, "[baseline]") != 1 || !strings.Contains(s, demoted+"[baseline]") {
		t.Fatalf("re-optimized plan %s should hold %s, and nothing else, at baseline", s, demoted)
	}
}
