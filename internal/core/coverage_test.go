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

// TestDynamicMapOnlyNoReplan: an adaptive map-only job (no Reducer) that
// keeps its plan still merges first-wave and remaining map outputs into a
// complete output file.
func TestDynamicMapOnlyNoReplan(t *testing.T) {
	e := newAdaptiveE2E(t, 3000, 30)
	// Record sizes that change every 100 records: the first wave's tasks
	// measure statistics ≈ 0.37 stddev/mean apart, and a 0.01 variance
	// threshold refuses to replan (at 10 the job replans).
	recs := make([]dfs.Record, 3000)
	for i := range recs {
		pad := strings.Repeat("x", 1+(i/100)%4*20)
		recs[i] = dfs.Record{Key: fmt.Sprintf("r%05d", i), Value: fmt.Sprintf("%s ik%04d", pad, i%30)}
	}
	input, err := e.fs.Create("input-sized", recs)
	if err != nil {
		t.Fatal(err)
	}
	op := e.lookupOp("mo-stay")
	conf := &IndexJobConf{Name: "maponly-stay", Input: input, Mode: ModeDynamic, VarianceThreshold: 0.01}
	conf.AddHeadIndexOperator(op)
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replanned {
		t.Fatal("the variance gate refused, yet the job replanned")
	}
	if res.Output.Records() != 3000 {
		t.Fatalf("map-only dynamic output = %d records", res.Output.Records())
	}
}

// TestDynamicMapOnlyWithReplan: the same job with replanning allowed and
// strong redundancy changes plan mid-map and still produces every record.
func TestDynamicMapOnlyWithReplan(t *testing.T) {
	e := newAdaptiveE2E(t, 4000, 20) // Θ=200, Tj=2ms: very repart/cache-friendly
	op := e.lookupOp("mo-replan")
	conf := &IndexJobConf{Name: "maponly-replan", Input: e.input, Mode: ModeDynamic}
	conf.AddHeadIndexOperator(op)
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replanned || res.ReplanPhase != "map" {
		t.Fatalf("expected a map-phase replan, got %+v (plan %v)", res.Replanned, res.Plan)
	}
	if res.Output.Records() != 4000 {
		t.Fatalf("map-only replan output = %d records", res.Output.Records())
	}
	// Compare with baseline content.
	opB := e.lookupOp("mo-base")
	confB := &IndexJobConf{Name: "maponly-base", Input: e.input, Mode: ModeBaseline}
	confB.AddHeadIndexOperator(opB)
	base, err := e.rt.Submit(confB)
	if err != nil {
		t.Fatal(err)
	}
	sameOutput(t, "map-only-replan", sortedOutput(base.Output), sortedOutput(res.Output))
}

// TestReducePhaseReplanForced builds a job that must replan in the reduce
// phase: no pre-reduce operators, a tail operator with huge redundancy and
// expensive lookups, several reduce waves, and a permissive variance gate.
func TestReducePhaseReplanForced(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = 4
	cfg.MapSlotsPerNode = 2
	cfg.ReduceSlotsPerNode = 1 // 4 reduce slots
	cfg.TaskStartup = 0.001
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 2 << 10
	rt := NewRuntime(mapreduce.New(cluster, fs))

	store := kvstore.NewHash(cluster, "kv", 16, 3, 0.005)
	for i := 0; i < 6; i++ {
		store.Put(fmt.Sprintf("ik%04d", i), fmt.Sprintf("value-%04d", i))
	}
	recs := make([]dfs.Record, 4000)
	for i := range recs {
		recs[i] = dfs.Record{Key: fmt.Sprintf("r%05d", i), Value: "payload " + fmt.Sprintf("ik%04d", i%6)}
	}
	input, err := fs.Create("input", recs)
	if err != nil {
		t.Fatal(err)
	}

	op := NewOperator("tail-heavy",
		func(in Pair) PreResult {
			fields := strings.Fields(in.Value)
			return PreResult{Pair: in, Keys: [][]string{{fields[len(fields)-1]}}}
		}, nil)
	op.AddIndex(store)
	conf := &IndexJobConf{
		Name:              "force-reduce-replan",
		Input:             input,
		Mode:              ModeDynamic,
		NumReduce:         12, // 3 reduce waves on 4 slots
		Reducer:           mapreduce.IdentityReduce,
		VarianceThreshold: 0.9,
	}
	conf.AddTailIndexOperator(op)

	res, err := rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replanned || res.ReplanPhase != "reduce" {
		t.Fatalf("expected a reduce-phase replan, got replanned=%v phase=%q plan=%v",
			res.Replanned, res.ReplanPhase, res.Plan)
	}
	if res.Output.Records() != 4000 {
		t.Fatalf("output = %d records, want 4000", res.Output.Records())
	}
	// Verify content against the baseline.
	opB := NewOperator("tail-heavy-b", op.pre, op.post)
	opB.AddIndex(store)
	confB := &IndexJobConf{Name: "base-reduce", Input: input, Mode: ModeBaseline,
		NumReduce: 12, Reducer: mapreduce.IdentityReduce}
	confB.AddTailIndexOperator(opB)
	base, err := rt.Submit(confB)
	if err != nil {
		t.Fatal(err)
	}
	sameOutput(t, "reduce-replan", sortedOutput(base.Output), sortedOutput(res.Output))
}

// TestCombinerThroughEFind: the Combiner field of IndexJobConf reaches
// the compiled main job and keeps results identical.
func TestCombinerThroughEFind(t *testing.T) {
	run := func(withCombiner bool) []string {
		e := newE2E(t, 600, 12)
		op := e.lookupOp(fmt.Sprintf("cmb-%v", withCombiner))
		conf := &IndexJobConf{
			Name:      fmt.Sprintf("job-cmb-%v", withCombiner),
			Input:     e.input,
			Mode:      ModeBaseline,
			NumReduce: 4,
			Mapper: func(_ *mapreduce.TaskContext, in Pair, emit Emit) {
				// Count records per looked-up value.
				fields := strings.Fields(in.Value)
				emit(Pair{Key: fields[len(fields)-1], Value: "1"})
			},
			Reducer: func(_ *mapreduce.TaskContext, key string, values []string, emit Emit) {
				total := 0
				for _, v := range values {
					n := 0
					fmt.Sscanf(v, "%d", &n)
					total += n
				}
				emit(Pair{Key: key, Value: fmt.Sprintf("%d", total)})
			},
		}
		if withCombiner {
			conf.Combiner = func(_ *mapreduce.TaskContext, key string, values []string, emit Emit) {
				total := 0
				for _, v := range values {
					n := 0
					fmt.Sscanf(v, "%d", &n)
					total += n
				}
				emit(Pair{Key: key, Value: fmt.Sprintf("%d", total)})
			}
		}
		conf.AddHeadIndexOperator(op)
		res, err := e.rt.Submit(conf)
		if err != nil {
			t.Fatal(err)
		}
		return sortedOutput(res.Output)
	}
	plain := run(false)
	combined := run(true)
	sameOutput(t, "efind-combiner", plain, combined)
}

// TestEFindSurvivesTaskFailures injects task failures under every mode
// and demands identical output: re-execution, plan changes, and shuffle
// jobs must all compose with MapReduce's fault tolerance.
func TestEFindSurvivesTaskFailures(t *testing.T) {
	var want []string
	for _, mode := range []Mode{ModeBaseline, ModeCache, ModeDynamic} {
		e := newE2E(t, 800, 25)
		op := e.lookupOp(fmt.Sprintf("ft-%v", mode))
		conf := e.conf(fmt.Sprintf("job-ft-%v", mode), mode, op, headPlace)
		conf.FaultInjector = func(kind mapreduce.TaskKind, task, attempt int) bool {
			return task%4 == 1 && attempt == 1 // first attempt of every 4th task fails
		}
		res, err := e.rt.Submit(conf)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Counters[mapreduce.CounterTaskRetries] == 0 {
			t.Fatalf("%v: no retries recorded", mode)
		}
		got := sortedOutput(res.Output)
		if want == nil {
			want = got
			if len(want) != 800 {
				t.Fatalf("%v: %d records", mode, len(want))
			}
			continue
		}
		sameOutput(t, mode.String(), want, got)
	}
}

func TestExplainCostsListsAllStrategies(t *testing.T) {
	env := testEnv12()
	is := IndexStats{Nik: 1, Sik: 20, Siv: 1024, Tj: 0.0008, Theta: 4, R: 0.8}
	st := opStats(1e4, is)
	f := IndexFacts{Stats: is}
	list, _, _ := WhatIf(BodyOp, st, f, env, DefaultPlannerOptions())
	lines := ExplainCosts(list, f)
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"baseline", "cache", "repart/pre", "repart/idx", "repart/late", "idxloc"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("ExplainCosts missing %q:\n%s", want, joined)
		}
	}
}

// TestCustomPlanOrdersShufflesFirst: ModeCustom with mixed forced
// strategies must place shuffle-strategy indices first (Property 4),
// regardless of AddIndex order.
func TestCustomPlanOrdersShufflesFirst(t *testing.T) {
	e := newE2E(t, 10, 5)
	store2 := kvstore.NewHash(e.cluster, "kv2", 8, 3, 0)
	store2.Put("ik0000", "x")
	op := NewOperator("mixed",
		func(in Pair) PreResult {
			fields := strings.Fields(in.Value)
			ik := fields[len(fields)-1]
			return PreResult{Pair: in, Keys: [][]string{{ik}, {ik}}}
		}, nil)
	op.AddIndex(e.store) // index 0: forced cache
	op.AddIndex(store2)  // index 1: forced repart
	conf := e.conf("job-mixed", ModeCustom, op, headPlace)
	conf.ForceStrategy("mixed", e.store.Name(), LookupCache)
	conf.ForceStrategy("mixed", "kv2", Repartition)

	plan, err := (&planRun{rt: e.rt, conf: conf}).planFor(conf.Mode)
	if err != nil {
		t.Fatal(err)
	}
	d := plan.Head[0].Decisions
	if len(d) != 2 || d[0].Strategy != Repartition || d[1].Strategy != LookupCache {
		t.Fatalf("custom plan order wrong: %v", plan.Head[0])
	}
	if d[0].Index != 1 || d[1].Index != 0 {
		t.Fatalf("decision indices wrong: %+v", d)
	}
	// The plan also renders readably.
	s := plan.String()
	if !strings.Contains(s, "kv2[repart") || !strings.Contains(s, "kv[cache]") {
		t.Fatalf("plan string = %q", s)
	}
	// And executes correctly.
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Records() != 10 {
		t.Fatalf("records = %d", res.Output.Records())
	}
}

func TestCatalogIntrospection(t *testing.T) {
	c := NewCatalog()
	if got := c.Operators(); len(got) != 0 {
		t.Fatalf("fresh catalog operators = %v", got)
	}
	c.put("b-op", &OperatorStats{})
	c.put("a-op", &OperatorStats{})
	got := c.Operators()
	if len(got) != 2 || got[0] != "a-op" || got[1] != "b-op" {
		t.Fatalf("operators = %v, want sorted [a-op b-op]", got)
	}
}

func TestModeStrings(t *testing.T) {
	cases := map[Mode]string{
		ModeBaseline:  "baseline",
		ModeCache:     "cache",
		ModeCustom:    "custom",
		ModeOptimized: "optimized",
		ModeDynamic:   "dynamic",
		Mode(99):      "mode(99)",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if Strategy(42).String() == "" || Boundary(42).String() == "" {
		t.Fatal("unknown enum strings should not be empty")
	}
}
