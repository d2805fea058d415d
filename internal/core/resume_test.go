package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"efind/internal/chaos"
	"efind/internal/dfs"
	"efind/internal/fstore"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// headOutageConf is the standard job of the resume tests: a head operator,
// so index accesses — and an outage's failures — happen in the map phase.
func headOutageConf(e *e2eEnv, name string, mode Mode, plan *chaos.Plan) *IndexJobConf {
	conf := e.conf(name, mode, e.lookupOp(name+"-op"), headPlace)
	conf.ErrorPolicy = ErrorFailJob
	conf.Retry = RetryPolicy{Max: 2, Backoff: 0.001, Factor: 2}
	conf.Chaos = plan
	return conf
}

func kvOutage(from, until float64) *chaos.Plan {
	return chaos.MustNew(chaos.Config{
		Outages: []chaos.Outage{{Index: "kv", Partition: -1, From: from, Until: until}},
	}, 6)
}

// wantFiles checks the DFS namespace holds exactly the given files.
func wantFiles(t *testing.T, e *e2eEnv, names ...string) {
	t.Helper()
	sort.Strings(names)
	if got := e.fs.List(); !reflect.DeepEqual(got, names) {
		t.Fatalf("files in the namespace = %v, want %v", got, names)
	}
}

// orderedOutput renders an output file record by record in file order —
// the bit-identity check, where sortedOutput only compares content.
func orderedOutput(f *dfs.File) []string {
	var out []string
	for _, r := range f.All() {
		out = append(out, r.Key+" :: "+r.Value)
	}
	return out
}

// TestResumeAfterMapPhaseOutage: an outage in the middle of a four-wave
// map phase fails the second wave of a cache-strategy job. The runtime
// demotes the index to baseline and resumes: the completed first-wave
// splits are kept, only the rest re-run, and the output is that of a
// fault-free run — under both executors, with identical results.
func TestResumeAfterMapPhaseOutage(t *testing.T) {
	const records, keys = 3000, 25
	clean := func() *JobResult {
		e := newE2E(t, records, keys)
		if n := len(e.input.Chunks); n != 41 {
			t.Fatalf("input has %d splits, want 41 (four map waves on 12 slots)", n)
		}
		res, err := e.rt.Submit(headOutageConf(e, "resume-clean", ModeCache, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got := e.store.Lookups(); got != 150 {
			t.Fatalf("clean cache run made %d lookups, want 150", got)
		}
		return res
	}()
	mapSpan := clean.raw[0].MapPhase.Makespan

	run := func(parallelism int) *JobResult {
		e := parE2E(t, parallelism, records, keys)
		res, err := e.rt.Submit(headOutageConf(e, "resume", ModeCache, kvOutage(0.3*mapSpan, 0.4*mapSpan)))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Counters[chaos.CtrReoptFailure]; got != 1 {
			t.Fatalf("failure-triggered re-optimizations = %d, want 1", got)
		}
		if got := res.Plan.String(); got != "head/resume-op{kv[baseline]}" {
			t.Fatalf("final plan = %s, want the demoted baseline plan", got)
		}
		if res.JobsRun != 1 || res.Replanned {
			t.Fatalf("resumed job reports JobsRun=%d Replanned=%v, want 1 and false", res.JobsRun, res.Replanned)
		}
		// A full baseline re-run costs one lookup per record (3,000); the
		// resume pays only for the splits that had not completed.
		if got := e.store.Lookups(); got != 594 {
			t.Fatalf("resumed run made %d lookups, want 594 (completed splits must not re-execute)", got)
		}
		if !reflect.DeepEqual(orderedOutput(clean.Output), orderedOutput(res.Output)) {
			t.Fatal("resumed output is not bit-identical to the fault-free run")
		}
		return res
	}
	serial, parallel := run(1), run(4)
	if serial.VTime != parallel.VTime {
		t.Fatalf("resumed makespan diverged: serial %g vs parallel %g", serial.VTime, parallel.VTime)
	}
	if !reflect.DeepEqual(serial.Counters, parallel.Counters) {
		t.Fatal("resumed counters diverged between executors")
	}
}

// TestResumeMergesNonPrefixCompletedSplits: a failed phase may have
// completed any subset of its splits, not only a first-wave prefix. The
// resume runs exactly the others and merges by split number, so the output
// is bit-identical to one uninterrupted phase.
func TestResumeMergesNonPrefixCompletedSplits(t *testing.T) {
	e := newE2E(t, 440, 25)
	n := len(e.input.Chunks)
	if n != 6 {
		t.Fatalf("input has %d splits, want 6", n)
	}
	clean, err := e.rt.Submit(e.conf("merge-clean", ModeBaseline, e.lookupOp("merge-clean-op"), headPlace))
	if err != nil {
		t.Fatal(err)
	}

	conf := e.conf("merge", ModeBaseline, e.lookupOp("merge-op"), headPlace)
	if err := conf.validate(e.rt); err != nil {
		t.Fatal(err)
	}
	pr := &planRun{rt: e.rt, run: e.rt.Engine.NewRun(), conf: conf, res: &JobResult{}}
	plan, err := pr.planFor(conf.Mode)
	if err != nil {
		t.Fatal(err)
	}
	co, err := pr.compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	failed, err := pr.run.RunMapPhase(co.engineJob(conf, 0, conf.Input), nil)
	if err != nil {
		t.Fatal(err)
	}
	completed := map[int]bool{0: true, 2: true, 5: true}
	missingRecords := 0
	for split := range failed.Outputs {
		if !completed[split] {
			failed.Outputs[split] = nil
			recs, err := e.input.Chunks[split].Records()
			if err != nil {
				t.Fatal(err)
			}
			missingRecords += len(recs)
		}
	}

	e.store.ResetStats()
	if err := pr.attempt(failed); err != nil {
		t.Fatal(err)
	}
	if got := e.store.Lookups(); got != int64(missingRecords) {
		t.Fatalf("resume made %d lookups, want %d: one per record of the three unfinished splits", got, missingRecords)
	}
	if !reflect.DeepEqual(orderedOutput(clean.Output), orderedOutput(pr.res.Output)) {
		t.Fatal("output merged from splits {0,2,5} + {1,3,4} is not in split order")
	}
	if pr.res.JobsRun != 1 {
		t.Fatalf("JobsRun = %d, want 1", pr.res.JobsRun)
	}

	// The multi-job rule: the earlier plan's outputs come first, whatever
	// their split numbers.
	m := mergeMapWork(
		&mapreduce.MapPhaseResult{Outputs: []*mapreduce.MapOutput{{Split: 2}, {Split: 5}}, Stats: make([]mapreduce.TaskStats, 2)},
		&mapreduce.MapPhaseResult{Outputs: []*mapreduce.MapOutput{{Split: 0}, {Split: 3}}, Stats: make([]mapreduce.TaskStats, 2)},
		false)
	var order []int
	for _, o := range m.Outputs {
		order = append(order, o.Split)
	}
	if !reflect.DeepEqual(order, []int{2, 5, 0, 3}) || len(m.Stats) != 4 {
		t.Fatalf("done-first merge order = %v with %d stats", order, len(m.Stats))
	}
}

// TestDegradeFailedChainDropsIntermediate: a multi-job plan whose second
// job fails must not leave the first job's output in the namespace —
// neither when the job then fails for good, nor when the degrade ladder
// re-runs it to success.
func TestDegradeFailedChainDropsIntermediate(t *testing.T) {
	repart := func(e *e2eEnv, name string, plan *chaos.Plan) *IndexJobConf {
		conf := headOutageConf(e, name, ModeCustom, plan)
		conf.ForceStrategy(name+"-op", "kv", Repartition)
		return conf
	}
	e := newE2E(t, 800, 25)
	clean, err := e.rt.Submit(repart(e, "leak-clean", nil))
	if err != nil {
		t.Fatal(err)
	}
	firstJob := clean.raw[0].VTime

	t.Run("permanent", func(t *testing.T) {
		e := newE2E(t, 800, 25)
		if _, err := e.rt.Submit(repart(e, "leak", kvOutage(0, math.Inf(1)))); err == nil {
			t.Fatal("permanent outage must fail the job")
		}
		wantFiles(t, e, "input")
	})
	t.Run("recovers", func(t *testing.T) {
		e := newE2E(t, 800, 25)
		res, err := e.rt.Submit(repart(e, "leak", kvOutage(0, 1.2*firstJob)))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Counters[chaos.CtrReoptFailure]; got != 1 {
			t.Fatalf("failure-triggered re-optimizations = %d, want 1", got)
		}
		wantFiles(t, e, "input", res.Output.Name)
		sameOutput(t, "leak-recovers", sortedOutput(clean.Output), sortedOutput(res.Output))
	})
	t.Run("file-backed", func(t *testing.T) {
		base := fstore.OpenHandles()
		e := newE2E(t, 800, 25)
		if err := e.fs.SetBacking(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		atStart := fstore.OpenHandles()
		res, err := e.rt.Submit(repart(e, "leak", kvOutage(0, 1.2*firstJob)))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.fs.Remove(res.Output.Name); err != nil {
			t.Fatal(err)
		}
		if got := fstore.OpenHandles(); got != atStart {
			t.Fatalf("open snapshot handles = %d after removing the output, want %d", got, atStart)
		}
		if err := e.fs.Close(); err != nil {
			t.Fatal(err)
		}
		if got := fstore.OpenHandles(); got != base {
			t.Fatalf("open snapshot handles = %d after Close, want %d", got, base)
		}
	})
}

// TestDegradeDoesNotStickToConf: degradation belongs to one submission. A
// conf whose first run was demoted by an outage plans its second,
// fault-free run exactly like a fresh conf.
func TestDegradeDoesNotStickToConf(t *testing.T) {
	e := newE2E(t, 800, 25)
	clean, err := e.rt.Submit(chaosConf(e, "d", nil))
	if err != nil {
		t.Fatal(err)
	}
	mapSpan := clean.raw[0].MapPhase.Makespan

	e = newE2E(t, 800, 25)
	conf := chaosConf(e, "d", kvOutage(0, 2*mapSpan))
	first, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Plan.String(); got != "tail/d-op{kv[baseline]}" {
		t.Fatalf("first run's plan = %s, want the demoted baseline plan", got)
	}
	conf.Chaos = nil
	second, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := second.Plan.String(), clean.Plan.String(); got != want {
		t.Fatalf("second run of the same conf planned %s, a fresh conf plans %s", got, want)
	}
	if got := second.Counters[chaos.CtrReoptFailure]; got != 0 {
		t.Fatalf("fault-free second run counts %d failure re-optimizations", got)
	}
}

// TestDynamicTailKeepsPlanAcrossReduceWaves: a dynamic job with a tail
// operator whose re-optimization keeps the plan runs its reducers in two
// waves under the one plan and matches the baseline run.
func TestDynamicTailKeepsPlanAcrossReduceWaves(t *testing.T) {
	e := newAdaptiveE2E(t, 3000, 3000)
	conf := e.conf("tail-stay", ModeDynamic, e.lookupOp("tail-stay-op"), tailPlace)
	conf.NumReduce = 8 // 4 reduce slots → two reduce waves
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replanned {
		t.Fatalf("all-distinct keys should keep the baseline plan, got %v", res.Plan)
	}
	if res.JobsRun != 1 {
		t.Fatalf("JobsRun = %d, want 1", res.JobsRun)
	}
	if e.rt.Catalog.Get("tail-stay-op") == nil {
		t.Fatal("first reduce wave's statistics did not reach the catalog")
	}
	confB := e.conf("tail-stay-base", ModeBaseline, e.lookupOp("tail-stay-base-op"), tailPlace)
	confB.NumReduce = 8
	base, err := e.rt.Submit(confB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orderedOutput(base.Output), orderedOutput(res.Output)) {
		t.Fatal("two-wave reduce output differs from the baseline run")
	}
	wantFiles(t, e, "input", res.Output.Name, base.Output.Name)
}

// midReduceEnv is the setting that forces a mid-reduce change to a
// Repartition tail plan: six hot keys behind an expensive index, three
// reduce waves, a permissive variance gate, and a one-entry cache that
// cannot help because consecutive records never share a key.
func midReduceEnv(t *testing.T) (*e2eEnv, func(name string, mode Mode) *IndexJobConf) {
	cfg := sim.DefaultConfig()
	cfg.Nodes = 4
	cfg.MapSlotsPerNode = 2
	cfg.ReduceSlotsPerNode = 1
	cfg.TaskStartup = 0.001
	e := newE2EWith(t, cfg, 4000, 6)
	return e, func(name string, mode Mode) *IndexJobConf {
		conf := e.conf(name, mode, e.lookupOp(name+"-op"), tailPlace)
		conf.NumReduce = 12 // three reduce waves on 4 slots
		conf.VarianceThreshold = 0.9
		conf.CacheCapacity = 1
		return conf
	}
}

// TestReplanMidReduceToRepartitionChain: a mid-reduce change to a
// Repartition tail plan pushes the remaining reducers' output through a
// multi-job chain; the merged output equals the baseline's and the chain
// leaves no temporary file behind.
func TestReplanMidReduceToRepartitionChain(t *testing.T) {
	e, mk := midReduceEnv(t)
	conf := mk("mid-reduce", ModeDynamic)
	conf.OutputName = "mid-reduce-result"
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replanned || res.ReplanPhase != "reduce" {
		t.Fatalf("expected a reduce-phase replan, got replanned=%v phase=%q plan=%v", res.Replanned, res.ReplanPhase, res.Plan)
	}
	if got := res.Plan.Tail[0].Decisions[0].Strategy; got != Repartition {
		t.Fatalf("tail strategy after the change = %v, want repartition", got)
	}
	if res.JobsRun != 3 {
		t.Fatalf("JobsRun = %d, want the main job plus a shuffle and a resume job", res.JobsRun)
	}
	if res.Output.Name != "mid-reduce-result" {
		t.Fatalf("output written as %q, want the configured name", res.Output.Name)
	}
	wantFiles(t, e, "input", "mid-reduce-result")
	base, err := e.rt.Submit(mk("mid-reduce-base", ModeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	sameOutput(t, "mid-reduce-chain", sortedOutput(base.Output), sortedOutput(res.Output))
}

// TestReplanMidReduceChainOutage: an outage that hits the last job of a
// re-planned tail chain fails the attempt inside the chain. Whether the
// degrade ladder then recovers or gives up, neither the materialized
// reducer output nor a chain intermediate stays in the namespace.
func TestReplanMidReduceChainOutage(t *testing.T) {
	mkFail := func(mk func(string, Mode) *IndexJobConf, plan *chaos.Plan) *IndexJobConf {
		conf := mk("chain", ModeDynamic)
		conf.ErrorPolicy = ErrorFailJob
		conf.Retry = RetryPolicy{Max: 2, Backoff: 0.001, Factor: 2}
		conf.Chaos = plan
		return conf
	}
	e, mk := midReduceEnv(t)
	clean, err := e.rt.Submit(mkFail(mk, nil))
	if err != nil {
		t.Fatal(err)
	}
	if clean.JobsRun != 3 {
		t.Fatalf("clean run ran %d jobs, want a two-job tail chain", clean.JobsRun)
	}
	// The chain's last job is map-only and does the grouped lookups: it
	// occupies the end of the run.
	lastJob := clean.raw[len(clean.raw)-1].VTime
	from := clean.VTime - lastJob

	t.Run("recovers", func(t *testing.T) {
		e, mk := midReduceEnv(t)
		res, err := e.rt.Submit(mkFail(mk, kvOutage(from, from+0.3*lastJob)))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Counters[chaos.CtrReoptFailure]; got != 1 {
			t.Fatalf("failure-triggered re-optimizations = %d, want 1", got)
		}
		wantFiles(t, e, "input", res.Output.Name)
		sameOutput(t, "chain-outage", sortedOutput(clean.Output), sortedOutput(res.Output))
	})
	t.Run("permanent", func(t *testing.T) {
		e, mk := midReduceEnv(t)
		if _, err := e.rt.Submit(mkFail(mk, kvOutage(from, math.Inf(1)))); err == nil {
			t.Fatal("permanent outage must fail the job")
		}
		wantFiles(t, e, "input")
	})
}

// TestDynamicTailOutageDegrades: the first reduce wave of a dynamic job
// fails on an outage; the job is re-submitted from scratch with the index
// demoted and matches the fault-free output.
func TestDynamicTailOutageDegrades(t *testing.T) {
	e := newE2E(t, 800, 25)
	clean, err := e.rt.Submit(chaosConf(e, "dyn-tail", nil))
	if err != nil {
		t.Fatal(err)
	}
	// As in TestChaosOutageDegradesToBaseline: the window outlasts the
	// first attempt's reduce wave and ends before the second's.
	mapSpan := clean.raw[0].MapPhase.Makespan

	e = newE2E(t, 800, 25)
	conf := chaosConf(e, "dyn-tail", kvOutage(0, 2*mapSpan))
	conf.Mode = ModeDynamic
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters[chaos.CtrReoptFailure]; got != 1 {
		t.Fatalf("failure-triggered re-optimizations = %d, want 1", got)
	}
	if got := res.Plan.String(); got != "tail/dyn-tail-op{kv[baseline]}" {
		t.Fatalf("final plan = %s, want the demoted baseline plan", got)
	}
	sameOutput(t, "dyn-tail-outage", sortedOutput(clean.Output), sortedOutput(res.Output))
}
