package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"efind/internal/adaptix"
	"efind/internal/chaos"
	"efind/internal/index"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/obs"
	"efind/internal/sim"
)

// fakeBuildable is a planning-only buildable accessor: coverage is a
// plain prefix counter and the build hooks are no-ops, so optimizer
// tests can dial in any coverage without running jobs.
type fakeBuildable struct {
	fakeAccessor
	covered, total             int
	scanTime, buildTime, tjIdx float64
	offer                      int
}

func (f *fakeBuildable) ServeTime() float64 {
	return f.tjIdx + float64(f.total-f.covered)*f.scanTime
}
func (f *fakeBuildable) BuildProgress() (int, int) { return f.covered, f.total }
func (f *fakeBuildable) IsBuilt(s int) bool        { return s < f.covered }
func (f *fakeBuildable) ScanServeTime() float64    { return f.scanTime }
func (f *fakeBuildable) BuildCharge() float64      { return f.buildTime }
func (f *fakeBuildable) OfferSplits() []int {
	var out []int
	for s := f.covered; s < f.total && len(out) < f.offer; s++ {
		out = append(out, s)
	}
	return out
}
func (f *fakeBuildable) Extract(string, string) []index.BuildEntry { return nil }
func (f *fakeBuildable) Stage(sim.NodeID, int, []index.BuildEntry) {}
func (f *fakeBuildable) SnapshotBuild(sim.NodeID) func()           { return func() {} }
func (f *fakeBuildable) ResetBuild(sim.NodeID)                     {}
func (f *fakeBuildable) Commit() int                               { return 0 }
func (f *fakeBuildable) Abandon()                                  {}

// buildStats is the optimizer-test fixture: strong redundancy, a scan
// fallback that dominates the serve time, and a cheap build charge —
// the regime the fifth strategy exists for.
func buildStats() (*OperatorStats, *fakeBuildable) {
	fb := &fakeBuildable{
		fakeAccessor: fakeAccessor{name: "ix"},
		total:        8, scanTime: 0.0005, buildTime: 1e-6, tjIdx: 0.0002, offer: 2,
	}
	is := IndexStats{Nik: 1, Sik: 20, Siv: 100, Tj: 0.123, Theta: 4, R: 0.3}
	return opStats(1e5, is), fb
}

func TestOptimizeOperatorPicksBuild(t *testing.T) {
	st, fb := buildStats()
	op := NewOperator("o", nil, nil).AddIndex(fb)
	p := OptimizeOperator(op, HeadOp, st, testEnv12(), DefaultPlannerOptions())
	if p.Decisions[0].Strategy != Build {
		t.Fatalf("uncovered buildable under heavy redundancy should build, got %v", p)
	}
	// The recorded cost must be the honest per-run cost, not the
	// amortized rank: cache-fronted lookups at the blended T_j plus the
	// BuildCost term.
	env := testEnv12()
	f := factsOf(fb, st.Index["ix"])
	if !f.Buildable {
		t.Fatal("fakeBuildable not recognized as buildable")
	}
	if want := costBuild(st, f, env); p.Decisions[0].Cost != want {
		t.Fatalf("decision cost %g, want honest build cost %g", p.Decisions[0].Cost, want)
	}
	if want := costCache(st, f.Stats, env) + st.N1*float64(f.Offer)/float64(f.Total)*f.BuildTime; p.Decisions[0].Cost != want {
		t.Fatalf("decision cost %g, want cache-fronted lookups plus the BuildCost term %g", p.Decisions[0].Cost, want)
	}
	if want := fb.ServeTime(); f.Stats.Tj != want {
		t.Fatalf("effective Tj %g should equal the accessor's modeled serve time %g (stale catalog Tj overridden)", f.Stats.Tj, want)
	}
}

// costBuild is the build candidate's honest per-run cost.
func costBuild(st *OperatorStats, f IndexFacts, env Env) float64 {
	return price(HeadOp, st, &f, env, st.Spre, 0)[qBuild].Cost()
}

func TestOptimizeOperatorBuildOnlyAtHead(t *testing.T) {
	st, fb := buildStats()
	op := NewOperator("o", nil, nil).AddIndex(fb)
	for _, pos := range []OpPosition{BodyOp, TailOp} {
		p := OptimizeOperator(op, pos, st, testEnv12(), DefaultPlannerOptions())
		if p.Decisions[0].Strategy == Build {
			t.Fatalf("build strategy must be head-only, chosen at %v", pos)
		}
	}
}

func TestOptimizeOperatorStopsBuildingWhenCovered(t *testing.T) {
	st, fb := buildStats()
	fb.covered = fb.total
	op := NewOperator("o", nil, nil).AddIndex(fb)
	p := OptimizeOperator(op, HeadOp, st, testEnv12(), DefaultPlannerOptions())
	if p.Decisions[0].Strategy == Build {
		t.Fatalf("fully covered index must not keep the build strategy, got %v", p)
	}
}

func TestNegativeHorizonDisablesBuild(t *testing.T) {
	st, fb := buildStats()
	op := NewOperator("o", nil, nil).AddIndex(fb)
	opts := DefaultPlannerOptions()
	opts.BuildHorizon = -1
	p := OptimizeOperator(op, HeadOp, st, testEnv12(), opts)
	if p.Decisions[0].Strategy == Build {
		t.Fatalf("negative BuildHorizon must disable building, got %v", p)
	}
}

func TestPredictBuildRuns(t *testing.T) {
	st, fb := buildStats()
	env := testEnv12()
	f := factsOf(fb, st.Index["ix"])
	is := f.Stats

	// Alternative more expensive than even the first (priciest) build
	// run: breaks even immediately.
	if n := PredictBuildRuns(st, f, env, costBuild(st, f, env)+1, 100); n != 1 {
		t.Fatalf("alt above first-run build cost should break even at run 1, got %d", n)
	}
	// Alternative cheaper than the fully-built cache plan: never.
	isFull := is
	isFull.Tj = f.TjAt(f.Total)
	if n := PredictBuildRuns(st, f, env, 0.9*costCache(st, isFull, env), 100); n != -1 {
		t.Fatalf("alt below the converged cost must never break even, got %d", n)
	}
	// Alternative equal to the coverage-0 cache cost: later runs win it
	// back within the build-out.
	n := PredictBuildRuns(st, f, env, costCache(st, is, env), 100)
	if n < 2 || n > f.Total {
		t.Fatalf("break-even against the coverage-0 cache cost should land in [2,%d], got %d", f.Total, n)
	}
}

func TestExplainBuildRendersTerms(t *testing.T) {
	st, fb := buildStats()
	env := testEnv12()
	f := factsOf(fb, st.Index["ix"])
	list, chosen, alt := WhatIf(HeadOp, st, f, env, DefaultPlannerOptions())
	if chosen.Strategy != Build || alt.Strategy == Build || alt.Cost() > costCache(st, f.Stats, env) {
		t.Fatalf("what-if chose %v over %v; want build over a candidate no dearer than the cache", chosen, alt)
	}
	lines := ExplainBuild(list, st, f, env)
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"0/8 splits covered", "BuildCost", "rank = cost − horizon·savings", "break-even"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("ExplainBuild output missing %q:\n%s", want, joined)
		}
	}
}

// adxEnv extends the e2e environment with an adaptively-built index
// over the job input: a kvstore that starts empty and fills as runs
// commit splits, with a scan fallback keeping lookups exact meanwhile.
type adxEnv struct {
	*e2eEnv
	reg *adaptix.Registry
	bix *adaptix.Buildable
}

// newAdxEnv builds the environment; parallelism 0 keeps the cluster
// default. The extraction maps each record to its index key with a
// value that depends only on the key, so lookup results — and with
// them job outputs — are identical at every build coverage.
func newAdxEnv(tb testing.TB, parallelism, records, distinctKeys int, offerRate float64) *adxEnv {
	tb.Helper()
	cfg := sim.DefaultConfig()
	cfg.Nodes = 6
	cfg.MapSlotsPerNode = 2
	cfg.ReduceSlotsPerNode = 2
	cfg.TaskStartup = 0.01
	if parallelism > 0 {
		cfg.Parallelism = parallelism
	}
	e := newE2EWith(tb, cfg, records, distinctKeys)
	reg := adaptix.NewRegistry()
	store := kvstore.NewHash(e.cluster, "adx", 8, 3, 0.0002)
	bix, err := adaptix.New(adaptix.Config{
		Name:   "adx",
		Source: e.input,
		Extract: func(key, value string) []index.BuildEntry {
			f := strings.Fields(value)
			ik := f[len(f)-1]
			return []index.BuildEntry{{Key: ik, Value: "v(" + ik + ")"}}
		},
		Store:     store,
		Registry:  reg,
		ScanTime:  0.002,
		BuildTime: 1e-5,
		OfferRate: offerRate,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return &adxEnv{e2eEnv: e, reg: reg, bix: bix}
}

// adxOp mirrors lookupOp over the buildable index.
func (a *adxEnv) adxOp(name string) *Operator {
	op := NewOperator(name,
		func(in Pair) PreResult {
			fields := strings.Fields(in.Value)
			return PreResult{Pair: in, Keys: [][]string{{fields[len(fields)-1]}}}
		},
		func(pair Pair, results [][]KeyResult, emit Emit) {
			vals := "none"
			if len(results) > 0 && len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				vals = strings.Join(results[0][0].Values, ",")
			}
			emit(Pair{Key: pair.Key, Value: pair.Value + " => " + vals})
		})
	op.AddIndex(a.bix)
	return op
}

// buildConf is a job forced onto the build strategy (the mechanics
// tests pin the strategy so they exercise the runtime, not the
// planner's taste).
func (a *adxEnv) buildConf(name string) *IndexJobConf {
	op := a.adxOp(name + "-op")
	conf := a.conf(name, ModeCustom, op, headPlace)
	conf.ForceStrategy(op.Name(), a.bix.Name(), Build)
	return conf
}

// TestForcedBuildConvergesAcrossRuns submits the same job repeatedly:
// each run commits its offered splits, coverage grows by the offer
// until the input is covered, per-run makespan decreases monotonically
// to the converged (fully built) plan's, and the output is identical at
// every coverage.
func TestForcedBuildConvergesAcrossRuns(t *testing.T) {
	a := newAdxEnv(t, 0, 800, 25, 0.3)
	total := len(a.input.Chunks)
	offer := (total*3 + 9) / 10 // ceil(0.3·total), matches OfferRate

	var vtimes []float64
	var outputs [][]string
	covered := 0
	const runs = 6
	for k := 0; k < runs; k++ {
		res, err := a.rt.Submit(a.buildConf(fmt.Sprintf("conv-run%d", k)))
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		wantCommit := offer
		if covered+wantCommit > total {
			wantCommit = total - covered
		}
		if got := res.Counters[CtrBuildCommitted]; got != int64(wantCommit) {
			t.Fatalf("run %d committed %d splits, want %d", k, got, wantCommit)
		}
		covered += wantCommit
		if gotCov, gotTotal := a.reg.Covered("adx"); gotCov != covered || gotTotal != total {
			t.Fatalf("run %d registry coverage %d/%d, want %d/%d", k, gotCov, gotTotal, covered, total)
		}
		// The accessor's serve time and the cost model's blended T_j must
		// agree by construction at every coverage.
		if f := factsOf(a.bix, IndexStats{}); !f.Buildable || f.TjAt(f.Covered) != a.bix.ServeTime() {
			t.Fatalf("run %d: modeled TjAt(%d) diverged from accessor serve time", k, covered)
		}
		vtimes = append(vtimes, res.VTime)
		outputs = append(outputs, sortedOutput(res.Output))
	}

	for k := 1; k < runs; k++ {
		if vtimes[k] > vtimes[k-1] {
			t.Fatalf("makespan not monotone: run %d %g > run %d %g (all: %v)", k, vtimes[k], k-1, vtimes[k-1], vtimes)
		}
		sameOutput(t, fmt.Sprintf("conv-run%d", k), outputs[0], outputs[k])
	}
	if covered != total {
		t.Fatalf("input not fully covered after %d runs: %d/%d", runs, covered, total)
	}
	if vtimes[runs-1] >= 0.7*vtimes[0] {
		t.Fatalf("converged makespan %g should be well below the scan-heavy first run %g", vtimes[runs-1], vtimes[0])
	}
	// Fully covered: the plan is served entirely from the store, so two
	// more runs are bit-identical.
	if vtimes[runs-1] != vtimes[runs-2] {
		t.Fatalf("post-convergence runs should be identical: %g vs %g", vtimes[runs-2], vtimes[runs-1])
	}
}

// TestBuildSerialParallelBitIdentical runs the same three-run build
// sequence on the serial and the parallel executor: per-run makespans,
// merged counters (including the build and commit counters), outputs,
// and the registry fingerprint after every run must match exactly.
func TestBuildSerialParallelBitIdentical(t *testing.T) {
	type runState struct {
		vtime    float64
		counters map[string]int64
		output   []string
		fp       string
	}
	runSeq := func(parallelism int) []runState {
		a := newAdxEnv(t, parallelism, 800, 25, 0.3)
		var states []runState
		for k := 0; k < 3; k++ {
			res, err := a.rt.Submit(a.buildConf(fmt.Sprintf("bi-run%d", k)))
			if err != nil {
				t.Fatalf("parallelism %d run %d: %v", parallelism, k, err)
			}
			states = append(states, runState{
				vtime:    res.VTime,
				counters: res.Counters,
				output:   sortedOutput(res.Output),
				fp:       a.reg.Fingerprint(),
			})
		}
		return states
	}

	serial := runSeq(1)
	parallel := runSeq(8)
	for k := range serial {
		if serial[k].vtime != parallel[k].vtime {
			t.Fatalf("run %d makespan diverged: serial %g vs parallel %g", k, serial[k].vtime, parallel[k].vtime)
		}
		if serial[k].fp != parallel[k].fp {
			t.Fatalf("run %d registry fingerprint diverged:\nserial:\n%s\nparallel:\n%s", k, serial[k].fp, parallel[k].fp)
		}
		if !reflect.DeepEqual(serial[k].counters, parallel[k].counters) {
			for name, v := range serial[k].counters {
				if parallel[k].counters[name] != v {
					t.Errorf("run %d counter %q: serial %d vs parallel %d", k, name, v, parallel[k].counters[name])
				}
			}
			t.Fatalf("run %d merged counters diverged", k)
		}
		sameOutput(t, fmt.Sprintf("bi-run%d", k), serial[k].output, parallel[k].output)
	}
	if serial[2].fp == serial[0].fp {
		t.Fatal("coverage did not grow across runs; bit-identity test is vacuous")
	}
}

// TestBuildRetryRollbackKeepsCommitExact: failed map attempts re-stage
// their splits; without the SnapshotBuild rollback in the attempt guard
// the commit would double-count them (or commit a half-scanned split).
// A faulty run must commit exactly the clean run's splits and report
// identical build counters and output.
func TestBuildRetryRollbackKeepsCommitExact(t *testing.T) {
	run := func(inject bool) (*JobResult, string) {
		a := newAdxEnv(t, 0, 800, 25, 0.3)
		conf := a.buildConf("bf")
		if inject {
			conf.FaultInjector = func(kind mapreduce.TaskKind, task, attempt int) bool {
				return kind == mapreduce.MapTask && task%3 == 0 && attempt == 1
			}
		}
		res, err := a.rt.Submit(conf)
		if err != nil {
			t.Fatal(err)
		}
		return res, a.reg.Fingerprint()
	}

	clean, cleanFP := run(false)
	faulty, faultyFP := run(true)

	if faulty.Counters[mapreduce.CounterTaskRetries] == 0 {
		t.Fatal("fault injector did not fire")
	}
	if cleanFP != faultyFP {
		t.Fatalf("retries changed the committed registry state:\nclean:\n%s\nfaulty:\n%s", cleanFP, faultyFP)
	}
	if got, want := faulty.Counters[CtrBuildCommitted], clean.Counters[CtrBuildCommitted]; got != want {
		t.Fatalf("retries skewed the commit count: faulty %d vs clean %d", got, want)
	}
	splits := "efind.bf-op.adx.build.splits"
	if clean.Counters[splits] == 0 {
		t.Fatal("build stage staged no splits; test is vacuous")
	}
	if got, want := faulty.Counters[splits], clean.Counters[splits]; got != want {
		t.Fatalf("retries skewed staged-split count: faulty %d vs clean %d", got, want)
	}
	sameOutput(t, "build-retry", sortedOutput(clean.Output), sortedOutput(faulty.Output))
}

// TestBuildNodeCrashRollsBackStagedSplits is the chaos leg: a node
// crash mid-map kills in-flight builder tasks; their staged splits are
// discarded (ResetBuild) and re-staged by the recovery wave, so the
// committed registry state and the output match a fault-free run —
// pinned bit-identical across the serial and parallel executors.
func TestBuildNodeCrashRollsBackStagedSplits(t *testing.T) {
	clean, cleanFP := func() (*JobResult, string) {
		a := newAdxEnv(t, 0, 800, 25, 0.3)
		res, err := a.rt.Submit(a.buildConf("crash"))
		if err != nil {
			t.Fatal(err)
		}
		return res, a.reg.Fingerprint()
	}()
	mapSpan := clean.raw[0].MapPhase.Makespan

	crashRun := func(parallelism int) (*JobResult, string) {
		a := newAdxEnv(t, parallelism, 800, 25, 0.3)
		conf := a.buildConf("crash")
		conf.Chaos = chaos.MustNew(chaos.Config{
			Crashes: []chaos.Crash{{Node: 2, At: 0.3 * mapSpan, Recover: 0.4 * mapSpan}},
		}, 6)
		res, err := a.rt.Submit(conf)
		if err != nil {
			t.Fatal(err)
		}
		return res, a.reg.Fingerprint()
	}

	serial, serialFP := crashRun(1)
	parallel, parallelFP := crashRun(8)

	if serialFP != cleanFP {
		t.Fatalf("crash changed committed registry state:\nclean:\n%s\ncrashed:\n%s", cleanFP, serialFP)
	}
	if got, want := serial.Counters[CtrBuildCommitted], clean.Counters[CtrBuildCommitted]; got != want {
		t.Fatalf("crash skewed the commit count: %d vs clean %d", got, want)
	}
	sameOutput(t, "crash-vs-clean", sortedOutput(clean.Output), sortedOutput(serial.Output))

	if serialFP != parallelFP {
		t.Fatalf("crash recovery fingerprint diverged across executors:\nserial:\n%s\nparallel:\n%s", serialFP, parallelFP)
	}
	if serial.VTime != parallel.VTime {
		t.Fatalf("crash-run makespan diverged across executors: %g vs %g", serial.VTime, parallel.VTime)
	}
	if !reflect.DeepEqual(serial.Counters, parallel.Counters) {
		for name, v := range serial.Counters {
			if parallel.Counters[name] != v {
				t.Errorf("counter %q: serial %d vs parallel %d", name, v, parallel.Counters[name])
			}
		}
		t.Fatal("crash-run counters diverged across executors")
	}
	sameOutput(t, "crash-serial-vs-parallel", sortedOutput(serial.Output), sortedOutput(parallel.Output))
}

// TestDynamicJobStartsBuildMidJob: a cold dynamic job measures its
// first wave under the baseline plan, the re-optimizer discovers the
// scan-dominated buildable index and switches to the build strategy
// mid-map, and the piggyback stage builds only from the splits the
// job still had to read (LIAH). The output stays correct and the
// registry gains exactly the restricted offer.
func TestDynamicJobStartsBuildMidJob(t *testing.T) {
	a := newAdxEnv(t, 0, 1600, 400, 0.25)
	a.rt.Engine.Trace = obs.NewTrace()
	n := len(a.input.Chunks)
	wave := a.cluster.MapSlots()
	if wave >= n {
		t.Fatalf("input too small for a mid-map replan: %d chunks <= %d map slots", n, wave)
	}

	op := a.adxOp("dynbuild-op")
	conf := a.conf("dynbuild", ModeDynamic, op, headPlace)
	res, err := a.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replanned || res.ReplanPhase != "map" {
		t.Fatalf("expected a mid-map plan change, got replanned=%v phase=%q", res.Replanned, res.ReplanPhase)
	}
	if !planHasBuild(res.Plan) {
		t.Fatalf("re-optimized plan should adopt the build strategy, got %s", res.Plan)
	}

	offer := (n + 3) / 4 // ceil(0.25·n), matches OfferRate
	if remaining := n - wave; offer > remaining {
		offer = remaining
	}
	if got := res.Counters[CtrBuildCommitted]; got != int64(offer) {
		t.Fatalf("mid-job build committed %d splits, want %d", got, offer)
	}
	for _, s := range a.reg.CoveredSplits("adx") {
		if s < wave {
			t.Fatalf("split %d was built but only splits >= %d were re-read under the new plan", s, wave)
		}
	}

	var buf bytes.Buffer
	if err := a.rt.Engine.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "piggyback index build started mid-job") {
		t.Fatal("trace missing the mid-job build-start instant")
	}

	// Reference: the same input through a never-building environment.
	ref := newAdxEnv(t, 0, 1600, 400, 0)
	refRes, err := ref.rt.Submit(ref.conf("dynbuild-ref", ModeBaseline, ref.adxOp("dynbuild-op"), headPlace))
	if err != nil {
		t.Fatal(err)
	}
	sameOutput(t, "dynamic-build", sortedOutput(refRes.Output), sortedOutput(res.Output))
}
