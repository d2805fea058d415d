package experiments

import (
	"fmt"

	"efind/internal/chaos"
	"efind/internal/core"
	"efind/internal/mapreduce"
	"efind/internal/obs"
	"efind/internal/sim"
)

// synIndexName is the store GenerateSynthetic derives from the "syn"
// workload name; the outage schedules target it.
const synIndexName = "syn-index"

// ChaosSeed seeds the ablation's fault schedules; efind-bench -chaos
// overrides it so CI can soak several schedules with one binary.
var ChaosSeed int64 = 42

// AblationChaos runs the synthetic join under seeded fault schedules —
// a node crash mid-map, injected stragglers with speculative backups, a
// whole-index outage that forces a failure-triggered re-optimization,
// and all three at once — and verifies the answer never changes. Each
// row reports the virtual runtime, its overhead over the fault-free
// run, and the chaos events that fired. Any output divergence fails the
// experiment (and with it the CI chaos gate).
func AblationChaos(scale Scale) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Ablation: chaos schedules (seed %d) — fault tolerance never changes the answer", ChaosSeed),
		Columns: []string{"runtime", "overhead", "crashes", "spec", "reopt"},
	}

	// row runs the join under one schedule and adds its row; the first
	// call is the fault-free run every later output must equal.
	var clean *chaosRun
	var want uint64
	row := func(label, name string, cfg *chaos.Config) (*chaosRun, error) {
		r, err := runSynChaos(scale, name, cfg)
		if err != nil {
			return nil, err
		}
		got, err := r.res.Output.Fingerprint()
		if err != nil {
			return nil, err
		}
		if clean == nil {
			clean, want = r, got
		}
		if got != want {
			return nil, fmt.Errorf("chaos ablation: %s output diverged from fault-free run (%d vs %d records)",
				label, r.res.Output.Records(), clean.res.Output.Records())
		}
		m := r.trace.Metrics
		t.Add(label, r.res.VTime, r.res.VTime/clean.res.VTime,
			float64(m.Counter(chaos.CtrNodeCrashes)),
			float64(m.Counter(chaos.CtrSpecLaunched)),
			float64(m.Counter(chaos.CtrReoptFailure)))
		return r, nil
	}
	if _, err := row("fault-free", "chaos-clean", nil); err != nil {
		return nil, err
	}
	cleanMap := clean.mapSpan

	// One node dies halfway through the map phase and never comes back:
	// survivors re-run the lost tasks.
	crashCfg := chaos.Config{
		Seed:    ChaosSeed,
		Crashes: []chaos.Crash{{Node: 2, At: 0.5 * cleanMap, Recover: 0.5*cleanMap + 1e6}},
	}
	if _, err := row("node-crash", "chaos-crash", &crashCfg); err != nil {
		return nil, err
	}

	// Seeded stragglers with Hadoop-style speculative backups.
	specCfg := chaos.Config{
		Seed:            ChaosSeed,
		Spec:            chaos.Speculation{Enabled: true},
		StragglerRate:   0.25,
		StragglerFactor: 6,
	}
	if _, err := row("stragglers+spec", "chaos-spec", &specCfg); err != nil {
		return nil, err
	}

	// A whole-index outage that outlasts the retry ladder: the first
	// attempt fails, the runtime demotes the operator to the baseline
	// strategy, and the re-run's later virtual start clears the window
	// (the fault-free map makespan sizes it, as in the chaos tests).
	outCfg := chaos.Config{
		Seed:    ChaosSeed,
		Outages: []chaos.Outage{{Index: synIndexName, Partition: -1, From: 0, Until: 2 * cleanMap}},
	}
	if _, err := row("index-outage", "chaos-outage", &outCfg); err != nil {
		return nil, err
	}

	// Everything at once. Stragglers stretch the map phase and the crash
	// stretches it further, so two sizing runs learn the real map
	// makespan before the outage window is cut to cover exactly the
	// first reduce attempt and end before the degraded re-run's reduce.
	comboCfg := specCfg
	size1, err := runSynChaos(scale, "chaos-combo-cal1", &comboCfg)
	if err != nil {
		return nil, err
	}
	comboCfg.Crashes = []chaos.Crash{{Node: 2, At: 0.5 * size1.mapSpan, Recover: 0.5*size1.mapSpan + 1e6}}
	size2, err := runSynChaos(scale, "chaos-combo-cal2", &comboCfg)
	if err != nil {
		return nil, err
	}
	comboCfg.Outages = []chaos.Outage{{Index: synIndexName, Partition: -1, From: 0, Until: size2.mapSpan + cleanMap}}
	combo, err := row("combined", "chaos-combo", &comboCfg)
	if err != nil {
		return nil, err
	}

	t.Note("all rows produced output identical to the fault-free run")
	t.Note("combined overhead %.2fx: crash re-execution + straggler tail + full baseline re-run after the outage",
		combo.res.VTime/clean.res.VTime)
	return t, nil
}

// chaosRun is one synthetic-join execution with its private trace (the
// chaos counters of a failed first attempt survive only there) and the
// first map phase's makespan, which sizes downstream fault schedules.
type chaosRun struct {
	res     *core.JobResult
	mapSpan float64
	trace   *obs.Trace
}

// runSynChaos executes the synthetic join with the operator at the tail
// — lookups run in the reduce phase, so the map phase advances the
// virtual clock before the first index access and an outage window can
// end between a failed attempt and its degraded re-run.
func runSynChaos(scale Scale, name string, cfg *chaos.Config) (*chaosRun, error) {
	l := newLab()
	tr := obs.NewTrace()
	l.engine.Trace = tr
	input, store, err := l.genSyn(scale, 1024)
	if err != nil {
		return nil, err
	}

	op := synOperator(store)
	conf := &core.IndexJobConf{
		Name:  name,
		Input: input,
		Mode:  core.ModeCache,
		Mapper: func(_ *mapreduce.TaskContext, in core.Pair, emit core.Emit) {
			emit(in)
		},
		Reducer:     mapreduce.IdentityReduce,
		ErrorPolicy: core.ErrorFailJob,
		Retry:       core.RetryPolicy{Max: 2, Backoff: 0.001, Factor: 2},
	}
	conf.AddTailIndexOperator(op)
	if cfg != nil {
		conf.Chaos = chaos.MustNew(*cfg, sim.DefaultConfig().Nodes)
	}

	res, err := l.rt.Submit(conf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	run := &chaosRun{res: res, trace: tr}
	for _, s := range tr.Stages() {
		if s.Kind == "map" {
			run.mapSpan = s.VTime
			break
		}
	}
	return run, nil
}
