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

// faultSeed seeds the fault schedules whose seed the experiments do not
// sweep: the chaos ablation's crash and outage rows, multi-tenant's outage
// and chaos-multitenant's schedule.
const faultSeed = 42

// AblationChaos runs the synthetic join under seeded fault schedules —
// a node crash mid-map, a whole-index outage that forces a
// failure-triggered re-optimization, injected stragglers with speculative
// backups, and all three at once — and verifies the answer never changes.
// Only the straggler draws read the seed, so the last two schedules run
// under each of seeds 1, 7 and 42. Each row reports the virtual runtime, its
// overhead over the fault-free run, and the chaos events that fired. Any
// output divergence fails the experiment, and so does a row whose faults
// did not fire.
func AblationChaos(scale Scale, _ *obs.Trace) (*Table, error) {
	t := &Table{
		Title:   "Ablation: chaos schedules (s = straggler seed) — fault tolerance never changes the answer",
		Columns: []string{"runtime", "overhead", "crashes", "spec", "reopt"},
	}

	// row runs the join under one schedule and adds its row; the first
	// call is the fault-free run every later output must equal. fired
	// names the columns whose fault the schedule injects: each must count
	// at least one event, and a failure re-optimizes exactly once.
	var clean *lab
	var want uint64
	row := func(label, name string, cfg *chaos.Config, fired ...string) error {
		r, err := runSynChaos(scale, name, cfg)
		if err != nil {
			return err
		}
		got, err := r.res.Output.Fingerprint()
		if err != nil {
			return err
		}
		if clean == nil {
			clean, want = r, got
		}
		if got != want {
			return fmt.Errorf("chaos ablation: %s output diverged from fault-free run (%d vs %d records)",
				label, r.res.Output.Records(), clean.res.Output.Records())
		}
		m := r.engine.Trace.Metrics
		t.Add(label, r.res.VTime, r.res.VTime/clean.res.VTime,
			float64(m.Counter(chaos.CtrNodeCrashes)),
			float64(m.Counter(chaos.CtrSpecLaunched)),
			float64(m.Counter(chaos.CtrReoptFailure)))
		ov := t.at(label, "overhead")
		t.claim(ov >= 1, "%s: overhead %g, faster than the fault-free run", label, ov)
		for _, c := range fired {
			v := t.at(label, c)
			t.claim(v >= 1 && (c != "reopt" || v == 1), "%s: %s is %g; the row's fault did not fire as injected", label, c, v)
		}
		return nil
	}
	if err := row("fault-free", "chaos-clean", nil); err != nil {
		return nil, err
	}
	cleanMap := clean.mapSpan()

	// One node dies halfway through the map phase and never comes back:
	// survivors re-run the lost tasks.
	crashCfg := chaos.Config{
		Seed:    faultSeed,
		Crashes: []chaos.Crash{{Node: 2, At: 0.5 * cleanMap, Recover: 0.5*cleanMap + 1e6}},
	}
	if err := row("node-crash", "chaos-crash", &crashCfg, "crashes"); err != nil {
		return nil, err
	}

	// A whole-index outage that outlasts the retry ladder: the first
	// attempt fails, the runtime demotes the operator to the baseline
	// strategy, and the re-run's later virtual start clears the window
	// (the fault-free map makespan sizes it, as in the chaos tests).
	outCfg := chaos.Config{
		Seed:    faultSeed,
		Outages: []chaos.Outage{{Index: synIndexName, Partition: -1, From: 0, Until: 2 * cleanMap}},
	}
	if err := row("index-outage", "chaos-outage", &outCfg, "reopt"); err != nil {
		return nil, err
	}

	for _, seed := range []int64{1, 7, faultSeed} {
		// Seeded stragglers with Hadoop-style speculative backups.
		specCfg := chaos.Config{
			Seed:            seed,
			Spec:            chaos.Speculation{Enabled: true},
			StragglerRate:   0.25,
			StragglerFactor: 6,
		}
		if err := row(fmt.Sprintf("stragglers+spec s=%d", seed), "chaos-spec", &specCfg, "spec"); err != nil {
			return nil, err
		}

		// Everything at once. Stragglers stretch the map phase and the
		// crash stretches it further, so two sizing runs learn the real
		// map makespan before the outage window is cut to cover exactly
		// the first reduce attempt and end before the degraded re-run's
		// reduce.
		comboCfg := specCfg
		size1, err := runSynChaos(scale, "chaos-combo-cal1", &comboCfg)
		if err != nil {
			return nil, err
		}
		comboCfg.Crashes = []chaos.Crash{{Node: 2, At: 0.5 * size1.mapSpan(), Recover: 0.5*size1.mapSpan() + 1e6}}
		size2, err := runSynChaos(scale, "chaos-combo-cal2", &comboCfg)
		if err != nil {
			return nil, err
		}
		comboCfg.Outages = []chaos.Outage{{Index: synIndexName, Partition: -1, From: 0, Until: size2.mapSpan() + cleanMap}}
		if err := row(fmt.Sprintf("combined s=%d", seed), "chaos-combo", &comboCfg, "crashes", "spec", "reopt"); err != nil {
			return nil, err
		}
	}

	t.Note("all rows produced output identical to the fault-free run")
	t.Note("combined: crash re-execution + straggler tail + full baseline re-run after the outage")
	return t, t.err
}

// runSynChaos executes the synthetic join under a fault schedule, in a
// lab recording into a private trace (the chaos counters of a failed
// first attempt survive only there), with the operator at the tail —
// lookups run in the reduce phase, so the map phase advances the virtual
// clock before the first index access and an outage window can end
// between a failed attempt and its degraded re-run.
func runSynChaos(scale Scale, name string, cfg *chaos.Config) (*lab, error) {
	return runLeg(leg{trace: obs.NewProfileTrace(), column: "cache", job: name}, func(l *lab) (strategyJob, error) {
		input, store, err := l.genSyn(scale, 1024)
		if err != nil {
			return strategyJob{}, err
		}
		return strategyJob{build: func(name string) *core.IndexJobConf {
			conf := &core.IndexJobConf{
				Name:  name,
				Input: input,
				Mapper: func(_ *mapreduce.TaskContext, in core.Pair, emit core.Emit) {
					emit(in)
				},
				Reducer:     mapreduce.IdentityReduce,
				ErrorPolicy: core.ErrorFailJob,
				Retry:       core.RetryPolicy{Max: 2, Backoff: 0.001, Factor: 2},
			}
			conf.AddTailIndexOperator(synOperator(store))
			if cfg != nil {
				conf.Chaos = chaos.MustNew(*cfg, sim.DefaultConfig().Nodes)
			}
			return conf
		}}, nil
	})
}

// mapSpan is the makespan of the leg's first map phase, which sizes
// downstream fault schedules.
func (r *lab) mapSpan() float64 {
	for _, s := range r.engine.Trace.Stages() {
		if s.Kind == "map" {
			return s.VTime
		}
	}
	return 0
}
