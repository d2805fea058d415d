package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"efind/internal/chaos"
	"efind/internal/obs"
)

// chaosConf builds the standard tail-operator job the outage tests run:
// lookups happen in the reduce phase, so the map phase advances the
// virtual clock before the first index access — an outage window can end
// between a failed attempt and its re-run.
func chaosConf(e *e2eEnv, name string, plan *chaos.Plan) *IndexJobConf {
	op := e.lookupOp(name + "-op")
	conf := e.conf(name, ModeCache, op, tailPlace)
	conf.ErrorPolicy = ErrorFailJob
	conf.Retry = RetryPolicy{Max: 2, Backoff: 0.001, Factor: 2}
	conf.Chaos = plan
	return conf
}

// TestChaosOutageDegradesToBaseline: a whole-index outage that outlasts
// the retry ladder fails the first attempt; the runtime demotes the
// operator to the baseline strategy and re-runs, and the later virtual
// start time carries the job past the outage window. The output must be
// identical to a fault-free run and the forced plan change counted.
func TestChaosOutageDegradesToBaseline(t *testing.T) {
	clean := func() *JobResult {
		e := newE2E(t, 800, 25)
		res, err := e.rt.Submit(chaosConf(e, "outage-clean", nil))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	// Phase makespans of the fault-free run size the outage window: the
	// first reduce attempt starts at mapSpan and its retry ladder reaches
	// ≈ 0.003 virtual seconds further, so 2×mapSpan outlasts it; the
	// degraded re-run's reduce phase starts past 2×mapSpan (failed reduce
	// + fresh map phase), safely beyond the window.
	mapSpan := clean.raw[0].MapPhase.Makespan
	until := 2 * mapSpan

	e := newE2E(t, 800, 25)
	e.rt.Engine.Trace = obs.NewTrace()
	plan := chaos.MustNew(chaos.Config{
		Outages: []chaos.Outage{{Index: "kv", Partition: -1, From: 0, Until: until}},
	}, 6)
	res, err := e.rt.Submit(chaosConf(e, "outage-degrade", plan))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters[chaos.CtrReoptFailure]; got != 1 {
		t.Fatalf("failure-triggered re-optimizations = %d, want 1", got)
	}
	if got := e.rt.Engine.Trace.Metrics.Counter(chaos.CtrReoptFailure); got != 1 {
		t.Fatalf("trace metrics re-optimizations = %d, want 1", got)
	}
	sameOutput(t, "outage-degrade", sortedOutput(clean.Output), sortedOutput(res.Output))

	var buf bytes.Buffer
	if err := e.rt.Engine.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reopt:failure") {
		t.Fatal("trace has no failure-triggered re-optimization instant")
	}
}

// TestChaosPermanentOutageExhaustsLadder: when the outage never ends,
// the degraded baseline re-run fails on the same index; the (operator,
// index) pair is already demoted, so the ladder is exhausted and the job
// fails with the unavailability error.
func TestChaosPermanentOutageExhaustsLadder(t *testing.T) {
	plan := chaos.MustNew(chaos.Config{
		Outages: []chaos.Outage{{Index: "kv", Partition: -1, From: 0, Until: math.Inf(1)}},
	}, 6)

	e := newE2E(t, 400, 10)
	_, err := e.rt.Submit(chaosConf(e, "outage-perm", plan))
	if err == nil {
		t.Fatal("permanent outage must fail the job once every fallback is exhausted")
	}
	if !errors.Is(err, chaos.ErrUnavailable) {
		t.Fatalf("job failure should carry the unavailability cause, got %v", err)
	}
}

// TestChaosPartitionScopedOutageOnlyHitsItsKeys: an outage of one
// partition leaves lookups routed to other partitions untouched — the
// unavailability counter stays scoped to the keys the outage covers.
func TestChaosPartitionScopedOutageOnlyHitsItsKeys(t *testing.T) {
	clean := func() *JobResult {
		e := newE2E(t, 800, 25)
		res, err := e.rt.Submit(chaosConf(e, "part-clean", nil))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	mapSpan := clean.raw[0].MapPhase.Makespan

	e := newE2E(t, 800, 25)
	plan := chaos.MustNew(chaos.Config{
		Outages: []chaos.Outage{{Index: "kv", Partition: 3, From: 0, Until: 2 * mapSpan}},
	}, 6)
	res, err := e.rt.Submit(chaosConf(e, "part-degrade", plan))
	if err != nil {
		t.Fatal(err)
	}
	sameOutput(t, "partition-scoped", sortedOutput(clean.Output), sortedOutput(res.Output))
}

// TestChaosAcceptanceCombo is the issue's acceptance run: one seeded
// schedule that crashes a node mid-wave, speculates at least one
// straggler, and takes the index down long enough to force a
// failure-triggered re-optimization — and still finishes with output
// bit-identical to the fault-free run, with every event in the trace.
func TestChaosAcceptanceCombo(t *testing.T) {
	// Seed 8 slows exactly one task of the final reduce phase (sequence
	// 4: map, failed reduce, re-run map, re-run reduce, with the crash
	// recovery wave claiming one sequence number in between), so the
	// speculation threshold — 2× the phase median — is provably crossed.
	base := chaos.Config{
		Seed:            8,
		Spec:            chaos.Speculation{Enabled: true},
		StragglerRate:   0.3,
		StragglerFactor: 5,
	}

	clean := func() *JobResult {
		e := newE2E(t, 800, 25)
		res, err := e.rt.Submit(chaosConf(e, "combo-clean", nil))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	cleanMap := clean.raw[0].MapPhase.Makespan

	// Two calibration runs size the fault schedule. The first (stragglers
	// and speculation, nothing else) learns the stretched map makespan so
	// the crash lands mid-wave; the second adds that crash and learns the
	// final map makespan — the real run's map phase is identical, so the
	// outage window can be cut to cover exactly the first reduce attempt
	// plus its retry ladder and end before the degraded re-run's reduce
	// phase (which starts a failed reduce and a full map phase later).
	calibrate := func(name string, cfg chaos.Config) float64 {
		e := newE2E(t, 800, 25)
		res, err := e.rt.Submit(chaosConf(e, name, chaos.MustNew(cfg, 6)))
		if err != nil {
			t.Fatal(err)
		}
		return res.raw[0].MapPhase.Makespan
	}
	calMap := calibrate("combo-cal1", base)
	crashed := base
	crashed.Crashes = []chaos.Crash{{Node: 2, At: 0.5 * calMap, Recover: 0.5*calMap + 1000}}
	crashMap := calibrate("combo-cal2", crashed)

	cfg := crashed
	cfg.Outages = []chaos.Outage{{Index: "kv", Partition: -1, From: 0, Until: crashMap + cleanMap}}

	e := newE2E(t, 800, 25)
	e.rt.Engine.Trace = obs.NewTrace()
	res, err := e.rt.Submit(chaosConf(e, "combo", chaos.MustNew(cfg, 6)))
	if err != nil {
		t.Fatal(err)
	}

	sameOutput(t, "acceptance-combo", sortedOutput(clean.Output), sortedOutput(res.Output))
	if got := res.Counters[chaos.CtrReoptFailure]; got != 1 {
		t.Fatalf("failure-triggered re-optimizations = %d, want 1", got)
	}
	m := e.rt.Engine.Trace.Metrics
	if m.Counter(chaos.CtrNodeCrashes) == 0 {
		t.Fatal("combo run applied no node crash")
	}
	if m.Counter(chaos.CtrSpecLaunched) == 0 {
		t.Fatal("combo run speculated no straggler")
	}

	var buf bytes.Buffer
	if err := e.rt.Engine.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	trace := buf.String()
	for _, want := range []string{"crash:node", "speculate:", "reopt:failure"} {
		if !strings.Contains(trace, want) {
			t.Fatalf("trace is missing %q events", want)
		}
	}
}

// TestChaosDeterministicAcrossRuns re-executes the acceptance schedule
// and demands identical counters and output both times — chaos runs are
// as reproducible as fault-free ones.
func TestChaosDeterministicAcrossRuns(t *testing.T) {
	run := func() *JobResult {
		e := newE2E(t, 800, 25)
		plan := chaos.MustNew(chaos.Config{
			Seed:            11,
			Spec:            chaos.Speculation{Enabled: true},
			StragglerRate:   0.3,
			StragglerFactor: 5,
		}, 6)
		res, err := e.rt.Submit(chaosConf(e, "repro", plan))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.VTime != b.VTime {
		t.Fatalf("chaos re-run changed the makespan: %g vs %g", a.VTime, b.VTime)
	}
	for k, v := range a.Counters {
		if b.Counters[k] != v {
			t.Fatalf("chaos re-run changed counter %q: %d vs %d", k, v, b.Counters[k])
		}
	}
	sameOutput(t, "chaos-repro", sortedOutput(a.Output), sortedOutput(b.Output))

	// The injected stragglers must really be there, or the test is
	// checking nothing.
	e := newE2E(t, 800, 25)
	clean, err := e.rt.Submit(chaosConf(e, "repro-clean", nil))
	if err != nil {
		t.Fatal(err)
	}
	if a.VTime <= clean.VTime {
		t.Fatal("straggler injection did not stretch the makespan")
	}
}
