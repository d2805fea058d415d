package mapreduce

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"efind/internal/chaos"
	"efind/internal/dfs"
	"efind/internal/obs"
	"efind/internal/sim"
)

// chaosEnv is testEnv with a configurable executor parallelism and a
// task startup cost small enough that a chaos-slowed task really runs
// past the speculation threshold (with testEnv's 0.01 startup the
// constant term drowns the slowdown of the actual work).
func chaosEnv(t *testing.T, parallelism int) (*dfs.FS, *Engine) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Nodes = 4
	cfg.MapSlotsPerNode = 2
	cfg.ReduceSlotsPerNode = 1
	cfg.TaskStartup = 0.0001
	cfg.Parallelism = parallelism
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 1 << 10
	return fs, New(cluster, fs)
}

// rawOutput returns the output records in shard order, un-sorted: the
// chaos tests assert BIT-identical output, not merely equal multisets.
func rawOutput(r *Result) []string {
	var out []string
	for _, rec := range r.Output.All() {
		out = append(out, rec.Key+"\x00"+rec.Value)
	}
	return out
}

func sameRaw(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: output sizes differ: %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: outputs differ at %d:\n  want %q\n  got  %q", label, i, want[i], got[i])
		}
	}
}

// nonChaosCounters strips the counters the chaos machinery itself emits,
// leaving the cost-model-relevant ones that must match a fault-free run.
func nonChaosCounters(c map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(c))
	for k, v := range c {
		if strings.HasPrefix(k, "chaos.") || strings.HasPrefix(k, "task.speculative.") {
			continue
		}
		out[k] = v
	}
	return out
}

// TestChaosCrashRecoveryBitIdenticalOutput crashes one node mid-map and
// demands the lost tasks re-run on survivors with output and cost
// counters bit-identical to the fault-free run.
func TestChaosCrashRecoveryBitIdenticalOutput(t *testing.T) {
	fs, e := chaosEnv(t, 1)
	in := makeInput(t, fs, "in", 900)
	clean, err := e.Run(wordCountJob(in, "wc-clean", false))
	if err != nil {
		t.Fatal(err)
	}

	// Crash the node holding the first assignment, halfway through the
	// (identically scheduled) map phase, with no recovery until long
	// after the job: the recovery wave must avoid the dead node.
	victim := clean.MapPhase.Assignments[0].Node
	at := 0.5 * clean.MapPhase.Makespan
	fs2, e2 := chaosEnv(t, 1)
	in2 := makeInput(t, fs2, "in", 900)
	job := wordCountJob(in2, "wc-crash", false)
	job.Chaos = chaos.MustNew(chaos.Config{
		Seed:    1,
		Crashes: []chaos.Crash{{Node: victim, At: at, Recover: at + 1000}},
	}, 4)
	crashed, err := e2.Run(job)
	if err != nil {
		t.Fatal(err)
	}

	if got := crashed.Counters[chaos.CtrNodeCrashes]; got != 1 {
		t.Fatalf("node crashes = %d, want 1", got)
	}
	if crashed.Counters[chaos.CtrTasksLost] == 0 {
		t.Fatal("crash discarded no tasks; the victim held assignments")
	}
	for _, a := range crashed.MapPhase.Assignments {
		if a.Node == victim {
			t.Fatalf("map task %d still placed on crashed node %d", a.Task, victim)
		}
	}
	if crashed.VTime <= clean.VTime {
		t.Fatalf("re-executing lost tasks should cost virtual time: %g vs clean %g", crashed.VTime, clean.VTime)
	}
	sameRaw(t, "crash-recovery", rawOutput(clean), rawOutput(crashed))
	if want, got := nonChaosCounters(clean.Counters), nonChaosCounters(crashed.Counters); !reflect.DeepEqual(want, got) {
		t.Fatalf("crash recovery skewed cost counters:\n want %v\n got  %v", want, got)
	}
}

// TestChaosReduceCrashRecoveryBitIdenticalOutput crashes the node holding
// the first reduce assignment halfway through the reduce phase, under the
// serial and the parallel executor: only that node's reduce tasks re-run
// (map outputs count as fetched), and output and cost counters stay
// bit-identical to the fault-free run.
func TestChaosReduceCrashRecoveryBitIdenticalOutput(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		fs, e := chaosEnv(t, parallelism)
		in := makeInput(t, fs, "in", 900)
		clean, err := e.Run(wordCountJob(in, "wc-clean", false))
		if err != nil {
			t.Fatal(err)
		}

		victim := clean.ReducePhase.Assignments[0].Node
		at := clean.MapPhase.Makespan + 0.5*clean.ReducePhase.Makespan
		fs2, e2 := chaosEnv(t, parallelism)
		in2 := makeInput(t, fs2, "in", 900)
		job := wordCountJob(in2, "wc-reduce-crash", false)
		job.Chaos = chaos.MustNew(chaos.Config{
			Seed:    1,
			Crashes: []chaos.Crash{{Node: victim, At: at, Recover: at + 1000}},
		}, 4)
		crashed, err := e2.Run(job)
		if err != nil {
			t.Fatal(err)
		}

		if got := crashed.Counters[chaos.CtrNodeCrashes]; got != 1 {
			t.Fatalf("parallelism %d: node crashes = %d, want 1", parallelism, got)
		}
		if crashed.Counters[chaos.CtrTasksLost] == 0 {
			t.Fatalf("parallelism %d: crash discarded no tasks; the victim held a reduce assignment", parallelism)
		}
		if !reflect.DeepEqual(clean.MapPhase, crashed.MapPhase) {
			t.Fatalf("parallelism %d: a reduce-phase crash rewrote the map phase", parallelism)
		}
		for _, a := range crashed.ReducePhase.Assignments {
			if a.Node == victim {
				t.Fatalf("parallelism %d: reduce task %d still placed on crashed node %d", parallelism, a.Task, victim)
			}
		}
		if crashed.VTime <= clean.VTime {
			t.Fatalf("parallelism %d: re-executing lost tasks should cost virtual time: %g vs clean %g", parallelism, crashed.VTime, clean.VTime)
		}
		sameRaw(t, "reduce-crash-recovery", rawOutput(clean), rawOutput(crashed))
		if want, got := nonChaosCounters(clean.Counters), nonChaosCounters(crashed.Counters); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: crash recovery skewed cost counters:\n want %v\n got  %v", parallelism, want, got)
		}
	}
}

// TestChaosSpeculationNeverDoubleCharges injects stragglers with
// speculative backups across several seeds: whatever the race outcomes,
// the output must stay bit-identical and the losing attempts' work must
// never leak into the cost-model counters.
func TestChaosSpeculationNeverDoubleCharges(t *testing.T) {
	fs, e := chaosEnv(t, 1)
	in := makeInput(t, fs, "in", 900)
	clean, err := e.Run(wordCountJob(in, "wc-clean", false))
	if err != nil {
		t.Fatal(err)
	}
	cleanRaw := rawOutput(clean)
	cleanCtr := nonChaosCounters(clean.Counters)

	for _, seed := range []int64{7, 21, 99} {
		fs2, e2 := chaosEnv(t, 1)
		in2 := makeInput(t, fs2, "in", 900)
		job := wordCountJob(in2, fmt.Sprintf("wc-spec-%d", seed), false)
		job.Chaos = chaos.MustNew(chaos.Config{
			Seed:            seed,
			Spec:            chaos.Speculation{Enabled: true},
			StragglerRate:   0.25,
			StragglerFactor: 6,
		}, 4)
		res, err := e2.Run(job)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		launched := res.Counters[chaos.CtrSpecLaunched]
		if launched == 0 {
			t.Fatalf("seed %d: no speculative backups launched", seed)
		}
		if won, lost := res.Counters[chaos.CtrSpecWon], res.Counters[chaos.CtrSpecLost]; won+lost != launched {
			t.Fatalf("seed %d: speculation races unaccounted: launched %d, won %d, lost %d", seed, launched, won, lost)
		}
		sameRaw(t, fmt.Sprintf("speculation-seed-%d", seed), cleanRaw, rawOutput(res))
		if got := nonChaosCounters(res.Counters); !reflect.DeepEqual(cleanCtr, got) {
			t.Fatalf("seed %d: speculative duplicates double-charged counters:\n want %v\n got  %v", seed, cleanCtr, got)
		}
	}
}

// chaosRunTraced runs one full chaos job (crashes + stragglers + backups)
// on a fresh environment with the given executor parallelism, returning
// the result and the exported Chrome trace bytes.
func chaosRunTraced(t *testing.T, parallelism int, crashes []chaos.Crash) (*Result, []byte) {
	t.Helper()
	fs, e := chaosEnv(t, parallelism)
	e.Trace = obs.NewTrace()
	in := makeInput(t, fs, "in", 900)
	job := wordCountJob(in, "wc-chaos", false)
	job.Chaos = chaos.MustNew(chaos.Config{
		Seed:            42,
		Crashes:         crashes,
		Spec:            chaos.Speculation{Enabled: true},
		StragglerRate:   0.3,
		StragglerFactor: 5,
	}, 4)
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// tasksLost sums the crash-discarded attempts recorded on a phase's tasks.
func tasksLost(stats []TaskStats) (n int64) {
	for _, st := range stats {
		n += st.Counters.Get(slotTasksLost)
	}
	return n
}

// TestChaosSameSeedSerialParallelIdentical: one seed, a crash in each
// phase, serial and parallel executors — output, every counter, the
// virtual makespan, and the exported trace must be bit-identical.
func TestChaosSameSeedSerialParallelIdentical(t *testing.T) {
	fs, e := chaosEnv(t, 1)
	in := makeInput(t, fs, "in", 900)
	clean, err := e.Run(wordCountJob(in, "wc-clean", false))
	if err != nil {
		t.Fatal(err)
	}
	crashAt := 0.4 * clean.MapPhase.Makespan
	crashes := []chaos.Crash{{Node: 1, At: crashAt, Recover: crashAt + 1000}}

	// The map-phase crash and the seed fix when the chaos run's reduce
	// phase starts; a probe run finds that window, and a second crash is
	// put halfway through it on a node holding a reduce assignment.
	probe, _ := chaosRunTraced(t, 1, crashes)
	reduceAt := probe.MapPhase.Makespan + 0.5*probe.ReducePhase.Makespan
	crashes = append(crashes, chaos.Crash{Node: probe.ReducePhase.Assignments[0].Node, At: reduceAt, Recover: reduceAt + 1000})

	serial, serialTrace := chaosRunTraced(t, 1, crashes)
	parallel, parallelTrace := chaosRunTraced(t, 8, crashes)

	if serial.VTime != parallel.VTime {
		t.Fatalf("chaos makespan diverged: serial %g vs parallel %g", serial.VTime, parallel.VTime)
	}
	if !reflect.DeepEqual(serial.Counters, parallel.Counters) {
		t.Fatalf("chaos counters diverged:\n serial   %v\n parallel %v", serial.Counters, parallel.Counters)
	}
	sameRaw(t, "serial-vs-parallel", rawOutput(serial), rawOutput(parallel))
	if !bytes.Equal(serialTrace, parallelTrace) {
		t.Fatalf("chaos trace bytes diverged: serial %d bytes vs parallel %d bytes", len(serialTrace), len(parallelTrace))
	}
	if got := serial.Counters[chaos.CtrNodeCrashes]; got != 2 {
		t.Fatalf("chaos run applied %d crashes, want one per phase; the determinism check is vacuous", got)
	}
	if m, r := tasksLost(serial.MapStats), tasksLost(serial.ReduceStats); m == 0 || r == 0 {
		t.Fatalf("tasks lost: map %d, reduce %d; each phase's crash must discard work", m, r)
	}
}

// TestChaosDifferentSeedsSameOutput: the fault schedule changes with the
// seed, the answer never does.
func TestChaosDifferentSeedsSameOutput(t *testing.T) {
	fs, e := chaosEnv(t, 1)
	in := makeInput(t, fs, "in", 900)
	clean, err := e.Run(wordCountJob(in, "wc-clean", false))
	if err != nil {
		t.Fatal(err)
	}
	window := clean.MapPhase.Makespan

	for _, seed := range []int64{1, 2, 3} {
		fs2, e2 := chaosEnv(t, 1)
		in2 := makeInput(t, fs2, "in", 900)
		job := wordCountJob(in2, fmt.Sprintf("wc-seed-%d", seed), false)
		job.Chaos = chaos.MustNew(chaos.Config{
			Seed:            seed,
			CrashCount:      1,
			CrashFrom:       0.1 * window,
			CrashUntil:      0.9 * window,
			CrashRecovery:   1000,
			Spec:            chaos.Speculation{Enabled: true},
			StragglerRate:   0.3,
			StragglerFactor: 5,
		}, 4)
		res, err := e2.Run(job)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameRaw(t, fmt.Sprintf("seed-%d", seed), rawOutput(clean), rawOutput(res))
	}
}

// TestEngineRunTwiceWithChaosIdentical runs the same absolutely-timed
// chaos job twice through ONE engine. Engine.Run hands each call a fresh
// JobRun, so the virtual clock restarts at zero and the crash window
// lands identically both times. (Before per-job run state, the engine's
// clock carried over: the second run started past the crash time and the
// fault silently never fired.)
func TestEngineRunTwiceWithChaosIdentical(t *testing.T) {
	fs, e := chaosEnv(t, 1)
	in := makeInput(t, fs, "in", 900)

	probe, err := e.Run(wordCountJob(in, "wc-probe", false))
	if err != nil {
		t.Fatal(err)
	}
	victim := probe.MapPhase.Assignments[0].Node
	at := 0.5 * probe.MapPhase.Makespan

	run := func(name string) *Result {
		job := wordCountJob(in, name, false)
		job.Chaos = chaos.MustNew(chaos.Config{
			Seed:    7,
			Crashes: []chaos.Crash{{Node: victim, At: at, Recover: at + 1000}},
		}, 4)
		res, err := e.Run(job)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	first := run("wc-twice-a")
	second := run("wc-twice-b")

	for i, res := range []*Result{first, second} {
		if got := res.Counters[chaos.CtrNodeCrashes]; got != 1 {
			t.Fatalf("run %d: node crashes = %d, want 1 — the crash window must fire on every run", i+1, got)
		}
	}
	if first.VTime != second.VTime {
		t.Fatalf("virtual time leaked across runs: %g vs %g", first.VTime, second.VTime)
	}
	sameRaw(t, "run-twice", rawOutput(first), rawOutput(second))
	if !reflect.DeepEqual(first.Counters, second.Counters) {
		t.Fatalf("counters diverged across identical runs:\n want %v\n got  %v", first.Counters, second.Counters)
	}
}
