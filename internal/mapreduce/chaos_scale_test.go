package mapreduce

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"efind/internal/chaos"
	"efind/internal/dfs"
	"efind/internal/sim"
)

// TestMedianDurationEmptyPhase: the straggler yardstick must not panic
// when a crash has discarded every assignment before the speculation
// scan (regression: medianDuration indexed durs[len/2] unconditionally).
func TestMedianDurationEmptyPhase(t *testing.T) {
	if got := medianDuration(nil); got != 0 {
		t.Fatalf("medianDuration(nil) = %g, want 0", got)
	}
	if got := medianDuration([]sim.Assignment{}); got != 0 {
		t.Fatalf("medianDuration(empty) = %g, want 0", got)
	}
}

// TestMedianDurationMatchesSortedIndex pins the quickselect yardstick to
// the sort-based definition it replaced: sorted durations indexed at
// len/2, for odd and even sizes and heavy duplicates.
func TestMedianDurationMatchesSortedIndex(t *testing.T) {
	patterns := map[string]func(i, n int) float64{
		"ascending":  func(i, n int) float64 { return float64(i) },
		"descending": func(i, n int) float64 { return float64(n - i) },
		"sawtooth":   func(i, n int) float64 { return float64(i % 7) },
		"constant":   func(i, n int) float64 { return 3.5 },
		"two-level":  func(i, n int) float64 { return float64(1 + i&1) },
		"lcg": func(i, n int) float64 {
			x := uint32(i)*1664525 + 1013904223
			return float64(x%1000) / 10
		},
	}
	for name, gen := range patterns {
		for _, n := range []int{1, 2, 3, 4, 5, 11, 12, 13, 64, 100, 257} {
			assigns := make([]sim.Assignment, n)
			durs := make([]float64, n)
			for i := range assigns {
				d := gen(i, n)
				assigns[i].Duration = d
				durs[i] = d
			}
			sort.Float64s(durs)
			want := durs[n/2]
			if got := medianDuration(assigns); got != want {
				t.Fatalf("%s n=%d: medianDuration = %g, want sorted[n/2] = %g", name, n, got, want)
			}
		}
	}
}

// TestQuickselectAllRanks checks every rank, not just the median, so the
// partition logic has no untested branch.
func TestQuickselectAllRanks(t *testing.T) {
	for _, n := range []int{1, 2, 7, 12, 13, 40, 97} {
		base := make([]float64, n)
		for i := range base {
			x := uint32(i)*22695477 + 1
			base[i] = float64(x % 50)
		}
		sorted := append([]float64(nil), base...)
		sort.Float64s(sorted)
		for k := 0; k < n; k++ {
			work := append([]float64(nil), base...)
			if got := quickselect(work, k); got != sorted[k] {
				t.Fatalf("n=%d k=%d: quickselect = %g, want %g", n, k, got, sorted[k])
			}
		}
	}
}

// refreshPhaseNaive is the pre-scale reference implementation: full
// aggregate recompute plus a full re-sort, with recovery waves added.
func refreshPhaseNaive(p *sim.PhaseResult, waves int) {
	p.Waves += waves
	p.Makespan = 0
	p.LocalTasks = 0
	for _, a := range p.Assignments {
		if end := a.Start + a.Duration; end > p.Makespan {
			p.Makespan = end
		}
		if a.Local {
			p.LocalTasks++
		}
	}
	sort.Slice(p.Assignments, func(i, j int) bool {
		if p.Assignments[i].Start != p.Assignments[j].Start {
			return p.Assignments[i].Start < p.Assignments[j].Start
		}
		return p.Assignments[i].Task < p.Assignments[j].Task
	})
}

// buildSortedPhase builds a deterministic phase already in (start, task)
// order, as the scheduler emits it.
func buildSortedPhase(n int) sim.PhaseResult {
	p := sim.PhaseResult{Waves: 3}
	for i := 0; i < n; i++ {
		x := uint32(i)*1103515245 + 12345
		a := sim.Assignment{
			Task:     i,
			Node:     sim.NodeID(x % 16),
			Slot:     int32(x % 4),
			Start:    float64(x % 97),
			Duration: 1 + float64(x%13),
			Local:    x%3 == 0,
		}
		p.Assignments = append(p.Assignments, a)
	}
	sort.Slice(p.Assignments, func(i, j int) bool {
		if p.Assignments[i].Start != p.Assignments[j].Start {
			return p.Assignments[i].Start < p.Assignments[j].Start
		}
		return p.Assignments[i].Task < p.Assignments[j].Task
	})
	for _, a := range p.Assignments {
		if end := a.Start + a.Duration; end > p.Makespan {
			p.Makespan = end
		}
		if a.Local {
			p.LocalTasks++
		}
	}
	return p
}

// TestRefreshPhaseMatchesNaive rewrites scattered subsets of a phase the
// way chaos splicing does, then demands the incremental merge-based
// refreshPhase agree exactly with the reference full recompute — for no
// rewrites, sparse rewrites, and everything-rewritten.
func TestRefreshPhaseMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 17, 100} {
		for _, stride := range []int{0, 1, 3, 7} { // 0 = rewrite nothing
			got := buildSortedPhase(n)
			want := buildSortedPhase(n)
			patch := newPhasePatch(n)
			waves := 0
			if stride > 0 {
				waves = 2
				for i := 0; i < n; i += stride {
					// Rewrite like a recovery splice: new placement, late start.
					x := uint32(i)*2654435761 + 7
					got.Assignments[i] = sim.Assignment{
						Task:     got.Assignments[i].Task,
						Node:     sim.NodeID(x % 16),
						Slot:     int32(x % 4),
						Start:    50 + float64(x%60),
						Duration: 1 + float64(x%5),
						Local:    x%2 == 0,
					}
					want.Assignments[i] = got.Assignments[i]
					patch.mark(i)
				}
			}
			patch.waves = waves
			refreshPhase(&got, patch)
			refreshPhaseNaive(&want, waves)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d stride=%d: incremental refreshPhase diverged from naive:\n got  %+v\n want %+v", n, stride, got, want)
			}
		}
	}
}

// TestRefreshPhaseUntouchedIsNoop: a chaos pass that rewrote nothing must
// leave the phase bit-identical (no spurious re-sort, no aggregate
// drift), only folding in any recovery wave count.
func TestRefreshPhaseUntouchedIsNoop(t *testing.T) {
	p := buildSortedPhase(50)
	want := buildSortedPhase(50)
	refreshPhase(&p, newPhasePatch(50))
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("refreshPhase with empty patch mutated the phase:\n got  %+v\n want %+v", p, want)
	}
}

// TestCrashRecoveryRefreshesPhaseAggregates pins satellite fix 2 end to
// end: after a crash splices a recovery wave into the map phase, Waves
// must include the recovery wave's scheduling waves and LocalTasks and
// Makespan must describe the post-splice schedule — not the pre-crash
// one (regression: refreshPhase recomputed only Makespan, and nothing
// added recovery waves).
func TestCrashRecoveryRefreshesPhaseAggregates(t *testing.T) {
	fs, e := chaosEnv(t, 1)
	in := makeInput(t, fs, "in", 900)
	clean, err := e.Run(wordCountJob(in, "wc-clean", false))
	if err != nil {
		t.Fatal(err)
	}

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
	if crashed.Counters[chaos.CtrTasksLost] == 0 {
		t.Fatal("crash discarded no tasks; aggregates check is vacuous")
	}

	if crashed.MapPhase.Waves <= clean.MapPhase.Waves {
		t.Fatalf("recovery wave not reflected in Waves: crashed %d, clean %d", crashed.MapPhase.Waves, clean.MapPhase.Waves)
	}
	locals, makespan := 0, 0.0
	for _, a := range crashed.MapPhase.Assignments {
		if a.Local {
			locals++
		}
		if end := a.Start + a.Duration; end > makespan {
			makespan = end
		}
	}
	if crashed.MapPhase.LocalTasks != locals {
		t.Fatalf("LocalTasks stale after splice: field %d, recount %d", crashed.MapPhase.LocalTasks, locals)
	}
	if math.Abs(crashed.MapPhase.Makespan-makespan) > 1e-12 {
		t.Fatalf("Makespan stale after splice: field %g, recount %g", crashed.MapPhase.Makespan, makespan)
	}
}

// TestChaosMapOnlyAtClusterScale is the check the scale-sweep experiment
// made beside its timings: on a cluster of a few hundred nodes of mixed
// speeds, a map-only job of one-record splits — a node crash halfway,
// stragglers, and speculation capped per phase — must produce the map
// outputs of the fault-free run, and the cap must hold.
func TestChaosMapOnlyAtClusterScale(t *testing.T) {
	const nodes, splits, maxBackups = 200, 800, 16 // uncapped, this seed launches 41 backups
	run := func(name string, plan *chaos.Plan) *MapPhaseResult {
		cfg := sim.DefaultConfig()
		cfg.Nodes = nodes
		cfg.Parallelism = 1
		cfg.TaskStartup = 0.005
		cfg.NodeSpeed = make([]float64, nodes)
		for i := range cfg.NodeSpeed {
			cfg.NodeSpeed[i] = []float64{1, 1, 0.5, 2}[i%4]
		}
		cluster := sim.NewCluster(cfg)
		fs := dfs.New(cluster)
		fs.ChunkTarget = 1 // one record per chunk = one task per record
		records := make([]dfs.Record, splits)
		for i := range records {
			records[i] = dfs.Record{Key: fmt.Sprintf("k%07d", i), Value: "v"}
		}
		in, err := fs.Create("scale-in", records)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(cluster, fs).NewRun().RunMapPhase(&Job{Name: name, Input: in, Chaos: plan}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run("scale-clean", nil)
	at := 0.5 * clean.Phase.Makespan
	chaotic := run("scale-chaos", chaos.MustNew(chaos.Config{
		Seed:            1,
		Crashes:         []chaos.Crash{{Node: clean.Phase.Assignments[0].Node, At: at, Recover: at + 1e6}},
		Spec:            chaos.Speculation{Enabled: true, MaxPerPhase: maxBackups},
		StragglerRate:   0.2,
		StragglerFactor: 8,
	}, nodes))

	if len(chaotic.Outputs) != splits {
		t.Fatalf("chaos run has %d map outputs, want %d", len(chaotic.Outputs), splits)
	}
	for i := range clean.Outputs {
		c, x := clean.Outputs[i], chaotic.Outputs[i]
		if !reflect.DeepEqual(c.Buckets, x.Buckets) || !reflect.DeepEqual(c.Reducers, x.Reducers) {
			t.Fatalf("chaos changed the map output of split %d", i)
		}
	}
	if got := chaotic.Counters[chaos.CtrNodeCrashes]; got != 1 {
		t.Fatalf("node crashes = %d, want 1", got)
	}
	launched := chaotic.Counters[chaos.CtrSpecLaunched]
	if launched != maxBackups {
		t.Fatalf("%d speculative backups launched, want the cap of %d", launched, maxBackups)
	}
}
