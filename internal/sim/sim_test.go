package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidateRejectsBadValues(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"negative nodes", func(c *Config) { c.Nodes = -3 }},
		{"zero map slots", func(c *Config) { c.MapSlotsPerNode = 0 }},
		{"zero reduce slots", func(c *Config) { c.ReduceSlotsPerNode = 0 }},
		{"zero bandwidth", func(c *Config) { c.NetBandwidth = 0 }},
		{"zero disk", func(c *Config) { c.DiskRate = 0 }},
		{"negative dfs cost", func(c *Config) { c.DFSWriteCost = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("expected validation error for %s", tc.name)
			}
		})
	}
}

func TestCostHelpers(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	if got, want := c.DiskTime(cfg.DiskRate), 1.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("DiskTime = %g, want %g", got, want)
	}
	if got, want := c.NetTime(cfg.NetBandwidth), 1.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("NetTime = %g, want %g", got, want)
	}
	if got, want := c.DFSTime(2), 2*cfg.DFSWriteCost; math.Abs(got-want) > 1e-18 {
		t.Fatalf("DFSTime = %g, want %g", got, want)
	}
	if got, want := c.CPUTime(10, 100), 10*cfg.CPUPerRecord+100*cfg.CPUPerByte; math.Abs(got-want) > 1e-15 {
		t.Fatalf("CPUTime = %g, want %g", got, want)
	}
}

func TestPlaceReplicasDistinctAndInRange(t *testing.T) {
	c := NewCluster(DefaultConfig())
	for i := 0; i < 100; i++ {
		reps := c.PlaceReplicas(3)
		if len(reps) != 3 {
			t.Fatalf("want 3 replicas, got %d", len(reps))
		}
		seen := map[NodeID]bool{}
		for _, r := range reps {
			if r < 0 || int(r) >= c.Nodes() {
				t.Fatalf("replica node %d out of range", r)
			}
			if seen[r] {
				t.Fatalf("duplicate replica node %d in %v", r, reps)
			}
			seen[r] = true
		}
	}
}

func TestPlaceReplicasClampedToClusterSize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	c := NewCluster(cfg)
	if got := c.PlaceReplicas(5); len(got) != 2 {
		t.Fatalf("want clamp to 2 replicas, got %d", len(got))
	}
}

func TestSchedulePhaseSingleWave(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.MapSlotsPerNode = 2
	cfg.TaskStartup = 0
	c := NewCluster(cfg)

	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{Run: func(NodeID, float64) float64 { return 10 }}
	}
	res := c.SchedulePhase(tasks, cfg.MapSlotsPerNode)
	if res.Waves != 1 {
		t.Fatalf("want 1 wave, got %d", res.Waves)
	}
	if math.Abs(res.Makespan-10) > 1e-9 {
		t.Fatalf("8 equal tasks on 8 slots should take one task time, got %g", res.Makespan)
	}
}

func TestSchedulePhaseTwoWaves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.MapSlotsPerNode = 2
	cfg.TaskStartup = 0
	c := NewCluster(cfg)

	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{Run: func(NodeID, float64) float64 { return 5 }}
	}
	res := c.SchedulePhase(tasks, cfg.MapSlotsPerNode)
	if res.Waves != 2 {
		t.Fatalf("want 2 waves, got %d", res.Waves)
	}
	if math.Abs(res.Makespan-10) > 1e-9 {
		t.Fatalf("8 tasks on 4 slots at 5s = 10s makespan, got %g", res.Makespan)
	}
}

func TestSchedulePhasePrefersLocality(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.MapSlotsPerNode = 1
	cfg.TaskStartup = 0
	c := NewCluster(cfg)

	// One task per node, each preferring a distinct node: all should land
	// on their preferred node.
	tasks := make([]Task, 4)
	for i := range tasks {
		tasks[i] = Task{
			Preferred: []NodeID{NodeID(i)},
			Run:       func(NodeID, float64) float64 { return 1 },
		}
	}
	res := c.SchedulePhase(tasks, 1)
	if res.LocalTasks != 4 {
		t.Fatalf("want all 4 tasks local, got %d", res.LocalTasks)
	}
	for _, a := range res.Assignments {
		if !ContainsNode(tasks[a.Task].Preferred, a.Node) {
			t.Fatalf("task %d ran on %d, preferred %v", a.Task, a.Node, tasks[a.Task].Preferred)
		}
	}
}

func TestSchedulePhasePlacementPassedToRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.TaskStartup = 0
	c := NewCluster(cfg)

	got := make([]NodeID, 0, 3)
	tasks := []Task{
		{Run: func(n NodeID, _ float64) float64 { got = append(got, n); return 1 }},
		{Run: func(n NodeID, _ float64) float64 { got = append(got, n); return 1 }},
		{Run: func(n NodeID, _ float64) float64 { got = append(got, n); return 1 }},
	}
	res := c.SchedulePhase(tasks, 1)
	if len(res.Assignments) != 3 || len(got) != 3 {
		t.Fatalf("want 3 assignments and 3 Run calls, got %d/%d", len(res.Assignments), len(got))
	}
}

func TestSchedulePhaseEmpty(t *testing.T) {
	c := NewCluster(DefaultConfig())
	res := c.SchedulePhase(nil, 2)
	if res.Makespan != 0 || len(res.Assignments) != 0 {
		t.Fatalf("empty phase should be free, got %+v", res)
	}
}

func TestSchedulePhaseStartupCharged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.MapSlotsPerNode = 1
	cfg.TaskStartup = 2.5
	c := NewCluster(cfg)
	res := c.SchedulePhase([]Task{{Run: func(NodeID, float64) float64 { return 1 }}}, 1)
	if math.Abs(res.Makespan-3.5) > 1e-9 {
		t.Fatalf("startup not charged: makespan %g, want 3.5", res.Makespan)
	}
}

func TestNodeSpeedValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.NodeSpeed = []float64{1, 1} // wrong length
	if err := cfg.Validate(); err == nil {
		t.Fatal("mismatched NodeSpeed length should fail validation")
	}
	cfg.NodeSpeed = []float64{1, 0, 1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero speed should fail validation")
	}
	cfg.NodeSpeed = []float64{1, 0.5, 2}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid speeds rejected: %v", err)
	}
	if got := cfg.SpeedOf(1); got != 0.5 {
		t.Fatalf("SpeedOf(1) = %g", got)
	}
	if got := (Config{}).SpeedOf(5); got != 1 {
		t.Fatalf("unconfigured speed = %g, want 1", got)
	}
}

func TestStragglerStretchesMakespan(t *testing.T) {
	base := DefaultConfig()
	base.Nodes = 4
	base.MapSlotsPerNode = 1
	base.TaskStartup = 0

	run := func(speeds []float64) float64 {
		cfg := base
		cfg.NodeSpeed = speeds
		c := NewCluster(cfg)
		tasks := make([]Task, 4)
		for i := range tasks {
			tasks[i] = Task{Run: func(NodeID, float64) float64 { return 10 }}
		}
		return c.SchedulePhase(tasks, 1).Makespan
	}
	uniform := run(nil)
	straggler := run([]float64{1, 1, 1, 0.25})
	if uniform != 10 {
		t.Fatalf("uniform makespan = %g", uniform)
	}
	// One quarter-speed node stretches its task to 40s, dominating the
	// wave.
	if math.Abs(straggler-40) > 1e-9 {
		t.Fatalf("straggler makespan = %g, want 40", straggler)
	}
}

// Property: makespan is always at least the longest single task and at most
// the serial sum, and every task is assigned exactly once.
func TestSchedulePhaseProperties(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TaskStartup = 0
	f := func(durs []uint16, nodes uint8, slots uint8) bool {
		if len(durs) == 0 || len(durs) > 200 {
			return true
		}
		cfg.Nodes = int(nodes%8) + 1
		cfg.MapSlotsPerNode = int(slots%4) + 1
		c := NewCluster(cfg)
		tasks := make([]Task, len(durs))
		var maxDur, sum float64
		for i, d := range durs {
			dur := float64(d%1000) + 1
			if dur > maxDur {
				maxDur = dur
			}
			sum += dur
			tasks[i] = Task{Run: func(NodeID, float64) float64 { return dur }}
		}
		res := c.SchedulePhase(tasks, cfg.MapSlotsPerNode)
		if len(res.Assignments) != len(tasks) {
			return false
		}
		seen := map[int]bool{}
		for _, a := range res.Assignments {
			if seen[a.Task] {
				return false
			}
			seen[a.Task] = true
		}
		return res.Makespan >= maxDur-1e-9 && res.Makespan <= sum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulePhaseAvailExcludesDownNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.MapSlotsPerNode = 1
	cfg.TaskStartup = 0
	c := NewCluster(cfg)

	tasks := make([]Task, 4)
	for i := range tasks {
		i := i
		tasks[i] = Task{
			Preferred: []NodeID{NodeID(i)},
			Run:       func(NodeID, float64) float64 { return 10 },
		}
	}
	down := func(n NodeID) bool { return n == 2 }
	res := c.SchedulePhaseLease(tasks, 1, nil, down)
	if len(res.Assignments) != 4 {
		t.Fatalf("want 4 assignments, got %d", len(res.Assignments))
	}
	for _, a := range res.Assignments {
		if a.Node == 2 {
			t.Fatalf("task %d placed on down node 2", a.Task)
		}
	}
	// 4 tasks on 3 surviving single-slot nodes: two waves.
	if res.Waves != 2 {
		t.Fatalf("want 2 waves on 3 surviving slots, got %d", res.Waves)
	}
	if math.Abs(res.Makespan-20) > 1e-9 {
		t.Fatalf("makespan = %g, want 20", res.Makespan)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("scheduling with every node down must panic")
		}
	}()
	c.SchedulePhaseLease(tasks, 1, nil, func(NodeID) bool { return true })
}
