package chaos

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"efind/internal/index"
	"efind/internal/sim"
)

func TestValidateRejectsBadSchedules(t *testing.T) {
	cases := []Config{
		{Crashes: []Crash{{Node: 1, At: 5, Recover: 3}}},
		{Outages: []Outage{{Index: "kv", From: 2, Until: 1}}},
		{StragglerRate: 1.5},
		{StragglerRate: -0.1},
		{CrashCount: 2, CrashFrom: 3, CrashUntil: 3},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, 4); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		}
	}
	if _, err := New(Config{}, 0); err == nil {
		t.Errorf("zero nodes accepted, want error")
	}
}

func TestRandomCrashesDeterministicInSeed(t *testing.T) {
	cfg := Config{Seed: 7, CrashCount: 3, CrashFrom: 1, CrashUntil: 9, CrashRecovery: 2}
	a := MustNew(cfg, 8)
	b := MustNew(cfg, 8)
	if !reflect.DeepEqual(a.crashes, b.crashes) {
		t.Fatalf("same seed, different crash schedules:\n%v\n%v", a.crashes, b.crashes)
	}
	c := MustNew(Config{Seed: 8, CrashCount: 3, CrashFrom: 1, CrashUntil: 9, CrashRecovery: 2}, 8)
	if reflect.DeepEqual(a.crashes, c.crashes) {
		t.Fatalf("different seeds produced identical crash schedules: %v", a.crashes)
	}
	for _, cr := range a.crashes {
		if cr.At < 1 || cr.At >= 9 {
			t.Errorf("crash at %g outside window [1,9)", cr.At)
		}
		if cr.Recover != cr.At+2 {
			t.Errorf("crash at %g recovers at %g, want At+2", cr.At, cr.Recover)
		}
	}
}

func TestNodeDownAndCrashesIn(t *testing.T) {
	p := MustNew(Config{Crashes: []Crash{
		{Node: 2, At: 5, Recover: 8},
		{Node: 0, At: 12, Recover: 20},
	}}, 4)
	if p.NodeDown(2, 4.9) || !p.NodeDown(2, 5) || !p.NodeDown(2, 7.9) || p.NodeDown(2, 8) {
		t.Fatalf("crash window [5,8) of node 2 misevaluated")
	}
	if p.NodeDown(1, 6) {
		t.Fatalf("node 1 never crashes")
	}
	got := p.CrashesIn(0, 10)
	if len(got) != 1 || got[0].Node != 2 {
		t.Fatalf("CrashesIn(0,10) = %v, want the node-2 crash only", got)
	}
	if got := p.CrashesIn(5, 5); len(got) != 0 {
		t.Fatalf("empty window returned crashes: %v", got)
	}
}

func TestPartitionDownScoping(t *testing.T) {
	p := MustNew(Config{Outages: []Outage{
		{Index: "kv", Partition: 3, From: 1, Until: 4},
		{Index: "geo", Partition: -1, From: 2, Until: math.Inf(1)},
	}}, 4)
	if !p.HasOutages() {
		t.Fatalf("HasOutages = false with two outages")
	}
	if !p.PartitionDown("kv", 3, 1) || p.PartitionDown("kv", 3, 4) {
		t.Fatalf("kv[3] window [1,4) misevaluated")
	}
	if p.PartitionDown("kv", 2, 2) {
		t.Fatalf("kv[2] reported down; outage scoped to partition 3")
	}
	// Partition -1 takes every partition of the index down, forever.
	if !p.PartitionDown("geo", 0, 2) || !p.PartitionDown("geo", 9, 1e12) {
		t.Fatalf("whole-index outage of geo misevaluated")
	}
	if p.PartitionDown("other", 0, 2) {
		t.Fatalf("outage leaked to an unrelated index")
	}
}

func TestSlowFactorPureAndRateGated(t *testing.T) {
	p := MustNew(Config{Seed: 3, StragglerRate: 0.3, StragglerFactor: 5}, 4)
	slowed := 0
	for task := 0; task < 1000; task++ {
		f := p.SlowFactor(1, task)
		if f != p.SlowFactor(1, task) {
			t.Fatalf("SlowFactor not pure for task %d", task)
		}
		switch f {
		case 1:
		case 5:
			slowed++
		default:
			t.Fatalf("SlowFactor(1,%d) = %g, want 1 or 5", task, f)
		}
	}
	// ~30% of 1000 draws; a wide band keeps the test seed-robust.
	if slowed < 200 || slowed > 400 {
		t.Fatalf("slowed %d of 1000 tasks, want ≈300", slowed)
	}
	none := MustNew(Config{Seed: 3}, 4)
	if f := none.SlowFactor(1, 7); f != 1 {
		t.Fatalf("zero rate slowed a task: %g", f)
	}
}

func TestSpecDefaults(t *testing.T) {
	p := MustNew(Config{Spec: Speculation{Enabled: true}}, 4)
	if s := p.Spec(); !s.Enabled || s.Threshold != 2.0 {
		t.Fatalf("Spec() = %+v, want Enabled with Threshold 2.0", s)
	}
}

func TestBackoffCapJitterDeterminism(t *testing.T) {
	plain := Backoff{Base: 0.1, Factor: 2}
	for k, want := range []float64{0.1, 0.2, 0.4, 0.8} {
		if got := plain.Wait("key", k); math.Abs(got-want) > 1e-12 {
			t.Fatalf("plain Wait(%d) = %g, want %g", k, got, want)
		}
	}
	capped := Backoff{Base: 0.1, Factor: 2, Cap: 0.25}
	if got := capped.Wait("key", 5); got != 0.25 {
		t.Fatalf("capped Wait(5) = %g, want 0.25", got)
	}
	j := Backoff{Base: 0.1, Factor: 2, Cap: 0.25, Jitter: 0.5, Seed: 11}
	if a, b := j.Wait("key", 2), j.Wait("key", 2); a != b {
		t.Fatalf("jittered Wait not deterministic: %g vs %g", a, b)
	}
	if a, b := j.Wait("key", 2), j.Wait("other", 2); a == b {
		t.Fatalf("jitter did not desynchronize distinct tokens: both %g", a)
	}
	lo, hi := 0.25*0.5, 0.25*1.5
	for _, tok := range []string{"a", "b", "c", "d"} {
		if w := j.Wait(tok, 5); w < lo || w > hi {
			t.Fatalf("jittered Wait(%q) = %g outside [%g,%g]", tok, w, lo, hi)
		}
	}
	if w := (Backoff{}).Wait("key", 3); w != 0 {
		t.Fatalf("zero Backoff waited %g, want 0", w)
	}
}

func TestErrUnavailableIsTransient(t *testing.T) {
	// The retry ladder only re-attempts transient errors; an outage
	// must be one so the backoff ladder can poll for the window's end.
	if !errors.Is(ErrUnavailable, index.ErrTransient) {
		t.Fatalf("ErrUnavailable must wrap index.ErrTransient")
	}
}

func TestPlanSafeForConcurrentReads(t *testing.T) {
	p := MustNew(Config{Seed: 5, CrashCount: 4, CrashFrom: 0, CrashUntil: 10, CrashRecovery: 3,
		StragglerRate: 0.5, Outages: []Outage{{Index: "kv", Partition: 1, From: 2, Until: 6}}}, 6)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				p.NodeDown(sim.NodeID(i%6), float64(i)/50)
				p.PartitionDown("kv", i%4, float64(i)/50)
				p.SlowFactor(g, i)
				p.CrashesIn(0, float64(i))
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
