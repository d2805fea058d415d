package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestRegistrySnapshotsSorted(t *testing.T) {
	r := NewRegistry()
	r.Add("zeta", 3)
	r.Add("alpha", 1)
	r.Add("mid", 2)
	r.Add("alpha", 4)
	r.SetGauge("z.g", 1.5)
	r.SetGauge("a.g", 0.5)

	cs := r.Counters()
	if len(cs) != 3 {
		t.Fatalf("got %d counters, want 3", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Name >= cs[i].Name {
			t.Fatalf("counters not sorted: %q before %q", cs[i-1].Name, cs[i].Name)
		}
	}
	if cs[0].Name != "alpha" || cs[0].Value != 5 {
		t.Fatalf("alpha = %+v, want value 5", cs[0])
	}
	gs := r.Gauges()
	if gs[0].Name != "a.g" || gs[1].Name != "z.g" {
		t.Fatalf("gauges not sorted: %+v", gs)
	}
	if got := r.Counter("mid"); got != 2 {
		t.Fatalf("Counter(mid) = %d, want 2", got)
	}
	if got := r.Gauge("z.g"); got != 1.5 {
		t.Fatalf("Gauge(z.g) = %g, want 1.5", got)
	}
}

func TestAddAllFoldsLooseCounters(t *testing.T) {
	r := NewRegistry()
	r.Add("x", 1)
	r.AddAll("", []Metric{{"x", 2}, {"y", 7}})
	r.AddAll("ns/", []Metric{{"x", 5}})
	if r.Counter("x") != 3 || r.Counter("y") != 7 || r.Counter("ns/x") != 5 {
		t.Fatalf("fold wrong: x=%d y=%d ns/x=%d", r.Counter("x"), r.Counter("y"), r.Counter("ns/x"))
	}
}

func TestSortedCounters(t *testing.T) {
	out := SortedCounters(map[string]int64{"b": 2, "a": 1, "c": 3})
	if len(out) != 3 || out[0].Name != "a" || out[1].Name != "b" || out[2].Name != "c" {
		t.Fatalf("not sorted: %+v", out)
	}
}

func TestStageMergeByName(t *testing.T) {
	tr := NewTrace()
	tr.AddStage(StageProfile{Name: "j/map", Kind: "map", VTime: 1, Tasks: 4, LocalTasks: 2, Waves: 1})
	tr.AddStage(StageProfile{Name: "j/map", Kind: "map", VTime: 2, Tasks: 6, LocalTasks: 3, Waves: 2})
	tr.AddStage(StageProfile{Name: "j/reduce", Kind: "reduce", VTime: 5, Tasks: 2, Waves: 1})

	stages := tr.Stages()
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2 (merged)", len(stages))
	}
	m := stages[0] // sorted: "j/map" < "j/reduce"
	if m.Name != "j/map" || m.VTime != 3 || m.Tasks != 10 || m.LocalTasks != 5 || m.Waves != 3 {
		t.Fatalf("merged stage wrong: %+v", m)
	}
}

func TestQualifyAndSection(t *testing.T) {
	tr := NewTrace()
	if got := tr.Qualify("map"); got != "map" {
		t.Fatalf("unqualified = %q", got)
	}
	tr.SetSection("11f/l=10/base")
	if got := tr.Qualify("map"); got != "11f/l=10/base map" {
		t.Fatalf("qualified = %q", got)
	}
	tr.AddInstant("replanned", "adaptive")
	tr.mu.Lock()
	name := tr.instants[0].Name
	tr.mu.Unlock()
	if name != "11f/l=10/base replanned" {
		t.Fatalf("instant name = %q", name)
	}
}

func TestClockAdvances(t *testing.T) {
	tr := NewTrace()
	tr.Advance(1.5)
	tr.Advance(0.5)
	if tr.Clock() != 2 {
		t.Fatalf("clock = %g, want 2", tr.Clock())
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	tr := NewTrace()
	tr.AddSpan(Span{Name: "t0", Cat: "map", Node: 0, Slot: 1, Start: 0, Dur: 0.5})
	tr.AddSpan(Span{Name: "t1", Cat: "map", Node: 1, Slot: 0, Start: 0.2, Dur: 0.3})
	tr.AddQueued("t1", 1, 0, 0.2)
	tr.Advance(0.5)
	tr.AddInstant("replanned", "adaptive")

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, e := range file.TraceEvents {
		phases[e["ph"].(string)]++
	}
	// 2 complete spans, 1 async begin/end pair (queued wait), 1 instant,
	// and metadata lane-naming events for 2 nodes and 2 used slots.
	if phases["X"] != 2 || phases["b"] != 1 || phases["e"] != 1 || phases["i"] != 1 {
		t.Fatalf("phase counts wrong: %v", phases)
	}
	if phases["M"] == 0 {
		t.Fatalf("no metadata lane-naming events: %v", phases)
	}
	if !strings.Contains(buf.String(), "\"node 0\"") {
		t.Fatalf("missing node lane name in:\n%s", buf.String())
	}
}

func TestProfileRoundTripAndCompare(t *testing.T) {
	base := &Profile{
		Label:      "baseline",
		TotalVTime: 10,
		Stages: []StageProfile{
			{Name: "a/map", Kind: "map", VTime: 1.0},
			{Name: "a/reduce", Kind: "reduce", VTime: 2.0},
			{Name: "gone/map", Kind: "map", VTime: 1.0},
		},
		Gauges: []Gauge{
			{Name: "fig12.local.10B.vms", Value: 0.2},
			{Name: "stats.theta", Value: 3.0}, // descriptive, never gated
		},
	}
	cur := &Profile{
		Label:      "current",
		TotalVTime: 11,
		Stages: []StageProfile{
			{Name: "a/map", Kind: "map", VTime: 1.05},      // +5%: inside budget
			{Name: "a/reduce", Kind: "reduce", VTime: 2.5}, // +25%: regression
			{Name: "new/map", Kind: "map", VTime: 9.9},     // addition: ignored
		},
		Gauges: []Gauge{
			{Name: "fig12.local.10B.vms", Value: 0.5}, // +150%: regression
			{Name: "stats.theta", Value: 99},
		},
	}
	regs := CompareProfiles(base, cur, 0.10)
	if len(regs) != 3 {
		t.Fatalf("got %d regressions, want 3 (stage, missing stage, gauge):\n%s", len(regs), strings.Join(regs, "\n"))
	}
	joined := strings.Join(regs, "\n")
	for _, want := range []string{"a/reduce", "gone/map", "fig12.local.10B.vms"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("regressions missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "theta") || strings.Contains(joined, "new/map") || strings.Contains(joined, "a/map\"") {
		t.Fatalf("false positive in:\n%s", joined)
	}

	// Identical profiles pass the gate.
	if regs := CompareProfiles(base, base, 0.10); len(regs) != 0 {
		t.Fatalf("self-compare regressed: %v", regs)
	}

	// Round-trip through the file format.
	path := t.TempDir() + "/BENCH_test.json"
	if err := base.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != base.Label || got.TotalVTime != base.TotalVTime || len(got.Stages) != len(base.Stages) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestCompareProfilesGaugeDirections: the gate holds ".vms" virtual-time
// gauges to the budget in one direction — they must not rise — and reads
// nothing else; a wall-clock throughput or an allocation count under any
// name is descriptive here (bench/ measures those, in paired runs).
func TestCompareProfilesGaugeDirections(t *testing.T) {
	base := &Profile{
		Label: "baseline",
		Gauges: []Gauge{
			{Name: "fig12.q9.optimized.vms", Value: 120},
			{Name: "fig12.q9.dynamic.vms", Value: 200},
			{Name: "old.sched.tps", Value: 500_000},
			{Name: "old.sched.allocs", Value: 4.0},
			{Name: "efind.q9.stats.theta", Value: 100}, // descriptive
		},
	}
	cur := &Profile{
		Label: "current",
		Gauges: []Gauge{
			{Name: "fig12.q9.optimized.vms", Value: 150},  // +25%: regression
			{Name: "fig12.q9.dynamic.vms", Value: 201.6},  // +0.8%: inside budget
			{Name: "old.sched.tps", Value: 300_000},       // -40%, but ungated
			{Name: "old.sched.allocs", Value: 9.0},        // +125%, but ungated
			{Name: "efind.q9.stats.theta", Value: 50_000}, // ungated
		},
	}
	regs := CompareProfiles(base, cur, 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0], "optimized.vms") {
		t.Fatalf("got %d regressions, want the one .vms rise:\n%s", len(regs), strings.Join(regs, "\n"))
	}

	// A virtual time that falls never fails the gate.
	if regs := CompareProfiles(cur, base, 0.10); len(regs) != 0 {
		t.Fatalf("improvements flagged as regressions: %v", regs)
	}

	// A gated gauge that disappears is a regression, not a pass; an
	// ungated one may come and go.
	missing := &Profile{Label: "missing", Gauges: []Gauge{{Name: "efind.q9.stats.theta", Value: 1}}}
	if regs := CompareProfiles(base, missing, 0.10); len(regs) != 2 {
		t.Fatalf("got %d regressions for missing gated gauges, want 2: %v", len(regs), regs)
	}
}

func TestReadProfileRejectsGarbage(t *testing.T) {
	path := t.TempDir() + "/garbage.json"
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProfile(path); err == nil {
		t.Fatal("want error for garbage profile")
	}
}

func TestIndexProfilesSortedByKey(t *testing.T) {
	tr := NewTrace()
	tr.AddIndexProfile(IndexProfile{Key: "z/ix"})
	tr.AddIndexProfile(IndexProfile{Key: "a/ix"})
	ips := tr.IndexProfiles()
	if len(ips) != 2 || ips[0].Key != "a/ix" || ips[1].Key != "z/ix" {
		t.Fatalf("index profiles not sorted: %+v", ips)
	}
}
