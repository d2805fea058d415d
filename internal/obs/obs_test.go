package obs

import (
	"bytes"
	"encoding/json"
	"math"
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
	if gs[0].Name != "a.g" || gs[1].Name != "z.g" || gs[1].Value != 1.5 {
		t.Fatalf("gauges = %+v, want a.g then z.g = 1.5", gs)
	}
	if got := r.Counter("mid"); got != 2 {
		t.Fatalf("Counter(mid) = %d, want 2", got)
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
			{Name: "a/reduce", Kind: "reduce", VTime: 2.0, Tasks: 4},
			{Name: "gone/map", Kind: "map", VTime: 1.0},
		},
		Indexes: []IndexProfile{
			{Key: "a op/ix", Lookups: 10},
			{Key: "a op/ix", Lookups: 20}, // a second job of the same section
		},
		Counters: []Metric{{Name: "efind.lookups", Value: 30}},
		Gauges: []Gauge{
			{Name: "fig12.local.10B.vms", Value: 0.2},
			{Name: "stats.theta", Value: 3.0},
		},
	}
	cur := &Profile{
		Label:      "current", // labels are not compared
		TotalVTime: 10,
		Stages: []StageProfile{
			{Name: "a/map", Kind: "map", VTime: 1.0},                 // equal
			{Name: "a/reduce", Kind: "reduce", VTime: 2.5, Tasks: 4}, // slower
			{Name: "new/map", Kind: "map", VTime: 9.9},               // only here
		},
		Indexes: []IndexProfile{
			{Key: "a op/ix", Lookups: 21}, // equal keys come in no fixed order:
			{Key: "a op/ix", Lookups: 10}, // one row moved, the other did not
		},
		Counters: []Metric{{Name: "efind.lookups", Value: 31}},
		Gauges: []Gauge{
			{Name: "fig12.local.10B.vms", Value: 0.1}, // faster: still a difference
			{Name: "stats.theta", Value: 3.0},
		},
	}
	diffs := CompareProfiles(base, cur)
	joined := strings.Join(diffs, "\n")
	if len(diffs) != 6 {
		t.Fatalf("got %d differences, want 6 (stage, index row, counter, gauge, a stage group on each side):\n%s", len(diffs), joined)
	}
	for _, want := range []string{
		`stage "a/reduce": baseline`, "VTime:2 ", "VTime:2.5 ",
		`index "a op/ix" #2`, "Lookups:20", "Lookups:21",
		`counter "efind.lookups": baseline 30, current 31`,
		`gauge "fig12.local.10B.vms": baseline 0.2, current 0.1`,
		`stage "gone" only in the baseline (1)`,
		`stage "new" only in the current profile (1)`,
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("differences missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "theta") || strings.Contains(joined, `a/map"`) || strings.Contains(joined, "#1") || strings.Contains(joined, "total_vtime") {
		t.Fatalf("equal row reported in:\n%s", joined)
	}

	// Identical profiles pass the gate.
	if diffs := CompareProfiles(base, base); len(diffs) != 0 {
		t.Fatalf("self-compare differs: %v", diffs)
	}

	// Round-trip through the file format: every value survives.
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
	if diffs := CompareProfiles(base, got); len(diffs) != 0 {
		t.Fatalf("round trip changed values: %v", diffs)
	}
}

// TestCompareProfilesEitherDirection: the gate is equality. A value one
// ulp above or below the baseline's fails it, a fall as much as a rise,
// under any name — ".vms" virtual times, readings like Θ, counts — and so
// does a row either side lacks; whole figures present on one side only
// are reported once each, not row by row.
func TestCompareProfilesEitherDirection(t *testing.T) {
	base := &Profile{
		Label:      "baseline",
		TotalVTime: 5,
		Gauges: []Gauge{
			{Name: "fig12.q9.optimized.vms", Value: 120},
			{Name: "fig12.q9.dynamic.vms", Value: 200},
			{Name: "efind.q9.stats.theta", Value: 100},
		},
	}
	for _, i := range []int{0, 2} {
		name, v := base.Gauges[i].Name, base.Gauges[i].Value
		for _, next := range []float64{math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
			cur := *base
			cur.Gauges = append([]Gauge(nil), base.Gauges...)
			cur.Gauges[i].Value = next
			for _, diffs := range [][]string{CompareProfiles(base, &cur), CompareProfiles(&cur, base)} {
				if len(diffs) != 1 || !strings.Contains(diffs[0], name) {
					t.Fatalf("%s moved one ulp to %v: got %v, want the one gauge named", name, next, diffs)
				}
			}
		}
	}

	// The total virtual time is a row like any other.
	later := *base
	later.TotalVTime = math.Nextafter(5, 6)
	if diffs := CompareProfiles(base, &later); len(diffs) != 1 || !strings.Contains(diffs[0], "total_vtime") {
		t.Fatalf("total_vtime moved one ulp: got %v", diffs)
	}

	// A gauge family that one side lacks is a difference whichever side
	// that is, reported once for the family.
	missing := &Profile{Label: "missing", TotalVTime: 5, Gauges: []Gauge{{Name: "efind.q9.stats.theta", Value: 100}}}
	for side, diffs := range map[string][]string{
		"only in the baseline":        CompareProfiles(base, missing),
		"only in the current profile": CompareProfiles(missing, base),
	} {
		if len(diffs) != 1 || !strings.Contains(diffs[0], `gauge "fig12" `+side+" (2)") {
			t.Fatalf("two fig12 gauges %s: got %v", side, diffs)
		}
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
