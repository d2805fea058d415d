package experiments

import (
	"testing"

	"efind/internal/obs"
)

// TestExperiments runs every registered experiment at quick scale with no
// trace, as a library caller does; each checks the paper's claims on its
// own table, and every cell must equal the gauge the benchmark gate pins
// for it in BENCH_baseline.json, which efind-bench records from traced
// runs: tracing must not move a number. All but an experiment marked
// Alone run in parallel: they share no state.
func TestExperiments(t *testing.T) {
	base, err := obs.ReadProfile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	pinned := make(map[string]float64, len(base.Gauges))
	for _, g := range base.Gauges {
		pinned[g.Name] = g.Value
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			if !e.Alone {
				t.Parallel()
			}
			tbl, err := e.Run(QuickScale(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range tbl.Rows {
				for i, v := range r.Cells {
					name := e.ID + "/" + r.Label + "/" + tbl.Columns[i]
					if want, ok := pinned[name]; !ok || v != want {
						t.Errorf("cell %s = %v untraced; the baseline pins %v (present: %v)", name, v, want, ok)
					}
				}
			}
		})
	}
}

func TestSuiteRegistryComplete(t *testing.T) {
	want := []string{"11a", "11b", "11c", "11d", "11e", "11f", "12", "13"}
	for _, id := range want {
		if Find(id) == nil {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	if Find("nope") != nil {
		t.Fatal("unknown id should return nil")
	}
	if len(All()) < 12 {
		t.Fatalf("registry has %d experiments; ablations missing?", len(All()))
	}
}

// TestChaosMultiTenantRejectsEmptyConfig pins the configuration guard.
func TestChaosMultiTenantRejectsEmptyConfig(t *testing.T) {
	if _, err := ChaosMultiTenant(Scale{}, nil); err == nil {
		t.Fatal("ChaosMultiTenant with no sizes must error")
	}
}
