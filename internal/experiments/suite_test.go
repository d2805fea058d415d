package experiments

import "testing"

// TestExperiments runs every registered experiment at quick scale; each
// checks the paper's claims on its own table. chaos-multitenant and
// fstore-sweep run trimmed (the benchmark gate runs them at full quick
// scale), and all but fstore-sweep in parallel: they share no state.
func TestExperiments(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			s := QuickScale()
			switch e.ID {
			case "fstore-sweep": // its leak check counts the process's open snapshots
				s.SynRecords, s.SynKeyDomain, s.SynSizes = 2000, 1000, []int{1024}
			case "chaos-multitenant":
				s.SynRecords, s.SynKeyDomain = 3000, 1500
				s.ChaosMTNodes, s.ChaosMTTenants, s.ChaosMTJobs = 48, 2, 3
				fallthrough
			default:
				t.Parallel()
			}
			if _, err := e.Run(s); err != nil {
				t.Fatal(err)
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
	if _, err := ChaosMultiTenant(Scale{}); err == nil {
		t.Fatal("ChaosMultiTenant with no sizes must error")
	}
}
