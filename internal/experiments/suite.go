package experiments

import "efind/internal/obs"

// Experiment is one named, runnable experiment.
type Experiment struct {
	// ID matches the paper's figure number or the ablation name.
	ID string
	// Description says what the experiment reproduces.
	Description string
	// Run executes the experiment at the given scale, its labs recording
	// into the trace (nil: none).
	Run func(Scale, *obs.Trace) (*Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "11a", Description: "LOG strategy comparison vs extra lookup delay", Run: Fig11a},
		{ID: "11b", Description: "TPC-H Q3 strategy comparison", Run: Fig11b},
		{ID: "11c", Description: "TPC-H Q9 strategy comparison", Run: Fig11c},
		{ID: "11d", Description: "TPC-H DUP10 Q3 strategy comparison", Run: Fig11d},
		{ID: "11e", Description: "TPC-H DUP10 Q9 strategy comparison", Run: Fig11e},
		{ID: "11f", Description: "Synthetic strategy comparison vs index value size", Run: Fig11f},
		{ID: "12", Description: "Local vs remote index lookup latency", Run: Fig12},
		{ID: "13", Description: "kNN join: EFind vs hand-tuned H-zkNNJ", Run: Fig13},
		{ID: "ablation-cache", Description: "Lookup-cache capacity sweep", Run: AblationCacheCapacity},
		{ID: "ablation-variance", Description: "Variance threshold for re-optimization", Run: AblationVarianceThreshold},
		{ID: "ablation-planner", Description: "FullEnumerate vs k-Repart", Run: AblationPlanner},
		{ID: "ablation-fm", Description: "FM sketch accuracy", Run: AblationFMAccuracy},
		{ID: "ablation-boundary", Description: "Re-partitioning job boundary choice", Run: AblationBoundary},
		{ID: "ablation-convergence", Description: "Dynamic converges to optimized as input grows (§5.3)", Run: AblationDynamicConvergence},
		{ID: "ablation-straggler", Description: "Index locality under a straggler node (footnote 3)", Run: AblationStraggler},
		{ID: "ablation-chaos", Description: "Seeded fault schedules: crash, speculation, index outage — same answer", Run: AblationChaos},
		{ID: "multi-tenant", Description: "Job service: 2 tenants sharing the cluster — fair makespans, pooled-cache uplift, cross-tenant outage", Run: MultiTenant},
		{ID: "adaptive-build", Description: "Adaptive index creation: repeated query converges from scan cost to the indexed plan; break-even matches the cost model", Run: AdaptiveBuild},
		{ID: "fstore-sweep", Description: "In-memory vs mmap-snapshot storage backend on the synthetic sweep — same answer required", Run: FStoreSweep},
		{ID: "chaos-multitenant", Description: "Cross-job chaos at scale: crashes, speculation, and outages across tenants' concurrent jobs, plus coordinator crash recovery — same decisions required", Run: ChaosMultiTenant},
	}
}

// Find returns the experiment with the given ID, or nil.
func Find(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			exp := e
			return &exp
		}
	}
	return nil
}
