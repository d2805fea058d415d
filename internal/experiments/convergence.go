package experiments

import (
	"fmt"

	"efind/internal/obs"
	"efind/internal/workloads"
)

// AblationDynamicConvergence reproduces the scaling claim of §5.3: the
// adaptive runtime's overhead (the baseline-plan statistics collection
// phase) is a fixed first wave, so as the input grows the dynamic
// runtime's performance converges to the statically optimized one ("this
// effect will be reduced when many Map tasks are used to process a large
// amount of data").
func AblationDynamicConvergence(scale Scale, tr *obs.Trace) (*Table, error) {
	t := &Table{
		Title:   "Ablation: dynamic converges to optimized as input grows (LOG, +3ms)",
		Columns: []string{"optimized", "dynamic", "ratio"},
	}
	base := scale.LogEvents
	cfg := workloads.DefaultLogConfig()
	for _, factor := range []int{1, 3, 9} {
		cfg.Events = base * factor
		recs, err := workloads.GenerateLog(cfg)
		if err != nil {
			return nil, err
		}
		// Chunks sized for the base input: larger inputs run more task
		// waves, so the first-wave statistics phase becomes a shrinking
		// fraction.
		cells, err := strategyCells(t, []string{"optimized", "dynamic"}, "", columnLegs(tr, "log"), logJob(recs, base, 3), logTotal)
		if err != nil {
			return nil, err
		}
		opt, dyn := cells[0], cells[1]
		t.Add(fmt.Sprintf("events=%d", cfg.Events), opt, dyn, dyn/opt)
	}
	// The dynamic/optimized ratio shrinks monotonically as the input grows.
	t.claim(len(t.Rows) >= 3, "%d rows, want at least 3 input sizes", len(t.Rows))
	prev := t.at(t.Rows[0].Label, "ratio")
	for _, r := range t.Rows[1:] {
		ratio := t.at(r.Label, "ratio")
		t.claim(ratio < prev, "%s: dynamic/optimized ratio %g did not shrink (prev %g)", r.Label, ratio, prev)
		prev = ratio
	}
	return t, t.err
}
