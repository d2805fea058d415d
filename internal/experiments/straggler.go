package experiments

import (
	"fmt"

	"efind/internal/core"
	"efind/internal/sim"
)

// AblationStraggler reproduces the design decision of the paper's
// footnote 3: index-locality placement must be a soft scheduling
// *preference*, never a hard pin, because "the unavailability of the
// machine can slow down the entire MapReduce job" in a dynamic cloud.
// The synthetic join runs under the index-locality strategy on a uniform
// cluster and on one where a node runs at quarter speed; with soft
// placement the slowdown stays bounded (stragglers simply win fewer
// tasks), far below the 4x a pinned design would suffer.
func AblationStraggler(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: index locality under a straggler node (soft placement, footnote 3)",
		Columns: []string{"runtime"},
	}
	uniform, err := runSynIdxlocOn(scale, nil)
	if err != nil {
		return nil, err
	}
	speeds := make([]float64, sim.DefaultConfig().Nodes)
	for i := range speeds {
		speeds[i] = 1
	}
	speeds[0] = 0.25
	slowed, err := runSynIdxlocOn(scale, speeds)
	if err != nil {
		return nil, err
	}
	t.Add("uniform-cluster", uniform)
	t.Add("one-node-at-25%", slowed)
	t.Note("slowdown %.2fx — bounded well below the 4x a hard-pinned placement would suffer", slowed/uniform)
	t.claim(slowed > uniform, "straggler should cost something: %g vs %g", slowed, uniform)
	t.claim(slowed/uniform < 3.5, "soft placement should bound the slowdown below the pin-equivalent 4x, got %.2fx", slowed/uniform)
	return t, t.err
}

// runSynIdxlocOn runs the synthetic join with forced index locality on a
// cluster with the given node speeds (nil = uniform).
func runSynIdxlocOn(scale Scale, speeds []float64) (float64, error) {
	cfg := labConfig()
	cfg.NodeSpeed = speeds
	l := newLabOn(cfg)
	input, store, err := l.genSyn(scale, 1024)
	if err != nil {
		return 0, err
	}
	conf := buildSynConf(fmt.Sprintf("syn-straggler-%v", speeds == nil), input, store, core.ModeCustom)
	conf.ForceStrategy("syn", store.Name(), core.IndexLocality)
	res, err := l.rt.Submit(conf)
	if err != nil {
		return 0, err
	}
	return res.VTime, nil
}
