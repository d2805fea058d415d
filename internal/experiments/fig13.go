package experiments

import (
	"fmt"

	"efind/internal/core"
	"efind/internal/knnj"
	"efind/internal/obs"
	"efind/internal/workloads"
)

// Fig13 reproduces Figure 13: k-nearest-neighbour join between two point
// sets, comparing the hand-tuned H-zkNNJ implementation against the
// EFind-based index nested-loop join under every strategy. The paper's
// claim: the effortless EFind version with the optimal strategy (index
// locality) performs like the hand-tuned two-phase join.
func Fig13(scale Scale, tr *obs.Trace) (*Table, error) {
	cols := append([]string{"h-zknnj"}, strategyColumns...)
	t := &Table{Title: "Figure 13: kNN join (k=10) — runtime (virtual s)", Columns: cols}

	genA := workloads.SpatialConfig{Points: scale.SpatialA, Extent: 1000, Clusters: 16, Seed: 21}
	genB := workloads.SpatialConfig{Points: scale.SpatialB, Extent: 1000, Clusters: 16, Seed: 22}
	a := workloads.GenerateSpatialPoints(genA)
	b := relabel(workloads.GenerateSpatialPoints(genB), "b")
	exact := knnj.BruteForceKNN(a, b, scale.KNNK)

	// Hand-tuned comparator.
	l := newLab(tr, nil)
	l.fs.ChunkTarget = chunkTargetFor((scale.SpatialA + scale.SpatialB) * 40)
	hzCfg := knnj.DefaultHZConfig(scale.KNNK)
	hzCfg.Epsilon = 0.02
	hz, err := knnj.RunHZKNNJ(l.engine, a, b, 1000, hzCfg)
	if err != nil {
		return nil, fmt.Errorf("fig13 h-zknnj: %w", err)
	}
	t.Note("h-zknnj: %d jobs, recall %.3f", hz.Jobs, knnj.Recall(hz.Join, exact))

	// EFind strategies.
	setup := func(l *lab) (strategyJob, error) {
		l.fs.ChunkTarget = chunkTargetFor(scale.SpatialA * 40)
		idxCfg := knnj.DefaultSpatialIndexConfig(1000)
		idxCfg.K = scale.KNNK
		idx, err := knnj.BuildSpatialIndex(l.cluster, "spatial", b, idxCfg)
		if err != nil {
			return strategyJob{}, err
		}
		input, err := workloads.WriteSpatial(l.fs, "a-points", a)
		if err != nil {
			return strategyJob{}, err
		}
		build := func(name string) *core.IndexJobConf { return knnj.EFindConf(name, input, idx, core.ModeBaseline) }
		return strategyJob{build: build, op: "knn", ix: idx.Name()}, nil
	}
	cells, err := strategyCells(t, strategyColumns, "optimized plan: ", columnLegs(tr, "knn"), setup, func(c string, r *lab) (float64, error) {
		t.Note("%s: recall %.3f%s", c, knnj.Recall(knnj.CollectJoin(r.res.Output), exact), replanNote(r.res))
		return r.res.VTime, nil
	})
	if err != nil {
		return nil, err
	}
	t.Add("knnj", append([]float64{hz.VTime}, cells...)...)

	// Paper: the EFind solution performs like the hand-tuned one. In this
	// simulation EFind is at least competitive (within 3x either way; it
	// is usually faster because index-server contention is not modeled).
	tuned, opt, base := t.at("knnj", "h-zknnj"), t.at("knnj", "optimized"), t.at("knnj", "base")
	t.claim(opt <= tuned*3 && tuned <= opt*10, "EFind optimized (%g) and H-zkNNJ (%g) should be comparable", opt, tuned)
	t.claim(base <= tuned*3, "EFind base (%g) should stay within a small factor of H-zkNNJ (%g)", base, tuned)
	return t, t.err
}

// relabel gives a generated point set a distinct ID prefix.
func relabel(pts []workloads.SpatialPoint, prefix string) []workloads.SpatialPoint {
	for i := range pts {
		pts[i].ID = fmt.Sprintf("%s%07d", prefix, i)
	}
	return pts
}
