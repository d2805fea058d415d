package experiments

import (
	"fmt"

	"efind/internal/core"
	"efind/internal/knnj"
	"efind/internal/workloads"
)

// Fig13 reproduces Figure 13: k-nearest-neighbour join between two point
// sets, comparing the hand-tuned H-zkNNJ implementation against the
// EFind-based index nested-loop join under every strategy. The paper's
// claim: the effortless EFind version with the optimal strategy (index
// locality) performs like the hand-tuned two-phase join.
func Fig13(scale Scale) (*Table, error) {
	cols := append([]string{"h-zknnj"}, strategyColumns...)
	t := &Table{Title: "Figure 13: kNN join (k=10) — runtime (virtual s)", Columns: cols}

	genA := workloads.SpatialConfig{Points: scale.SpatialA, Extent: 1000, Clusters: 16, Seed: 21}
	genB := workloads.SpatialConfig{Points: scale.SpatialB, Extent: 1000, Clusters: 16, Seed: 22}
	a := workloads.GenerateSpatialPoints(genA)
	b := relabel(workloads.GenerateSpatialPoints(genB), "b")
	exact := knnj.BruteForceKNN(a, b, scale.KNNK)

	// Hand-tuned comparator.
	l := newLab()
	l.fs.ChunkTarget = chunkTargetFor((scale.SpatialA + scale.SpatialB) * 40)
	hzCfg := knnj.DefaultHZConfig(scale.KNNK)
	hzCfg.Epsilon = 0.02
	hz, err := knnj.RunHZKNNJ(l.engine, a, b, 1000, hzCfg)
	if err != nil {
		return nil, fmt.Errorf("fig13 h-zknnj: %w", err)
	}
	t.Note("h-zknnj: %d jobs, recall %.3f", hz.Jobs, knnj.Recall(hz.Join, exact))

	// EFind strategies.
	cells, err := strategyCells(t, strategyColumns, "optimized plan: ", func(c string) (float64, *core.JobResult, error) {
		_, res, err := runColumn(c, "knn", func(l *lab) (strategyJob, error) {
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
			return strategyJob{build, "knn", idx.Name()}, nil
		})
		if err != nil {
			return 0, nil, err
		}
		t.Note("%s: recall %.3f%s", c, knnj.Recall(knnj.CollectJoin(res.Output), exact), replanNote(res))
		return res.VTime, res, nil
	})
	if err != nil {
		return nil, err
	}
	t.Add("knnj", append([]float64{hz.VTime}, cells...)...)
	return t, nil
}

// relabel gives a generated point set a distinct ID prefix.
func relabel(pts []workloads.SpatialPoint, prefix string) []workloads.SpatialPoint {
	for i := range pts {
		pts[i].ID = fmt.Sprintf("%s%07d", prefix, i)
	}
	return pts
}
