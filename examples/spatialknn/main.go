// Command spatialknn reproduces the k-nearest-neighbour join comparison
// of §5.4 interactively: the same join runs (a) through EFind as an index
// nested-loop over a grid spatial index and (b) through the hand-tuned
// H-zkNNJ implementation, printing runtimes and result quality.
//
// Run with:
//
//	go run ./examples/spatialknn
package main

import (
	"fmt"
	"log"

	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/knnj"
	"efind/internal/mapreduce"
	"efind/internal/sim"
	"efind/internal/workloads"
)

const k = 10

func main() {
	// Two point sets, OSM-like (clustered around hot spots).
	a := workloads.GenerateSpatialPoints(workloads.SpatialConfig{Points: 2000, Extent: 1000, Clusters: 16, Seed: 5})
	b := workloads.GenerateSpatialPoints(workloads.SpatialConfig{Points: 10000, Extent: 1000, Clusters: 16, Seed: 6})
	for i := range b {
		b[i].ID = fmt.Sprintf("b%07d", i)
	}
	exact := knnj.BruteForceKNN(a, b, k)

	fmt.Printf("kNN join: |A|=%d query points, |B|=%d indexed points, k=%d\n\n", len(a), len(b), k)

	// Hand-tuned comparator.
	{
		cluster, fs, engine := newEnv()
		_ = cluster
		_ = fs
		cfg := knnj.DefaultHZConfig(k)
		cfg.Epsilon = 0.02
		res, err := knnj.RunHZKNNJ(engine, a, b, 1000, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s %8.3f virtual s  recall %.3f  (%d MapReduce jobs, α=%d shifts)\n",
			"H-zkNNJ", res.VTime, knnj.Recall(res.Join, exact), res.Jobs, cfg.Alpha)
	}

	// EFind: a dozen lines of operator code, every strategy for free.
	for _, spec := range []struct {
		label string
		mode  core.Mode
		strat core.Strategy
		force bool
	}{
		{"EFind baseline", core.ModeBaseline, 0, false},
		{"EFind idxloc", core.ModeCustom, core.IndexLocality, true},
		{"EFind dynamic", core.ModeDynamic, 0, false},
	} {
		cluster, fs, engine := newEnv()
		rt := core.NewRuntime(engine)
		idxCfg := knnj.DefaultSpatialIndexConfig(1000)
		idxCfg.K = k
		idx, err := knnj.BuildSpatialIndex(cluster, "spatial", b, idxCfg)
		if err != nil {
			log.Fatal(err)
		}
		input, err := workloads.WriteSpatial(fs, "a-points", a)
		if err != nil {
			log.Fatal(err)
		}
		conf := knnj.EFindConf("knn", input, idx, spec.mode)
		if spec.force {
			conf.ForceStrategy("knn", idx.Name(), spec.strat)
		}
		res, err := rt.Submit(conf)
		if err != nil {
			log.Fatal(err)
		}
		join := knnj.CollectJoin(res.Output)
		fmt.Printf("  %-18s %8.3f virtual s  recall %.3f  (%d MapReduce jobs, plan %v)\n",
			spec.label, res.VTime, knnj.Recall(join, exact), res.JobsRun, res.Plan)
	}
}

func newEnv() (*sim.Cluster, *dfs.FS, *mapreduce.Engine) {
	cfg := sim.DefaultConfig()
	cfg.TaskStartup = 0.005
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 4 << 10
	return cluster, fs, mapreduce.New(cluster, fs)
}
