package knnj

import (
	"strings"

	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/mapreduce"
)

// EFindConf builds the EFind-based kNN join: set A (the input file) is
// streamed through a head IndexOperator that looks each point up in the
// spatial index over set B. The operator's postProcess emits one record
// per query point carrying its k neighbours. Expressing the join takes a
// dozen lines — the point of Figure 13 is that this effortless version
// matches the hand-tuned H-zkNNJ once EFind picks the right strategy.
func EFindConf(name string, input *dfs.File, idx *SpatialIndex, mode core.Mode) *core.IndexJobConf {
	op := core.NewOperator("knn",
		func(in core.Pair) core.PreResult {
			return core.OneKey(in, in.Value)
		},
		func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			if len(results[0]) == 0 {
				return
			}
			emit(core.Pair{Key: pair.Key, Value: strings.Join(results[0][0].Values, " ")})
		})
	op.AddIndex(idx)

	conf := &core.IndexJobConf{
		Name:  name,
		Input: input,
		Mode:  mode,
		Mapper: func(_ *mapreduce.TaskContext, in core.Pair, emit core.Emit) {
			emit(in)
		},
	}
	conf.AddHeadIndexOperator(op)
	return conf
}

// CollectJoin parses an EFind kNN join output file into a result map.
func CollectJoin(f *dfs.File) map[string][]Neighbor {
	out := make(map[string][]Neighbor)
	for _, r := range f.All() {
		out[r.Key] = ParseNeighbors(strings.Fields(r.Value))
	}
	return out
}
