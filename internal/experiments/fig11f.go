package experiments

import (
	"fmt"

	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/index"
	"efind/internal/mapreduce"
	"efind/internal/workloads"
)

// synOperator builds the synthetic join's index operator: look up each
// record's key, attach the l-sized index value.
func synOperator(ix index.Accessor) *core.Operator {
	op := core.NewOperator("syn",
		func(in core.Pair) core.PreResult {
			return core.PreResult{Pair: in, Keys: [][]string{{workloads.SyntheticKey(in.Value)}}}
		},
		func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			joined := ""
			if len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				joined = results[0][0].Values[0]
			}
			emit(core.Pair{Key: pair.Key, Value: pair.Value + "\x00" + joined})
		})
	op.AddIndex(ix)
	return op
}

// buildSynConf composes the synthetic join of §5.1 as an EFind job: look
// up every record's key in the index, attach the l-sized value, group by
// record key.
func buildSynConf(name string, input *dfs.File, ix index.Accessor, mode core.Mode) *core.IndexJobConf {
	op := synOperator(ix)
	conf := &core.IndexJobConf{
		Name:  name,
		Input: input,
		Mode:  mode,
		Mapper: func(_ *mapreduce.TaskContext, in core.Pair, emit core.Emit) {
			emit(in)
		},
		Reducer: mapreduce.IdentityReduce,
	}
	conf.AddHeadIndexOperator(op)
	return conf
}

// runSynOnce executes the synthetic join for one index value size l under
// one strategy in a fresh lab.
func runSynOnce(scale Scale, l int, column string) (*core.JobResult, error) {
	section(fmt.Sprintf("11f/l=%d/%s", l, column))
	_, res, err := runColumn(column, "syn", func(env *lab) (strategyJob, error) {
		input, store, err := env.genSyn(scale, l)
		if err != nil {
			return strategyJob{}, err
		}
		build := func(name string) *core.IndexJobConf { return buildSynConf(name, input, store, core.ModeBaseline) }
		return strategyJob{build, "syn", store.Name()}, nil
	})
	return res, err
}

// Fig11f reproduces Figure 11(f): the synthetic join across strategies
// while the index lookup result size l sweeps from 10 B to 30 KB.
func Fig11f(scale Scale) (*Table, error) {
	t := &Table{Title: "Figure 11(f): Synthetic — runtime (virtual s) vs index value size l", Columns: strategyColumns}
	for _, l := range scale.SynSizes {
		cells, err := strategyCells(t, strategyColumns, fmt.Sprintf("l=%dB optimized plan: ", l), func(c string) (float64, *core.JobResult, error) {
			res, err := runSynOnce(scale, l, c)
			if err != nil {
				return 0, nil, err
			}
			return res.VTime, res, nil
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("l=%dB", l), cells...)
	}
	return t, nil
}
