package experiments

import (
	"fmt"

	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/index"
	"efind/internal/mapreduce"
	"efind/internal/obs"
	"efind/internal/workloads"
)

// synOperator builds the synthetic join's index operator: look up each
// record's key, attach the l-sized index value.
func synOperator(ix index.Accessor) *core.Operator {
	op := core.NewOperator("syn",
		func(in core.Pair) core.PreResult {
			return core.OneKey(in, workloads.SyntheticKey(in.Value))
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

// synJob is the setup of a leg running the synthetic join with index
// values of size bytes.
func synJob(scale Scale, size int) func(*lab) (strategyJob, error) {
	return func(l *lab) (strategyJob, error) {
		input, store, err := l.genSyn(scale, size)
		if err != nil {
			return strategyJob{}, err
		}
		build := func(name string) *core.IndexJobConf { return buildSynConf(name, input, store, core.ModeBaseline) }
		return strategyJob{build: build, op: "syn", ix: store.Name()}, nil
	}
}

// Fig11f reproduces Figure 11(f): the synthetic join across strategies
// while the index lookup result size l sweeps from 10 B to 30 KB.
func Fig11f(scale Scale, tr *obs.Trace) (*Table, error) {
	t := &Table{Title: "Figure 11(f): Synthetic — runtime (virtual s) vs index value size l", Columns: strategyColumns}
	for _, l := range scale.SynSizes {
		cells, err := strategyCells(t, strategyColumns, fmt.Sprintf("l=%dB optimized plan: ", l), func(c string) leg {
			lg := columnLegs(tr, "syn")(c)
			lg.section = fmt.Sprintf("11f/l=%d/%s", l, c)
			return lg
		}, synJob(scale, l), func(_ string, r *lab) (float64, error) { return r.res.VTime, nil })
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("l=%dB", l), cells...)
	}

	// Paper: repart 2.0–2.8x over base at all l; idxloc loses (slightly)
	// to repart for small results and wins for large ones (crossover
	// above 1KB).
	for _, r := range t.Rows {
		base, repart := t.at(r.Label, "base"), t.at(r.Label, "repart")
		t.claim(repart < base, "%s: repart (%g) should beat base (%g)", r.Label, repart, base)
	}
	small, big := t.Rows[0].Label, t.Rows[len(t.Rows)-1].Label
	repart, idxloc := t.at(small, "repart"), t.at(small, "idxloc")
	t.claim(idxloc >= repart*0.98, "%s: idxloc (%g) should not clearly beat repart (%g)", small, idxloc, repart)
	repart, idxloc = t.at(big, "repart"), t.at(big, "idxloc")
	t.claim(idxloc < repart, "%s: idxloc (%g) should beat repart (%g)", big, idxloc, repart)
	return t, t.err
}
