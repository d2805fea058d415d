package experiments

import (
	"fmt"

	"efind/internal/core"
	"efind/internal/tpch"
)

// tpchQuery selects Q3 or Q9.
type tpchQuery int

const (
	queryQ3 tpchQuery = iota
	queryQ9
)

// runTPCHOnce executes one TPC-H query under one strategy in a fresh lab
// and returns the result with the index lookups that run issued.
func runTPCHOnce(scale Scale, q tpchQuery, dup int, column string) (*core.JobResult, int64, error) {
	// The paper's cache holds 1024 entries against SF10 dictionaries of
	// 10^5–10^7 distinct keys; at simulation scale the capacity is scaled
	// with the data so the capacity:distinct-keys ratios (the drivers of
	// the miss ratio R) are preserved.
	const cacheCapacity = 64

	var w *tpch.Workload
	_, res, err := runColumn(column, "tpch", func(l *lab) (strategyJob, error) {
		var err error
		if w, err = setupTPCH(l, scale, dup); err != nil {
			return strategyJob{}, err
		}
		query, target := w.Q3Conf, w.Q3RepartTarget
		if q == queryQ9 {
			query, target = w.Q9Conf, w.Q9RepartTarget
		}
		op, ix := target()
		return strategyJob{func(name string) *core.IndexJobConf {
			w.ResetIndexStats() // so the lookups counted are this job's alone
			conf := query(name, core.ModeBaseline)
			conf.CacheCapacity = cacheCapacity
			return conf
		}, op, ix}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	return res, w.TotalLookups(), nil
}

// fig11TPCH runs one query's full strategy row.
func fig11TPCH(title string, scale Scale, q tpchQuery, dup int) (*Table, error) {
	t := &Table{Title: title, Columns: strategyColumns}
	cells, err := strategyCells(t, strategyColumns, "optimized plan: ", func(c string) (float64, *core.JobResult, error) {
		res, lookups, err := runTPCHOnce(scale, q, dup, c)
		if err != nil {
			return 0, nil, err
		}
		t.Note("%s: %d jobs, %d index lookups%s", c, res.JobsRun, lookups, replanNote(res))
		return res.VTime, res, nil
	})
	if err != nil {
		return nil, err
	}
	t.Add("runtime", cells...)
	return t, nil
}

func replanNote(res *core.JobResult) string {
	if !res.Replanned {
		return ""
	}
	return fmt.Sprintf(", replanned at %s phase", res.ReplanPhase)
}

// Fig11b reproduces Figure 11(b): TPC-H Q3 across strategies.
func Fig11b(scale Scale) (*Table, error) {
	return fig11TPCH("Figure 11(b): TPC-H Q3 — runtime (virtual s)", scale, queryQ3, 1)
}

// Fig11c reproduces Figure 11(c): TPC-H Q9 across strategies.
func Fig11c(scale Scale) (*Table, error) {
	return fig11TPCH("Figure 11(c): TPC-H Q9 — runtime (virtual s)", scale, queryQ9, 1)
}

// Fig11d reproduces Figure 11(d): TPC-H DUP10 Q3.
func Fig11d(scale Scale) (*Table, error) {
	return fig11TPCH("Figure 11(d): TPC-H DUP10 Q3 — runtime (virtual s)", scale, queryQ3, 10)
}

// Fig11e reproduces Figure 11(e): TPC-H DUP10 Q9.
func Fig11e(scale Scale) (*Table, error) {
	return fig11TPCH("Figure 11(e): TPC-H DUP10 Q9 — runtime (virtual s)", scale, queryQ9, 10)
}
