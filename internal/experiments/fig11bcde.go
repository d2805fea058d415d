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

// fig11TPCH runs one query's full strategy row, then checks the panel's
// claims on it: claims reads the row's cells by column.
func fig11TPCH(title string, scale Scale, q tpchQuery, dup int, claims func(t *Table, cell func(column string) float64)) (*Table, error) {
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
	claims(t, func(column string) float64 { return t.at("runtime", column) })
	return t, t.err
}

func replanNote(res *core.JobResult) string {
	if !res.Replanned {
		return ""
	}
	return fmt.Sprintf(", replanned at %s phase", res.ReplanPhase)
}

// Fig11b reproduces Figure 11(b), TPC-H Q3. Paper: cache 1.7–1.9x over base;
// repart loses to cache (local redundancy already absorbed); optimized ≈ cache.
func Fig11b(scale Scale) (*Table, error) {
	return fig11TPCH("Figure 11(b): TPC-H Q3 — runtime (virtual s)", scale, queryQ3, 1, func(t *Table, cell func(string) float64) {
		base, cache, repart, opt := cell("base"), cell("cache"), cell("repart"), cell("optimized")
		t.claim(base/cache >= 1.3, "cache gain %.2fx too small (locality of lineitems per order)", base/cache)
		t.claim(repart > cache, "repart (%g) should lose to cache (%g): shuffle not worth it", repart, cache)
		t.claim(opt <= cache*1.1, "optimized (%g) should match cache (%g)", opt, cache)
	})
}

// Fig11c reproduces Figure 11(c), TPC-H Q9. Paper: cache gains little (no
// locality in supplier keys); repart wins clearly; idxloc is no clear gain.
func Fig11c(scale Scale) (*Table, error) {
	return fig11TPCH("Figure 11(c): TPC-H Q9 — runtime (virtual s)", scale, queryQ9, 1, func(t *Table, cell func(string) float64) {
		base, cache, repart, idxloc, opt := cell("base"), cell("cache"), cell("repart"), cell("idxloc"), cell("optimized")
		t.claim(base/cache <= 1.5, "cache gain %.2fx too large; paper expects little benefit", base/cache)
		t.claim(repart < cache, "repart (%g) should beat cache (%g)", repart, cache)
		t.claim(repart < base, "repart (%g) should beat base (%g)", repart, base)
		t.claim(idxloc >= repart*0.7 && idxloc <= repart*1.4, "idxloc (%g) should be close to repart (%g)", idxloc, repart)
		t.claim(opt <= repart*1.3, "optimized (%g) strays from repart (%g)", opt, repart)
	})
}

// Fig11d reproduces Figure 11(d), TPC-H DUP10 Q3. Paper: cross-machine
// redundancy flips the Q3 verdict — repart now beats cache (2.1x).
func Fig11d(scale Scale) (*Table, error) {
	return fig11TPCH("Figure 11(d): TPC-H DUP10 Q3 — runtime (virtual s)", scale, queryQ3, 10, func(t *Table, cell func(string) float64) {
		base, cache, repart := cell("base"), cell("cache"), cell("repart")
		t.claim(repart < cache, "repart (%g) should beat cache (%g)", repart, cache)
		t.claim(base/repart >= 3, "repart gain %.2fx too small", base/repart)
	})
}

// Fig11e reproduces Figure 11(e), TPC-H DUP10 Q9. Paper: repart 7.9x over
// base (the headline 2–8x); dynamic pays its statistics phase, beats base.
func Fig11e(scale Scale) (*Table, error) {
	return fig11TPCH("Figure 11(e): TPC-H DUP10 Q9 — runtime (virtual s)", scale, queryQ9, 10, func(t *Table, cell func(string) float64) {
		base, repart, opt, dyn := cell("base"), cell("repart"), cell("optimized"), cell("dynamic")
		t.claim(base/repart >= 5, "repart gain %.2fx, want ≥5x", base/repart)
		t.claim(opt <= repart*1.3, "optimized (%g) strays from repart (%g)", opt, repart)
		t.claim(dyn < base, "dynamic (%g) should beat base (%g)", dyn, base)
		t.claim(dyn > opt, "dynamic (%g) cannot beat fully informed optimized (%g)", dyn, opt)
	})
}
