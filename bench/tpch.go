package main

import (
	"fmt"

	"efind/internal/core"
	"efind/internal/kvstore"
	"efind/internal/tpch"
)

// tpchSizes shapes the TPC-H workload.
type tpchSizes struct {
	scaleFactor   float64
	supplierScale int
	cacheCapacity int
	ops           int
}

func tpchSizesFor(tiny bool) tpchSizes {
	if tiny {
		return tpchSizes{scaleFactor: 0.5, supplierScale: 75, cacheCapacity: 64, ops: 15}
	}
	return tpchSizes{scaleFactor: 4, supplierScale: 75, cacheCapacity: 64, ops: 45}
}

// tpchCycle is one cycle of 15 ops: Q3 under the five strategies, twice,
// then Q9 under the five strategies. Two to one, so the pooled p50 lands
// in Q3 and the p90 in Q9.
const tpchCycle = 15

// tpchWorld is TPC-H Q3 and Q9 as EFind index nested-loop joins over a
// generated LineItem file, in a fresh lab.
type tpchWorld struct {
	e      *env
	sz     tpchSizes
	l      *lab
	w      *tpch.Workload
	q3, q9 digest // nested-loop references
}

func setupTPCH(e *env, sz tpchSizes) (*tpchWorld, error) {
	l := newLab(0)
	cfg := tpch.DefaultConfig()
	cfg.ScaleFactor = sz.scaleFactor
	cfg.SupplierScale = sz.supplierScale
	cfg.Seed = e.seed
	l.fs.ChunkTarget = chunkTargetFor(int(6000*sz.scaleFactor) * 60)
	w, err := tpch.Setup(l.fs, "lineitem", cfg)
	if err != nil {
		return nil, err
	}
	tw := &tpchWorld{e: e, sz: sz, l: l, w: w}
	tw.q3 = q3Reference(w)
	tw.q9 = q9Reference(w)
	if tw.q3.Records == 0 || tw.q9.Records == 0 {
		return nil, fmt.Errorf("tpch: empty reference result (Q3 %v, Q9 %v): filters select nothing at this scale", tw.q3, tw.q9)
	}
	w.ResetIndexStats()
	return tw, nil
}

func (w *tpchWorld) query(i int) string {
	if i%tpchCycle < 10 {
		return "q3"
	}
	return "q9"
}

func (w *tpchWorld) strategy(i int) string { return strategies[i%len(strategies)] }

func (w *tpchWorld) label(i int) string { return w.query(i) + "/" + w.strategy(i) }

// decorate wraps the conf's accessors and its exported user functions.
// The operators' pre/post functions are built inside internal/tpch and
// are not reachable from outside, so for this workload their time stays
// in the residual. Operator.Indices exposes the operator's own accessor
// slice; swapping its elements is the one seam the TPC-H confs offer.
func (w *tpchWorld) decorate(conf *core.IndexJobConf) error {
	if w.e.dec == nil {
		return nil
	}
	ops, _ := conf.Operators()
	for _, op := range ops {
		accs := op.Indices()
		for j, a := range accs {
			st, ok := a.(*kvstore.Store)
			if !ok {
				return fmt.Errorf("tpch: operator %s index %d is %T, not a *kvstore.Store", op.Name(), j, a)
			}
			accs[j] = countingStore{Store: st, b: &w.e.dec.accessor}
		}
	}
	ub := w.e.userFnTally()
	conf.Mapper = timedMap(ub, conf.Mapper)
	conf.Reducer = timedReduce(ub, conf.Reducer)
	return nil
}

func (w *tpchWorld) op(i int, c *opCtx) opResult {
	q, strategy := w.query(i), w.strategy(i)
	var conf *core.IndexJobConf
	var forceOp, forceIx string
	ref := w.q3
	if q == "q3" {
		conf = w.w.Q3Conf("tpch-q3-"+strategy, core.ModeBaseline)
		forceOp, forceIx = w.w.Q3RepartTarget()
	} else {
		conf = w.w.Q9Conf("tpch-q9-"+strategy, core.ModeBaseline)
		forceOp, forceIx = w.w.Q9RepartTarget()
		ref = w.q9
	}
	conf.CacheCapacity = w.sz.cacheCapacity
	applyStrategy(conf, strategy, forceOp, forceIx)
	if err := w.decorate(conf); err != nil {
		return opResult{err: err}
	}
	forgetStatistics(w.l.rt, strategy)
	res, out := submitChecked(c, w.l.rt, w.l.fs, conf, ref)
	if res != nil {
		ops, _ := conf.Operators()
		var opNames, ixNames []string
		for _, op := range ops {
			for _, a := range op.Indices() {
				opNames = append(opNames, op.Name())
				ixNames = append(ixNames, a.Name())
			}
		}
		out.counts = jobCounts(res, opNames, ixNames)
		if strategy != "cache" {
			delete(out.counts, "cache_probes")
			delete(out.counts, "cache_misses")
		}
	}
	return out
}

func (w *tpchWorld) close() error { return w.l.engine.Close() }

var tpchQ3Q9 = &workloadSpec{
	name:   "tpch_q3q9",
	why:    "the paper's headline queries: selective filters, chains of 2 and 5 head operators, a working set far above the 64-entry cache (LRU thrash, deep chain)",
	cycle:  tpchCycle,
	warm:   len(strategies), // Q3 under each strategy; set-up has already read every table
	ops:    func(tiny bool) int { return tpchSizesFor(tiny).ops },
	setup:  func(e *env) (world, error) { return setupTPCH(e, tpchSizesFor(e.tiny)) },
	layers: tpchLayers,
}
