package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/ixclient"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/sim"
	"efind/internal/workloads"
)

// lab is one fresh simulated environment, built like
// experiments.newLab: the paper's 12-node cluster under the pinned
// default constants (no -calibrate), task start-up scaled to the
// simulation's job length.
type lab struct {
	cluster *sim.Cluster
	fs      *dfs.FS
	engine  *mapreduce.Engine
	rt      *core.Runtime
}

func newLab(nodes int) *lab {
	cfg := sim.DefaultConfig()
	cfg.TaskStartup = 0.005
	if nodes > 0 {
		cfg.Nodes = nodes
	}
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	engine := mapreduce.New(cluster, fs)
	return &lab{cluster: cluster, fs: fs, engine: engine, rt: core.NewRuntime(engine)}
}

// chunkTargetFor sizes chunks so an input splits into ~240 map tasks
// (several waves on 96 map slots), as the experiments package does.
func chunkTargetFor(totalBytes int) int {
	t := totalBytes / 240
	if t < 2048 {
		t = 2048
	}
	return t
}

// varianceThreshold loosens Algorithm 1's gate for simulation-scale
// splits (~10^3 rows, not 10^6), as the experiments package does.
const varianceThreshold = 0.35

// strategies is the op cycle of the job workloads: the four fixed
// strategies plus the adaptive mode. Five — an odd count — so the median
// op sits inside one strategy's mode, not on a boundary between two.
var strategies = []string{"base", "cache", "repart", "idxloc", "dynamic"}

// applyStrategy configures conf for one column of the paper's strategy
// matrix; repart/idxloc force the named operator/index pair.
func applyStrategy(conf *core.IndexJobConf, strategy, forceOp, forceIx string) {
	conf.VarianceThreshold = varianceThreshold
	switch strategy {
	case "base":
		conf.Mode = core.ModeBaseline
	case "cache":
		conf.Mode = core.ModeCache
	case "repart":
		conf.Mode = core.ModeCustom
		conf.ForceStrategy(forceOp, forceIx, core.Repartition)
	case "idxloc":
		conf.Mode = core.ModeCustom
		conf.ForceStrategy(forceOp, forceIx, core.IndexLocality)
	case "dynamic":
		conf.Mode = core.ModeDynamic
	default:
		panic("bench: unknown strategy " + strategy)
	}
}

// forgetStatistics gives a dynamic op a runtime that has seen no
// statistics, like the paper's adaptive mode (§4): baseline first wave,
// on-the-fly statistics, one mid-job plan change. Without it only the
// first dynamic job on a runtime takes that path — later ones find the
// catalog filled and plan statically, like the optimized mode — and the
// adaptive runtime would be exercised in the warm-up only.
func forgetStatistics(rt *core.Runtime, strategy string) {
	if strategy == "dynamic" {
		rt.Catalog = core.NewCatalog()
	}
}

// synSizes shapes one synthetic-join workload.
type synSizes struct {
	records, keyDomain   int
	valueSize, indexSize int
	ops                  int
	fileBacked           bool // DFS chunks and index partitions served from mmap'd fstore snapshots
}

// synWorld is the Fig. 11(f) synthetic join in a fresh lab.
type synWorld struct {
	e     *env
	sz    synSizes
	l     *lab
	input *dfs.File
	store *kvstore.Store
	ref   digest // nested-loop reference of the join's output
	// keys is the input's lookup key stream in arrival order — what the
	// layer probes replay.
	keys []string
}

func setupSyn(e *env, sz synSizes) (*synWorld, error) {
	l := newLab(0)
	cfg := workloads.DefaultSyntheticConfig()
	cfg.Records = sz.records
	cfg.KeyDomain = sz.keyDomain
	cfg.ValueSize = sz.valueSize
	cfg.IndexValueSize = sz.indexSize
	cfg.Seed = e.seed
	l.fs.ChunkTarget = chunkTargetFor(sz.records * (sz.valueSize + 30))
	var dir string
	if sz.fileBacked {
		dir = filepath.Join(e.scratch, "world")
		if err := l.fs.SetBacking(filepath.Join(dir, "dfs")); err != nil {
			return nil, err
		}
	}
	input, store, err := workloads.GenerateSynthetic(l.fs, "syn", cfg)
	if err != nil {
		return nil, err
	}
	if sz.fileBacked {
		if err := store.Freeze(filepath.Join(dir, "kv")); err != nil {
			return nil, err
		}
	}
	w := &synWorld{e: e, sz: sz, l: l, input: input, store: store}
	recs := input.All()
	w.ref = synReference(recs, sz.indexSize)
	w.keys = make([]string, len(recs))
	for i, r := range recs {
		w.keys[i] = workloads.SyntheticKey(r.Value)
	}
	return w, nil
}

// timedPre, timedPost, timedMap and timedReduce add fn's running time to
// b; with a nil b (untraced, undecorated) they hand fn back untouched.
func timedPre(b *busy, fn core.PreFunc) core.PreFunc {
	if b == nil {
		return fn
	}
	return func(in core.Pair) core.PreResult {
		defer b.since(time.Now())
		return fn(in)
	}
}

func timedPost(b *busy, fn core.PostFunc) core.PostFunc {
	if b == nil {
		return fn
	}
	return func(p core.Pair, r [][]core.KeyResult, emit core.Emit) {
		defer b.since(time.Now())
		fn(p, r, emit)
	}
}

func timedMap(b *busy, fn mapreduce.MapFunc) mapreduce.MapFunc {
	if b == nil || fn == nil {
		return fn
	}
	return func(ctx *mapreduce.TaskContext, in core.Pair, emit core.Emit) {
		defer b.since(time.Now())
		fn(ctx, in, emit)
	}
}

func timedReduce(b *busy, fn mapreduce.ReduceFunc) mapreduce.ReduceFunc {
	if b == nil || fn == nil {
		return fn
	}
	return func(ctx *mapreduce.TaskContext, key string, values []string, emit core.Emit) {
		defer b.since(time.Now())
		fn(ctx, key, values, emit)
	}
}

// userFnTally is the decorator tally for user functions, nil untraced.
func (e *env) userFnTally() *busy {
	if e.dec == nil {
		return nil
	}
	return &e.dec.userFn
}

// conf composes the synthetic join as an EFind job, as
// experiments.buildSynConf does: look up each record's key, attach the
// l-sized value, group by record key.
func (w *synWorld) conf(name string) *core.IndexJobConf {
	ub := w.e.userFnTally()
	op := core.NewOperator("syn",
		timedPre(ub, func(in core.Pair) core.PreResult {
			return core.PreResult{Pair: in, Keys: [][]string{{workloads.SyntheticKey(in.Value)}}}
		}),
		timedPost(ub, func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			joined := ""
			if len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				joined = results[0][0].Values[0]
			}
			emit(core.Pair{Key: pair.Key, Value: pair.Value + "\x00" + joined})
		}))
	if w.e.dec != nil {
		op.AddIndex(countingStore{Store: w.store, b: &w.e.dec.accessor})
	} else {
		op.AddIndex(w.store)
	}
	conf := &core.IndexJobConf{
		Name:  name,
		Input: w.input,
		Mapper: timedMap(ub, func(_ *mapreduce.TaskContext, in core.Pair, emit core.Emit) {
			emit(in)
		}),
		Reducer: timedReduce(ub, mapreduce.IdentityReduce),
	}
	conf.AddHeadIndexOperator(op)
	return conf
}

func (w *synWorld) label(i int) string { return strategies[i%len(strategies)] }

// jobCounts extracts the exact per-job tallies the per-layer metrics use.
func jobCounts(res *core.JobResult, opNames []string, ixNames []string) map[string]float64 {
	c := map[string]float64{"submits": 1, "mr_jobs": float64(res.JobsRun)}
	if res.Replanned {
		c["replans"] = 1
	}
	for i, op := range opNames {
		c["cache_probes"] += float64(res.Counters[ixclient.CtrProbes(op, ixNames[i])])
		c["cache_misses"] += float64(res.Counters[ixclient.CtrMisses(op, ixNames[i])])
	}
	return c
}

// submitChecked runs one job, checks its output against ref and removes
// it from the DFS so memory reflects one job, not the history.
func submitChecked(c *opCtx, rt *core.Runtime, fs *dfs.FS, conf *core.IndexJobConf, ref digest) (*core.JobResult, opResult) {
	c.m.start()
	res, err := rt.Submit(conf)
	out := opResult{wall: c.m.stop(), records: conf.Input.Records()}
	if err != nil {
		out.err = err
		return nil, out
	}
	out.vtime = res.VTime
	sp := c.tr.begin("verify output", "bench", c.id, c.sp)
	d, err := digestFile(res.Output)
	sp.end()
	out.digest = d
	switch {
	case err != nil:
		out.err = err
	case d != ref:
		out.err = fmt.Errorf("output digest %v, reference %v", d, ref)
	}
	if err := fs.Remove(res.Output.Name); err != nil && out.err == nil {
		out.err = err
	}
	return res, out
}

func (w *synWorld) op(i int, c *opCtx) opResult {
	strategy := w.label(i)
	conf := w.conf("syn-" + strategy)
	applyStrategy(conf, strategy, "syn", w.store.Name())
	forgetStatistics(w.l.rt, strategy)
	res, out := submitChecked(c, w.l.rt, w.l.fs, conf, w.ref)
	if res != nil {
		out.counts = jobCounts(res, []string{"syn"}, []string{w.store.Name()})
		// Only the cache strategy's probes measure the real cache.
		if strategy != "cache" {
			delete(out.counts, "cache_probes")
			delete(out.counts, "cache_misses")
		}
	}
	return out
}

func (w *synWorld) close() error {
	err := w.l.engine.Close()
	if cerr := w.store.Close(); err == nil {
		err = cerr
	}
	if w.sz.fileBacked {
		// The next world built from this env writes the same paths.
		if rerr := os.RemoveAll(filepath.Join(w.e.scratch, "world")); err == nil {
			err = rerr
		}
	}
	return err
}

var synSmall = &workloadSpec{
	name:   "syn_small",
	why:    "Fig. 11(f) join with a 10 B index value: per-record overhead (counters, carrier framing, client chain, LRU, sort) dominates",
	cycle:  len(strategies),
	ops:    func(tiny bool) int { return synSmallSizes(tiny).ops },
	setup:  func(e *env) (world, error) { return setupSyn(e, synSmallSizes(e.tiny)) },
	layers: synLayers(synSmallSizes, true),
}

var synLarge = &workloadSpec{
	name:   "syn_large",
	why:    "same join with a 30 KB index value: copying value bytes dominates, per-record overhead does little",
	cycle:  len(strategies),
	ops:    func(tiny bool) int { return synLargeSizes(tiny).ops },
	setup:  func(e *env) (world, error) { return setupSyn(e, synLargeSizes(e.tiny)) },
	layers: synLayers(synLargeSizes, false),
}

func synSmallSizes(tiny bool) synSizes {
	if tiny {
		return synSizes{records: 2000, keyDomain: 1000, valueSize: 256, indexSize: 10, ops: 5}
	}
	return synSizes{records: 30000, keyDomain: 15000, valueSize: 256, indexSize: 10, ops: 35}
}

func synLargeSizes(tiny bool) synSizes {
	if tiny {
		return synSizes{records: 400, keyDomain: 200, valueSize: 256, indexSize: 30720, ops: 5}
	}
	return synSizes{records: 8000, keyDomain: 4000, valueSize: 256, indexSize: 30720, ops: 40}
}
