package core

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"testing"

	"efind/internal/dfs"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// e2eEnv bundles a small cluster with a loaded KV index and an input whose
// lookup keys repeat both within and across chunks (Θ≈5).
type e2eEnv struct {
	cluster *sim.Cluster
	fs      *dfs.FS
	rt      *Runtime
	store   *kvstore.Store
	input   *dfs.File
	oneKey  bool // lookupOp returns its key through OneKey, not a key list
}

func newE2E(tb testing.TB, records, distinctKeys int) *e2eEnv {
	tb.Helper()
	cfg := sim.DefaultConfig()
	cfg.Nodes = 6
	cfg.MapSlotsPerNode = 2
	cfg.ReduceSlotsPerNode = 2
	cfg.TaskStartup = 0.01
	return newE2EWith(tb, cfg, records, distinctKeys)
}

func newE2EWith(tb testing.TB, cfg sim.Config, records, distinctKeys int) *e2eEnv {
	tb.Helper()
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 2 << 10
	engine := mapreduce.New(cluster, fs)
	rt := NewRuntime(engine)

	store := kvstore.NewHash(cluster, "kv", 16, 3, 0.0008)
	for i := 0; i < distinctKeys; i++ {
		store.Put(fmt.Sprintf("ik%04d", i), fmt.Sprintf("value-for-%04d", i))
	}

	recs := make([]dfs.Record, records)
	for i := range recs {
		ik := fmt.Sprintf("ik%04d", i%distinctKeys)
		recs[i] = dfs.Record{Key: fmt.Sprintf("r%05d", i), Value: "payload " + ik}
	}
	input, err := fs.Create("input", recs)
	if err != nil {
		tb.Fatal(err)
	}
	if records >= 200 && len(input.Chunks) < 4 {
		tb.Fatalf("test input should span several chunks, got %d", len(input.Chunks))
	}
	return &e2eEnv{cluster: cluster, fs: fs, rt: rt, store: store, input: input}
}

// lookupOp extracts the index key (last token of the value) and appends
// the lookup results to the record.
func (e *e2eEnv) lookupOp(name string) *Operator {
	op := NewOperator(name,
		func(in Pair) PreResult {
			fields := strings.Fields(in.Value)
			if e.oneKey {
				return OneKey(in, fields[len(fields)-1])
			}
			return PreResult{Pair: in, Keys: [][]string{{fields[len(fields)-1]}}}
		},
		func(pair Pair, results [][]KeyResult, emit Emit) {
			vals := "none"
			if len(results) > 0 && len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				vals = strings.Join(results[0][0].Values, ",")
			}
			emit(Pair{Key: pair.Key, Value: pair.Value + " => " + vals})
		})
	op.AddIndex(e.store)
	return op
}

func (e *e2eEnv) conf(name string, mode Mode, op *Operator, place func(*IndexJobConf, *Operator)) *IndexJobConf {
	conf := &IndexJobConf{
		Name:      name,
		Input:     e.input,
		Mode:      mode,
		NumReduce: 4,
		Mapper: func(_ *mapreduce.TaskContext, in Pair, emit Emit) {
			emit(in)
		},
		Reducer: mapreduce.IdentityReduce,
	}
	place(conf, op)
	return conf
}

func headPlace(c *IndexJobConf, op *Operator) { c.AddHeadIndexOperator(op) }
func bodyPlace(c *IndexJobConf, op *Operator) { c.AddBodyIndexOperator(op) }
func tailPlace(c *IndexJobConf, op *Operator) { c.AddTailIndexOperator(op) }

// sortedOutput canonicalizes an output file for comparison.
func sortedOutput(f *dfs.File) []string {
	var out []string
	for _, r := range f.All() {
		out = append(out, r.Key+" :: "+r.Value)
	}
	sort.Strings(out)
	return out
}

func sameOutput(t *testing.T, label string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: output sizes differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: outputs differ at %d:\n  %q\n  %q", label, i, a[i], b[i])
		}
	}
}

func TestAllStrategiesProduceIdenticalOutput(t *testing.T) {
	for _, position := range []struct {
		name  string
		place func(*IndexJobConf, *Operator)
	}{
		{"head", headPlace},
		{"body", bodyPlace},
		{"tail", tailPlace},
	} {
		t.Run(position.name, func(t *testing.T) {
			e := newE2E(t, 600, 40)

			runMode := func(label string, mode Mode, force Strategy, forceIt bool) []string {
				op := e.lookupOp("op-" + position.name + "-" + label)
				conf := e.conf("job-"+position.name+"-"+label, mode, op, position.place)
				if forceIt {
					conf.ForceStrategy(op.Name(), e.store.Name(), force)
				}
				res, err := e.rt.Submit(conf)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.VTime <= 0 {
					t.Fatalf("%s: no virtual time", label)
				}
				return sortedOutput(res.Output)
			}

			base := runMode("base", ModeBaseline, 0, false)
			if len(base) != 600 {
				t.Fatalf("baseline output has %d records, want 600", len(base))
			}
			sameOutput(t, "cache", base, runMode("cache", ModeCache, 0, false))
			sameOutput(t, "repart", base, runMode("repart", ModeCustom, Repartition, true))
			sameOutput(t, "idxloc", base, runMode("idxloc", ModeCustom, IndexLocality, true))

			// A key list and OneKey are one input to the runtime: under
			// every strategy, boundary and the dynamic runtime, the two
			// forms, each on an environment of its own, give the same
			// output, counters and virtual time.
			for _, s := range []struct {
				label    string
				mode     Mode
				force    Strategy
				boundary Boundary
			}{
				{"base", ModeBaseline, 0, 0},
				{"cache", ModeCache, 0, 0},
				{"repart-pre", ModeCustom, Repartition, BoundaryPre},
				{"repart-idx", ModeCustom, Repartition, BoundaryIdx},
				{"repart-late", ModeCustom, Repartition, BoundaryLate},
				{"idxloc", ModeCustom, IndexLocality, 0},
				{"dynamic", ModeDynamic, 0, 0},
			} {
				var runs [2]*JobResult
				for i, oneKey := range []bool{false, true} {
					e := newE2E(t, 600, 40)
					e.oneKey = oneKey
					op := e.lookupOp("op-" + position.name)
					conf := e.conf("job-"+position.name+"-"+s.label, s.mode, op, position.place)
					if s.mode == ModeCustom {
						conf.ForceStrategy(op.Name(), e.store.Name(), s.force)
						if s.force == Repartition {
							conf.ForceBoundary(op.Name(), e.store.Name(), s.boundary)
						}
					}
					res, err := e.rt.Submit(conf)
					if err != nil {
						t.Fatalf("%s, one key %v: %v", s.label, oneKey, err)
					}
					runs[i] = res
				}
				list, one := runs[0], runs[1]
				if list.VTime != one.VTime {
					t.Fatalf("%s: virtual time %g from a key list, %g from OneKey", s.label, list.VTime, one.VTime)
				}
				if !maps.Equal(list.Counters, one.Counters) {
					t.Fatalf("%s: counters differ between a key list and OneKey:\n%v\n%v", s.label, list.Counters, one.Counters)
				}
				sameOutput(t, s.label+": key list vs OneKey", sortedOutput(list.Output), sortedOutput(one.Output))
			}
		})
	}
}

func TestRepartReducesIndexLoad(t *testing.T) {
	e := newE2E(t, 1000, 50)

	run := func(label string, mode Mode, force bool, strat Strategy) int64 {
		e.store.ResetStats()
		op := e.lookupOp("op-" + label)
		conf := e.conf("job-"+label, mode, op, headPlace)
		if force {
			conf.ForceStrategy(op.Name(), e.store.Name(), strat)
		}
		if _, err := e.rt.Submit(conf); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return e.store.Lookups()
	}

	baseLookups := run("base", ModeBaseline, false, 0)
	if baseLookups != 1000 {
		t.Fatalf("baseline should look up once per record, got %d", baseLookups)
	}
	cacheLookups := run("cache", ModeCache, false, 0)
	if cacheLookups >= baseLookups {
		t.Fatalf("cache should reduce lookups: %d vs %d", cacheLookups, baseLookups)
	}
	repartLookups := run("repart", ModeCustom, true, Repartition)
	// Re-partitioning groups all 50 distinct keys globally: lookups should
	// approach the distinct count (plus pass-through noise).
	if repartLookups > 100 {
		t.Fatalf("repart should collapse to ~50 lookups, got %d", repartLookups)
	}
	idxlocLookups := run("idxloc", ModeCustom, true, IndexLocality)
	if idxlocLookups > 100 {
		t.Fatalf("idxloc should collapse to ~50 lookups, got %d", idxlocLookups)
	}
}

func TestRepartBoundaries(t *testing.T) {
	for _, b := range []Boundary{BoundaryPre, BoundaryIdx, BoundaryLate} {
		t.Run(b.String(), func(t *testing.T) {
			e := newE2E(t, 400, 25)
			op := e.lookupOp("op-b")
			conf := e.conf("job-b", ModeCustom, op, headPlace)
			conf.ForceStrategy(op.Name(), e.store.Name(), Repartition)
			conf.ForceBoundary(op.Name(), e.store.Name(), b)
			res, err := e.rt.Submit(conf)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(sortedOutput(res.Output)); got != 400 {
				t.Fatalf("boundary %v lost records: %d", b, got)
			}

			// Reference: baseline output.
			opB := e.lookupOp("op-b-ref")
			ref, err := e.rt.Submit(e.conf("job-b-ref", ModeBaseline, opB, headPlace))
			if err != nil {
				t.Fatal(err)
			}
			sameOutput(t, b.String(), sortedOutput(ref.Output), sortedOutput(res.Output))
		})
	}
}

func TestIdxLocSchedulesOnIndexHosts(t *testing.T) {
	e := newE2E(t, 800, 40)
	op := e.lookupOp("op-loc")
	conf := e.conf("job-loc", ModeCustom, op, headPlace)
	conf.ForceStrategy(op.Name(), e.store.Name(), IndexLocality)
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	// With index locality every grouped lookup should be served locally:
	// the kvstore charges no network when the task node hosts the key's
	// partition, so compare against a repart run (remote lookups).
	if res.JobsRun < 2 {
		t.Fatalf("idxloc should add a shuffling job, ran %d", res.JobsRun)
	}
}

func TestMultipleOperatorsChained(t *testing.T) {
	e := newE2E(t, 500, 30)
	// Second store with different values.
	store2 := kvstore.NewHash(e.cluster, "kv2", 8, 3, 0.0005)
	for i := 0; i < 30; i++ {
		store2.Put(fmt.Sprintf("ik%04d", i), fmt.Sprintf("second-%04d", i))
	}
	op1 := e.lookupOp("first")
	op2 := NewOperator("second",
		func(in Pair) PreResult {
			// key is embedded in the enriched value: "payload ikNNNN => ..."
			fields := strings.Fields(in.Value)
			return PreResult{Pair: in, Keys: [][]string{{fields[1]}}}
		},
		func(pair Pair, results [][]KeyResult, emit Emit) {
			extra := ""
			if len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				extra = results[0][0].Values[0]
			}
			emit(Pair{Key: pair.Key, Value: pair.Value + " ++ " + extra})
		})
	op2.AddIndex(store2)

	conf := e.conf("job-chain", ModeBaseline, op1, headPlace)
	conf.AddBodyIndexOperator(op2)
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	out := sortedOutput(res.Output)
	if len(out) != 500 {
		t.Fatalf("chained output has %d records", len(out))
	}
	for _, line := range out[:5] {
		if !strings.Contains(line, "=>") || !strings.Contains(line, "++ second-") {
			t.Fatalf("chained enrichment missing in %q", line)
		}
	}
}

func TestMultiIndexSingleOperator(t *testing.T) {
	e := newE2E(t, 400, 20)
	store2 := kvstore.NewHash(e.cluster, "kv2", 8, 3, 0.0005)
	for i := 0; i < 20; i++ {
		store2.Put(fmt.Sprintf("ik%04d", i), fmt.Sprintf("alt-%04d", i))
	}
	op := NewOperator("multi",
		func(in Pair) PreResult {
			fields := strings.Fields(in.Value)
			ik := fields[len(fields)-1]
			return PreResult{Pair: in, Keys: [][]string{{ik}, {ik}}}
		},
		func(pair Pair, results [][]KeyResult, emit Emit) {
			a, b := "", ""
			if len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				a = results[0][0].Values[0]
			}
			if len(results[1]) > 0 && len(results[1][0].Values) > 0 {
				b = results[1][0].Values[0]
			}
			emit(Pair{Key: pair.Key, Value: a + "|" + b})
		})
	op.AddIndex(e.store)
	op.AddIndex(store2)

	conf := e.conf("job-multi", ModeBaseline, op, headPlace)
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	out := sortedOutput(res.Output)
	if len(out) != 400 {
		t.Fatalf("multi-index output has %d records", len(out))
	}
	if !strings.Contains(out[0], "value-for-") || !strings.Contains(out[0], "|alt-") {
		t.Fatalf("both indices should contribute: %q", out[0])
	}

	// Forced repart on the first index must keep output identical.
	op2 := NewOperator("multi2", nil, nil)
	*op2 = *op
	op2.name = "multi2"
	conf2 := e.conf("job-multi2", ModeCustom, op2, headPlace)
	conf2.ForceStrategy("multi2", e.store.Name(), Repartition)
	res2, err := e.rt.Submit(conf2)
	if err != nil {
		t.Fatal(err)
	}
	sameOutput(t, "multi-repart", out, sortedOutput(res2.Output))
}

func TestOptimizedModeUsesCatalog(t *testing.T) {
	e := newE2E(t, 1200, 30) // Θ = 40: strong global redundancy
	op := e.lookupOp("op-opt")
	statsConf := e.conf("job-opt-stats", ModeBaseline, op, headPlace)
	if err := e.rt.CollectStats(statsConf); err != nil {
		t.Fatal(err)
	}
	st := e.rt.Catalog.Get("op-opt")
	if st == nil {
		t.Fatal("catalog empty after CollectStats")
	}
	is := st.Index[e.store.Name()]
	if is.Theta < 10 {
		t.Fatalf("Θ should be ≈40, got %g", is.Theta)
	}
	if is.Nik < 0.99 || is.Nik > 1.01 {
		t.Fatalf("Nik should be 1, got %g", is.Nik)
	}

	conf := e.conf("job-opt", ModeOptimized, op, headPlace)
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	// With Θ=40 and a nontrivial serve time the optimizer should pick a
	// shuffle strategy.
	d := res.Plan.Head[0].Decisions[0]
	if d.Strategy != Repartition && d.Strategy != IndexLocality && d.Strategy != LookupCache {
		t.Fatalf("optimizer picked %v", d.Strategy)
	}
	if len(sortedOutput(res.Output)) != 1200 {
		t.Fatal("optimized run lost records")
	}
}

func TestMapOnlyJobWithHeadOp(t *testing.T) {
	e := newE2E(t, 300, 20)
	op := e.lookupOp("op-maponly")
	conf := &IndexJobConf{
		Name:  "maponly",
		Input: e.input,
		Mode:  ModeBaseline,
		Mapper: func(_ *mapreduce.TaskContext, in Pair, emit Emit) {
			emit(in)
		},
	}
	conf.AddHeadIndexOperator(op)
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Records() != 300 {
		t.Fatalf("map-only output has %d records", res.Output.Records())
	}
}

func TestBodyTailWithoutReducerRejected(t *testing.T) {
	e := newE2E(t, 10, 5)
	op := e.lookupOp("op-x")
	conf := &IndexJobConf{Name: "bad", Input: e.input, Mode: ModeBaseline}
	conf.AddBodyIndexOperator(op)
	if _, err := e.rt.Submit(conf); err == nil {
		t.Fatal("body op without reducer must be rejected")
	}
}

func TestIdxLocOnUnpartitionedIndexRejected(t *testing.T) {
	e := newE2E(t, 10, 5)
	op := NewOperator("op-u", nil, nil).AddIndex(fakeAccessor{name: "svc"})
	conf := e.conf("bad-loc", ModeCustom, op, headPlace)
	conf.ForceStrategy("op-u", "svc", IndexLocality)
	if _, err := e.rt.Submit(conf); err == nil {
		t.Fatal("index locality on an unpartitioned index must be rejected")
	}
}

func TestDuplicateOperatorNamesRejected(t *testing.T) {
	e := newE2E(t, 10, 5)
	conf := e.conf("dup", ModeBaseline, e.lookupOp("same"), headPlace)
	conf.AddBodyIndexOperator(e.lookupOp("same"))
	if _, err := e.rt.Submit(conf); err == nil {
		t.Fatal("duplicate operator names must be rejected")
	}
}

func TestVTimeOrderingUnderRedundancy(t *testing.T) {
	// Strong global redundancy with slow index: base > cache > repart, the
	// paper's LOG-shaped ordering.
	e := newE2E(t, 2000, 25) // Θ = 80
	run := func(label string, mode Mode, strat Strategy, force bool) float64 {
		op := e.lookupOp("op-" + label)
		conf := e.conf("job-v-"+label, mode, op, headPlace)
		if force {
			conf.ForceStrategy(op.Name(), e.store.Name(), strat)
		}
		res, err := e.rt.Submit(conf)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res.VTime
	}
	base := run("base", ModeBaseline, 0, false)
	cache := run("cache", ModeCache, 0, false)
	if cache >= base {
		t.Fatalf("cache (%g) should beat base (%g) under local redundancy", cache, base)
	}
}

func TestTempFilesCleanedUp(t *testing.T) {
	e := newE2E(t, 400, 20)
	before := len(e.fs.List())
	op := e.lookupOp("op-tmp")
	conf := e.conf("job-tmp", ModeCustom, op, headPlace)
	conf.ForceStrategy(op.Name(), e.store.Name(), Repartition)
	if _, err := e.rt.Submit(conf); err != nil {
		t.Fatal(err)
	}
	after := len(e.fs.List())
	// Only the final output should remain.
	if after != before+1 {
		t.Fatalf("temp files leaked: %d files before, %d after (%v)", before, after, e.fs.List())
	}
}
