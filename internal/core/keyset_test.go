package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"efind/internal/adaptix"
	"efind/internal/index"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

var updateKeySetGolden = flag.Bool("update-keyset-golden", false, "rewrite testdata/counter_keysets.golden")

// keyFailAccessor fails every lookup whose key ends in '3' with a
// transient error — by key, not by call count, so which lookups fail does
// not depend on how the executor interleaves tasks.
type keyFailAccessor struct {
	fakeAccessor
}

func (a keyFailAccessor) Lookup(k string) ([]string, error) {
	if strings.HasSuffix(k, "3") {
		return nil, fmt.Errorf("key-fail: %w", index.ErrTransient)
	}
	return a.fakeAccessor.Lookup(k)
}

// keySetMapper drops every record of split 0 and folds the rest onto three
// reduce keys, so a stage placed after it sees no record in one map task
// and most of the job's reducers receive no input.
func keySetMapper(ctx *mapreduce.TaskContext, in Pair, emit Emit) {
	if ctx.Split == 0 {
		return
	}
	emit(Pair{Key: fmt.Sprintf("g%d", in.Key[len(in.Key)-1]%3), Value: in.Key + "|" + in.Value})
}

// keySetScenario is one small job whose counter and sketch key sets the
// golden file pins.
type keySetScenario struct {
	name string
	// submit builds a fresh environment at the given executor parallelism
	// and runs the job; the table names the tasks' counters.
	submit func(t *testing.T, parallelism int) (*JobResult, *mapreduce.CounterTable)
}

func keySetScenarios() []keySetScenario {
	// job runs conf-building fn on a fresh e2e environment.
	job := func(records int, build func(e *e2eEnv) *IndexJobConf) func(*testing.T, int) (*JobResult, *mapreduce.CounterTable) {
		return func(t *testing.T, parallelism int) (*JobResult, *mapreduce.CounterTable) {
			e := parE2E(t, parallelism, records, 25)
			conf := build(e)
			conf.Mapper = keySetMapper
			conf.NumReduce = 8
			res, err := e.rt.Submit(conf)
			if err != nil {
				t.Fatal(err)
			}
			return res, e.rt.Engine.CounterTable()
		}
	}
	repart := func(b Boundary, place func(*IndexJobConf, *Operator)) func(e *e2eEnv) *IndexJobConf {
		return func(e *e2eEnv) *IndexJobConf {
			op := e.lookupOp("op")
			conf := e.conf("job", ModeCustom, op, place)
			conf.ForceStrategy(op.Name(), e.store.Name(), Repartition)
			conf.ForceBoundary(op.Name(), e.store.Name(), b)
			return conf
		}
	}
	return []keySetScenario{
		{"base", job(400, func(e *e2eEnv) *IndexJobConf {
			return e.conf("job", ModeBaseline, e.lookupOp("op"), headPlace)
		})},
		{"cache", job(400, func(e *e2eEnv) *IndexJobConf {
			return e.conf("job", ModeCache, e.lookupOp("op"), headPlace)
		})},
		{"repart-pre", job(400, repart(BoundaryPre, headPlace))},
		{"repart-idx", job(400, repart(BoundaryIdx, headPlace))},
		{"repart-late", job(400, repart(BoundaryLate, headPlace))},
		{"idxloc", job(400, func(e *e2eEnv) *IndexJobConf {
			op := e.lookupOp("op")
			conf := e.conf("job", ModeCustom, op, headPlace)
			conf.ForceStrategy(op.Name(), e.store.Name(), IndexLocality)
			return conf
		})},
		{"dynamic-cold", job(800, func(e *e2eEnv) *IndexJobConf {
			conf := e.conf("job", ModeDynamic, e.lookupOp("op"), headPlace)
			conf.VarianceThreshold = 0.5
			return conf
		})},
		{"dynamic-replan", func(t *testing.T, parallelism int) (*JobResult, *mapreduce.CounterTable) {
			cfg := sim.DefaultConfig()
			cfg.Nodes = 4
			cfg.MapSlotsPerNode = 2 // 8 map slots: several map waves
			cfg.ReduceSlotsPerNode = 1
			cfg.TaskStartup = 0.01
			cfg.Parallelism = parallelism
			e := newE2EWith(t, cfg, 1400, 10)
			conf := e.conf("job", ModeDynamic, e.lookupOp("op"), headPlace)
			conf.VarianceThreshold = 0.5
			conf.Mapper = keySetMapper
			res, err := e.rt.Submit(conf)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Replanned {
				t.Fatal("scenario is meant to change plan mid-job")
			}
			return res, e.rt.Engine.CounterTable()
		}},
		{"build-zero-charge", func(t *testing.T, parallelism int) (*JobResult, *mapreduce.CounterTable) {
			a := newAdxEnv(t, parallelism, 400, 25, 0.5)
			zero, err := adaptix.New(adaptix.Config{
				Name:      "adx0",
				Source:    a.input,
				Extract:   func(_, value string) []index.BuildEntry { return []index.BuildEntry{{Key: value, Value: "v"}} },
				Store:     kvstore.NewHash(a.cluster, "adx0", 8, 3, 0.0002),
				Registry:  a.reg,
				ScanTime:  0.002,
				BuildTime: 0,
				OfferRate: 0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			op := NewOperator("op", nil, nil).AddIndex(zero)
			conf := a.conf("job", ModeCustom, op, headPlace)
			conf.ForceStrategy(op.Name(), zero.Name(), Build)
			conf.Mapper = keySetMapper
			conf.NumReduce = 8
			res, err := a.rt.Submit(conf)
			if err != nil {
				t.Fatal(err)
			}
			return res, a.rt.Engine.CounterTable()
		}},
		{"body-tail-base", job(400, func(e *e2eEnv) *IndexJobConf {
			conf := e.conf("job", ModeBaseline, e.lookupOp("body"), bodyPlace)
			conf.AddTailIndexOperator(e.lookupOp("tail"))
			return conf
		})},
		{"tail-repart-late", job(400, repart(BoundaryLate, tailPlace))},
		{"tail-repart-pre", job(400, repart(BoundaryPre, tailPlace))},
		{"multi-index-two-shuffles", job(400, func(e *e2eEnv) *IndexJobConf {
			store2 := kvstore.NewHash(e.cluster, "kv2", 8, 3, 0.0005)
			for i := 0; i < 25; i++ {
				store2.Put(fmt.Sprintf("ik%04d", i), fmt.Sprintf("alt-%04d", i))
			}
			op := NewOperator("multi",
				func(in Pair) PreResult {
					f := strings.Fields(in.Value)
					ik := f[len(f)-1]
					// Two keys for the third index on some records: multikey.
					third := []string{in.Key}
					if strings.HasSuffix(in.Key, "7") {
						third = append(third, ik)
					}
					return PreResult{Pair: in, Keys: [][]string{{ik}, {ik}, third}}
				}, nil)
			op.AddIndex(e.store).AddIndex(store2).AddIndex(fakeAccessor{name: "fake"})
			conf := e.conf("job", ModeCustom, op, headPlace)
			conf.ForceStrategy(op.Name(), e.store.Name(), Repartition)
			conf.ForceStrategy(op.Name(), store2.Name(), Repartition)
			conf.ForceStrategy(op.Name(), "fake", LookupCache)
			return conf
		})},
		{"errors-retries", job(400, func(e *e2eEnv) *IndexJobConf {
			op := NewOperator("op", nil, nil).AddIndex(keyFailAccessor{fakeAccessor: fakeAccessor{name: "flaky"}})
			conf := e.conf("job", ModeCache, op, headPlace)
			conf.Retry = RetryPolicy{Max: 2, Backoff: 0.0001}
			return conf
		})},
	}
}

// renderKeySets prints a job's merged counters and, for every task of
// every MapReduce job the result retained, the sorted name=value counter
// lines and the sketch names.
func renderKeySets(b *strings.Builder, res *JobResult, tab *mapreduce.CounterTable) {
	lines := func(indent string, counters map[string]int64, sketches map[string][]uint64) {
		names := make([]string, 0, len(counters))
		for k := range counters {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(b, "%s%s=%d\n", indent, k, counters[k])
		}
		names = names[:0]
		for k := range sketches {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(b, "%ssketch %s\n", indent, k)
		}
	}
	fmt.Fprintf(b, "plan %s replanned=%v jobs=%d\n", res.Plan, res.Replanned, res.JobsRun)
	b.WriteString("job counters\n")
	lines("  ", res.Counters, nil)
	for j, r := range res.raw {
		for _, phase := range []struct {
			kind  string
			stats []mapreduce.TaskStats
		}{{"map", r.MapStats}, {"reduce", r.ReduceStats}} {
			for i, st := range phase.stats {
				fmt.Fprintf(b, "mr-job %d %s task %d (id %d)\n", j, phase.kind, i, st.ID)
				counters, names := make(map[string]int64, len(st.Counters)), tab.Names()
				for _, c := range st.Counters {
					counters[names[c.Slot]] += c.Value
				}
				if len(counters) != len(st.Counters) {
					fmt.Fprintf(b, "  a counter is listed twice: %v\n", st.Counters)
				}
				lines("  ", counters, st.Sketches)
			}
		}
	}
}

// TestCounterKeySetGolden pins which counters and sketches exist — not
// only their values — in the job result and in every task's statistics,
// for one small job per mode. A counter exists iff Inc was called for it
// (Inc(name, 0) creates the key; a stage that sees no record creates
// none), and traces, profiles and the job service's journalled hashes all
// see the difference. The golden file was generated before the record
// path moved to pre-resolved counter cells and must not change with it.
// The serial and the parallel executor must both reproduce it.
func TestCounterKeySetGolden(t *testing.T) {
	var b strings.Builder
	for _, sc := range keySetScenarios() {
		var serial string
		for _, parallelism := range []int{1, 4} {
			var s strings.Builder
			res, tab := sc.submit(t, parallelism)
			renderKeySets(&s, res, tab)
			if parallelism == 1 {
				serial = s.String()
			} else if s.String() != serial {
				t.Errorf("scenario %s: key sets differ between Parallelism 1 and %d", sc.name, parallelism)
			}
		}
		fmt.Fprintf(&b, "== %s\n%s", sc.name, serial)
	}
	golden := filepath.Join("testdata", "counter_keysets.golden")
	if *updateKeySetGolden {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("counter key sets differ from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("counter key sets differ from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
