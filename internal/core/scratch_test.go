package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"efind/internal/dfs"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// The scratch-hygiene suite (-run ScratchHygiene). A stage's carrier and
// its slabs are reused record after record, so the hazard is one record
// seeing what an earlier one left behind. The reference below shares
// nothing with the stages: it runs the same user functions over the same
// stores with everything allocated fresh per record, in the nested-loop
// shape of bench/oracle.go.

// hygieneEnv is a small cluster with four hash-partitioned stores and an
// input whose records' key-list shapes alternate.
type hygieneEnv struct {
	rt     *Runtime
	input  *dfs.File
	a, b   *Operator
	stores map[*Operator][]*kvstore.Store
}

const hygieneRecords = 240

func newHygieneEnv(t *testing.T, parallelism int) *hygieneEnv {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Nodes, cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode = 6, 2, 2
	cfg.TaskStartup = 0.01
	cfg.Parallelism = parallelism
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 1 << 10
	e := &hygieneEnv{rt: NewRuntime(mapreduce.New(cluster, fs)), stores: map[*Operator][]*kvstore.Store{}}

	// Keys repeat across records (Θ > 1), hold one to three values, and
	// every fifth is missing from its store. The empty string is a key.
	store := func(name string, keys int) *kvstore.Store {
		s := kvstore.NewHash(cluster, name, 8, 3, 0.0005)
		for k := 0; k < keys; k++ {
			for v := 0; v <= k%3 && k%5 != 4; v++ {
				s.Put(fmt.Sprintf("%s%02d", name, k), fmt.Sprintf("%s-val-%d.%d", name, k, v))
			}
		}
		s.Put("", name+"-val-of-empty-key")
		return s
	}
	sa, sb, sc, sd := store("a", 30), store("b", 20), store("c", 10), store("d", 12)
	key := func(name string, i, mod int) string { return fmt.Sprintf("%s%02d", name, i%mod) }

	// Operator opA has three indices — one more than a carrier's inline
	// result-list backing — and a record shape that changes with every
	// record. Indices b and c see at most one key per record, so they can
	// be re-partitioned.
	e.a = NewOperator("opA",
		func(in Pair) PreResult {
			i, _ := strconv.Atoi(in.Key[1:])
			pair := Pair{Key: in.Key, Value: in.Value + "|pre"}
			switch i % 6 {
			case 0: // three keys for the first index
				return PreResult{Pair: pair, Keys: [][]string{{key("a", i, 30), key("a", i+1, 30), key("a", i+2, 30)}, {key("b", i, 20)}, {key("c", i, 10)}}}
			case 1: // no key lists at all
				return PreResult{Pair: in}
			case 2: // a key list for the second index only, the third left out
				return PreResult{Pair: pair, Keys: [][]string{nil, {key("b", i, 20)}}}
			case 3: // the empty string as a key
				return PreResult{Pair: pair, Keys: [][]string{{""}, {""}, {""}}}
			case 4: // the second index skipped
				return PreResult{Pair: pair, Keys: [][]string{{key("a", i, 30)}, nil, {key("c", i, 10)}}}
			default: // five results for one index
				return PreResult{Pair: pair, Keys: [][]string{{key("a", i, 30), key("a", i+7, 30), key("a", i+14, 30), key("a", i+21, 30), key("a", i+28, 30)}, {key("b", i, 20)}}}
			}
		},
		// One output per result of the first index — so the next operator
		// runs while this one's results are still being read — then one
		// that renders every result of every index.
		func(pair Pair, results [][]KeyResult, emit Emit) {
			for n, kr := range results[0] {
				emit(Pair{Key: fmt.Sprintf("%s/%d", pair.Key, n), Value: kr.Key + "=" + strings.Join(kr.Values, ",")})
			}
			emit(Pair{Key: pair.Key, Value: pair.Value + renderResults(results)})
		}).AddIndex(sa).AddIndex(sb).AddIndex(sc)
	e.stores[e.a] = []*kvstore.Store{sa, sb, sc}

	// Operator opB looks most records up in one index and skips the others.
	e.b = NewOperator("opB",
		func(in Pair) PreResult {
			if n := len(in.Value) % 13; n != 12 {
				return PreResult{Pair: in, Keys: [][]string{{key("d", n, 12)}}}
			}
			return PreResult{Pair: in}
		},
		func(pair Pair, results [][]KeyResult, emit Emit) {
			emit(Pair{Key: pair.Key, Value: pair.Value + renderResults(results)})
		}).AddIndex(sd)
	e.stores[e.b] = []*kvstore.Store{sd}

	recs := make([]dfs.Record, hygieneRecords)
	for i := range recs {
		recs[i] = dfs.Record{Key: fmt.Sprintf("r%05d", i), Value: strings.Repeat("x", i%17)}
	}
	var err error
	if e.input, err = fs.Create("hygiene-input", recs); err != nil {
		t.Fatal(err)
	}
	if len(e.input.Chunks) < 4 {
		t.Fatalf("input should span several splits, got %d", len(e.input.Chunks))
	}
	return e
}

func renderResults(results [][]KeyResult) string {
	var b strings.Builder
	for j, rs := range results {
		fmt.Fprintf(&b, " [%d:", j)
		for _, kr := range rs {
			fmt.Fprintf(&b, " %q=%q", kr.Key, kr.Values)
		}
		b.WriteByte(']')
	}
	return b.String()
}

// reference evaluates op over one pair the slow way: fresh key lists from
// preProcess, one direct store lookup per key into fresh result lists,
// postProcess.
func (e *hygieneEnv) reference(t *testing.T, op *Operator, in Pair, emit Emit) {
	pr := op.pre(in)
	results := make([][]KeyResult, op.NumIndices())
	for j, ks := range pr.Keys {
		for _, k := range ks {
			vals, err := e.stores[op][j].Lookup(k)
			if err != nil {
				t.Fatal(err)
			}
			results[j] = append(results[j], KeyResult{Key: k, Values: append([]string(nil), vals...)})
		}
	}
	op.post(pr.Pair, results, emit)
}

// want is the job's output by the reference: opA then opB over every record
// (the job's mapper and reducer are identities).
func (e *hygieneEnv) want(t *testing.T) []string {
	var out []string
	for _, r := range e.input.All() {
		e.reference(t, e.a, Pair(r), func(p Pair) {
			e.reference(t, e.b, p, func(q Pair) { out = append(out, q.Key+" :: "+q.Value) })
		})
	}
	sort.Strings(out)
	return out
}

// taskLines spells out what every task of every MapReduce job of a result
// counted — its counter set by name, in the set's order — and its sketches'
// vectors.
func taskLines(res *JobResult, tab *mapreduce.CounterTable) []string {
	names := tab.Names()
	var out []string
	for j, r := range res.raw {
		for i, st := range append(slices.Clone(r.MapStats), r.ReduceStats...) {
			var b strings.Builder
			fmt.Fprintf(&b, "job %d task %d (id %d):", j, i, st.ID)
			for _, c := range st.Counters {
				fmt.Fprintf(&b, " %s=%d", names[c.Slot], c.Value)
			}
			for _, sk := range st.Sketches {
				fmt.Fprintf(&b, " sketch %s=%x", sk.Name, sk.Vectors)
			}
			out = append(out, b.String())
		}
	}
	return out
}

// TestScratchHygiene runs the two-operator chain under every strategy,
// boundary and executor and compares each output with the reference.
// Each configuration runs twice, as its batch=false and batch=true cases:
// the names are those of the record-batching axis the runtime no longer
// has, and the second run starts on the engine state the first left.
// At par=1 one worker frame serves every task of a phase, each on the same
// stage instances, reopened; at par=4 four frames take the tasks in no set
// order. Every task must count the same counters and sketch vectors under
// both, so no count, carrier or client view outlives its task.
func TestScratchHygiene(t *testing.T) {
	type force struct{ op, ix string }
	cells := []struct {
		name       string
		mode       Mode
		strategy   Strategy
		forced     []force // indices that get the strategy and the boundary
		boundaries []Boundary
	}{
		{"baseline", ModeBaseline, 0, nil, nil},
		{"cache", ModeCache, 0, nil, nil},
		// One shuffle per operator; under BoundaryLate opB's stages run
		// inside opA's group reduce.
		{"repart", ModeCustom, Repartition, []force{{"opA", "b"}, {"opB", "d"}}, []Boundary{BoundaryPre, BoundaryIdx, BoundaryLate}},
		{"idxloc", ModeCustom, IndexLocality, []force{{"opA", "b"}, {"opB", "d"}}, nil},
		// Two shuffles in opA: the first group reduce re-keys.
		{"repart×2", ModeCustom, Repartition, []force{{"opA", "b"}, {"opA", "c"}, {"opB", "d"}}, []Boundary{BoundaryPre, BoundaryLate}},
	}
	counted := map[string][]string{} // by case name without its executor, at par=1
	for _, parallelism := range []int{1, 4} {
		e := newHygieneEnv(t, parallelism)
		want := e.want(t)
		if len(want) < hygieneRecords*2 {
			t.Fatalf("reference output has %d records, want a fan-out over %d inputs", len(want), hygieneRecords)
		}
		for _, cell := range cells {
			boundaries := cell.boundaries
			if boundaries == nil {
				boundaries = []Boundary{BoundaryPre}
			}
			for _, boundary := range boundaries {
				for _, batch := range []bool{false, true} {
					name := fmt.Sprintf("%s-%s-batch=%v-par=%d", cell.name, boundary, batch, parallelism)
					t.Run(name, func(t *testing.T) {
						conf := &IndexJobConf{
							Name: name, Input: e.input, Mode: cell.mode, NumReduce: 4,
							Mapper:  func(_ *mapreduce.TaskContext, in Pair, emit Emit) { emit(in) },
							Reducer: mapreduce.IdentityReduce,
						}
						conf.AddHeadIndexOperator(e.a)
						conf.AddHeadIndexOperator(e.b)
						for _, f := range cell.forced {
							conf.ForceStrategy(f.op, f.ix, cell.strategy)
							conf.ForceBoundary(f.op, f.ix, boundary)
						}
						res, err := e.rt.Submit(conf)
						if err != nil {
							t.Fatal(err)
						}
						sameOutput(t, name, want, sortedOutput(res.Output))
						key, tasks := strings.TrimSuffix(name, fmt.Sprintf("-par=%d", parallelism)), taskLines(res, e.rt.Engine.CounterTable())
						if parallelism == 1 {
							counted[key] = tasks
						} else if serial, ok := counted[key]; !ok {
							t.Fatalf("no par=1 run of %s to compare with", key)
						} else if !slices.Equal(tasks, serial) {
							for i := range min(len(tasks), len(serial)) {
								if tasks[i] != serial[i] {
									t.Fatalf("%d tasks counted, %d at par=1; the first that differs:\n%s\nat par=1:\n%s", len(tasks), len(serial), tasks[i], serial[i])
								}
							}
							t.Fatalf("%d tasks counted, %d at par=1", len(tasks), len(serial))
						}
					})
				}
			}
		}
	}
}

// TestScratchHygieneCarrier checks the carrier's own contract, which the
// stages rely on but no job output can show: reset leaves nothing of the
// previous record behind — the stages happen to overwrite every result
// list today — and the slabs stop growing once they fit the largest
// record, however many records pass.
func TestScratchHygieneCarrier(t *testing.T) {
	e := newHygieneEnv(t, 1)
	x := newOpExec(e.a, uniformPlan(e.a, HeadOp, LookupCache), &IndexJobConf{}, standaloneCounters)
	ctx := mapreduce.NewTaskContext(e.rt.Engine.Cluster, 0, 0, mapreduce.MapTask)
	stage := x.inlineStage()().(*inlineStage)
	stage.Open(ctx)
	c := &stage.c
	for i := 0; i < 6000; i++ {
		in := Pair{Key: fmt.Sprintf("r%05d", i), Value: "v"}
		stage.Process(ctx, in, func(Pair) {})
		if i%6 == 5 { // five results just attached; the next record has no keys
			e.a.runPre(Pair{Key: "r00001"}, c)
			if c.Keys == nil || len(c.Keys) != 3 || len(c.Results) != 3 || len(c.krs) != 0 || len(c.strs) != 0 {
				t.Fatalf("record %d: reset left keys %v, results %v, %d results in the slab", i, c.Keys, c.Results, len(c.krs))
			}
			for j := range c.Results {
				if c.Keys[j] != nil || c.Results[j] != nil {
					t.Fatalf("record %d: index %d inherited keys %v, results %v", i, j, c.Keys[j], c.Results[j])
				}
			}
		}
	}
	if cap(c.krs) > 16 || cap(c.Results) > 8 || cap(c.lists) > 8 || cap(c.strs) > 8 {
		t.Errorf("slabs grew with the record count: %d results, %d result lists, %d key lists, %d strings",
			cap(c.krs), cap(c.Results), cap(c.lists), cap(c.strs))
	}

	// The same for the decode side: a wide carrier, then a narrow one.
	wide := encodeCarrier(&carrier{Pair: Pair{Key: "k", Value: "v"},
		Keys:    [][]string{{"a", "b", "c"}, {"d"}, {"e"}},
		Results: [][]KeyResult{{{Key: "a", Values: []string{"x", "y"}}, {Key: "b"}}, {{Key: "d", Values: []string{"z"}}}, nil}})
	narrow := encodeCarrier(&carrier{Pair: Pair{Key: "k2", Value: "v2"}, Keys: [][]string{nil, nil, nil}, Results: make([][]KeyResult, 3)})
	for i := 0; i < 1000; i++ {
		for _, enc := range []string{wide, narrow} {
			if err := c.decode(enc); err != nil {
				t.Fatal(err)
			}
			if got := encodeCarrier(c); got != enc {
				t.Fatalf("round %d: decoded %q, re-encodes as %q", i, enc, got)
			}
		}
	}
	if cap(c.krs) > 16 || cap(c.Results) > 8 || cap(c.lists) > 8 || cap(c.strs) > 16 {
		t.Errorf("decode slabs grew with the record count: %d results, %d result lists, %d key lists, %d strings",
			cap(c.krs), cap(c.Results), cap(c.lists), cap(c.strs))
	}
}

// TestScratchHygieneEncodingBlock holds the stages' encodings to the
// block's contract: a string cut from a stage's block is never written
// again. Every shuffle record a stage emits — real keys and pass keys,
// encodings small enough to share a slab and ones made alone — is kept and
// compared byte for byte with a fresh encodeCarrier of its carrier, each
// time more records have filled later windows and again after the stage
// reopened for another task, on the map side and on the group side
// (re-keying for a next shuffle, and not).
func TestScratchHygieneEncodingBlock(t *testing.T) {
	e := newHygieneEnv(t, 1)
	cluster := e.rt.Engine.Cluster
	repart := func(ix int) Decision { return Decision{Index: ix, Strategy: Repartition, Boundary: BoundaryIdx} }
	plan := OperatorPlan{Op: e.a, Pos: HeadOp, Decisions: []Decision{repart(1), repart(2), {Index: 0, Strategy: LookupCache}}}
	x := newOpExec(e.a, plan, &IndexJobConf{}, standaloneCounters)

	type kept struct{ got, want Pair }
	var all []kept
	check := func(when string) {
		t.Helper()
		for i, k := range all {
			if k.got != k.want {
				t.Fatalf("%s: record %d changed after it was emitted:\n got %q\nwant %q", when, i, k.got, k.want)
			}
		}
	}
	// keepShuffle keeps what a stage emitted for the carrier c, keyed for
	// the index at ixIdx, beside its fresh reference.
	keepShuffle := func(got Pair, c *carrier, ixIdx int) {
		want := Pair{Key: passKeyPrefix + c.Pair.Key, Value: encodeCarrier(c)}
		if ixIdx < len(c.Keys) && len(c.Keys[ixIdx]) > 0 {
			want.Key = strings.Clone(c.Keys[ixIdx][0])
		}
		all = append(all, kept{got, want})
	}
	// run feeds records through stage, one task per batch, checking every
	// kept record after each batch and after each reopen.
	run := func(name string, kind mapreduce.TaskKind, stage mapreduce.Stage, in []Pair, sink func(Pair)) {
		for task, lo := 0, 0; lo < len(in); task, lo = task+1, lo+97 {
			ctx := mapreduce.NewTaskContext(cluster, sim.NodeID(task%3), task, kind)
			stage.Open(ctx)
			check(fmt.Sprintf("%s, task %d reopened", name, task))
			for _, p := range in[lo:min(lo+97, len(in))] {
				stage.Process(ctx, p, sink)
			}
			stage.Close(ctx, sink)
			check(fmt.Sprintf("%s, task %d", name, task))
		}
	}

	// Values from empty to 2 KB: most encodings share a slab, some are
	// made alone.
	var in []Pair
	for i := range 600 {
		in = append(in, Pair{Key: fmt.Sprintf("r%05d", i), Value: strings.Repeat("v", (i*37)%2048)})
	}
	emitStage := x.shuffleEmitStage(0)().(*shuffleEmitStage)
	var shuffled []Pair
	run("shuffle emit", mapreduce.MapTask, emitStage, in, func(p Pair) {
		keepShuffle(p, &emitStage.c, 1)
		shuffled = append(shuffled, p)
	})
	slices.SortStableFunc(shuffled, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })

	rekey := x.groupStage(0, BoundaryIdx, 1, nil)().(*groupStage)
	run("group, re-keying", mapreduce.ReduceTask, rekey, shuffled, func(p Pair) { keepShuffle(p, &rekey.c, 2) })
	last := x.groupStage(1, BoundaryIdx, -1, nil)().(*groupStage)
	run("group", mapreduce.ReduceTask, last, shuffled, func(p Pair) {
		all = append(all, kept{p, Pair{Key: strings.Clone(p.Key), Value: encodeCarrier(&last.c)}})
	})
	if len(all) != 3*len(in) {
		t.Fatalf("%d records kept, want %d", len(all), 3*len(in))
	}
}

// TestCorruptCarrierFailsJob feeds one corrupt carrier into each place
// that carries one — the group reduce that forwards values unread, the one
// that decodes to attach a result, and the resume stage of the next job —
// and requires the chain to fail by name. A carrier is the engine's own
// intermediate data: dropping one that does not decode would finish the
// job with a record missing and no error. A forwarding group reduce does not
// decode, so a carrier corrupted ahead of it fails the next job's resume
// stage.
func TestCorruptCarrierFailsJob(t *testing.T) {
	for _, site := range []struct {
		name     string
		boundary Boundary
		job      int  // the chain's job that gets the corrupting stage
		before   bool // ahead of the job's own map stages, or behind them
		fails    int  // the chain's job that fails
		stage    string
	}{
		{"group reduce, forwarding", BoundaryPre, 0, false, 1, "resume stage"},
		{"group reduce, attaching", BoundaryIdx, 0, false, 0, "group reduce"},
		{"resume stage", BoundaryPre, 1, true, 1, "resume stage"},
	} {
		for _, parallelism := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", site.name, parallelism), func(t *testing.T) {
				cfg := sim.DefaultConfig()
				cfg.Nodes, cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode = 6, 2, 2
				cfg.Parallelism = parallelism
				e := newE2EWith(t, cfg, 300, 20)
				op := e.lookupOp("victim")
				conf := e.conf("corrupt", ModeCustom, op, headPlace)
				conf.ForceStrategy(op.Name(), e.store.Name(), Repartition)
				conf.ForceBoundary(op.Name(), e.store.Name(), site.boundary)
				if err := conf.validate(e.rt); err != nil {
					t.Fatal(err)
				}
				pr := &planRun{rt: e.rt, run: e.rt.Engine.NewRun(), conf: conf, res: &JobResult{}}
				plan, err := pr.planFor(conf.Mode)
				if err != nil {
					t.Fatal(err)
				}
				co, err := pr.compile(plan)
				if err != nil {
					t.Fatal(err)
				}
				// Cut the last byte off the carrier of record r00007.
				corrupt := func() mapreduce.Stage {
					return &mapreduce.FuncStage{OnProcess: func(_ *mapreduce.TaskContext, in Pair, emit Emit) {
						if strings.Contains(in.Value, "6:r00007") {
							in.Value = in.Value[:len(in.Value)-1]
						}
						emit(in)
					}}
				}
				input, records := conf.Input, 0
				for k := range co.jobs {
					job := co.engineJob(conf, k, input)
					if k == site.job && site.before {
						job.MapStagesBefore = append([]mapreduce.StageFactory{corrupt}, job.MapStagesBefore...)
					} else if k == site.job {
						job.MapStagesBefore = append(job.MapStagesBefore[:len(job.MapStagesBefore):len(job.MapStagesBefore)], corrupt)
					}
					res, runErr := e.rt.Engine.Run(job)
					if runErr != nil {
						err = runErr
						break
					}
					input, records = res.Output, res.Output.Records()
				}
				if err == nil {
					t.Fatalf("the job succeeded with %d of 300 records", records)
				}
				for _, part := range []string{fmt.Sprintf("corrupt-j%d", site.fails), `operator "victim"`, site.stage, "corrupt carrier"} {
					if !strings.Contains(err.Error(), part) {
						t.Errorf("error does not name %q: %v", part, err)
					}
				}
			})
		}
	}
}
