package mapreduce

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"efind/internal/dfs"
	"efind/internal/sim"
)

// The shuffle tests drive the engine with a job whose every input split
// is one record naming the split, and whose map function fans that record
// out into a chosen number of emissions over keys that collide within and
// across splits. What each reducer must see is computed here by a
// map-based group-by that shares no code with the engine.

const shuffleSplits = 6

// shuffleInput writes one one-record split per map task.
func shuffleInput(t *testing.T, fs *dfs.FS, name string) *dfs.File {
	t.Helper()
	shards := make([][]dfs.Record, shuffleSplits)
	homes := make([]sim.NodeID, shuffleSplits)
	for s := range shards {
		shards[s] = []dfs.Record{{Key: fmt.Sprint(s), Value: "x"}}
		homes[s] = sim.NodeID(s % 4)
	}
	f, err := fs.CreateSharded(name, shards, homes)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Chunks) != shuffleSplits {
		t.Fatalf("input has %d splits, want %d", len(f.Chunks), shuffleSplits)
	}
	return f
}

// emission is the j-th record split s emits.
func emission(s, j int) Pair {
	return Pair{Key: fmt.Sprintf("key%02d", (s*7+j*j)%41), Value: fmt.Sprintf("%d/%d", s, j)}
}

func fanOut(perSplit int) MapFunc {
	return func(_ *TaskContext, in Pair, emit Emit) {
		var s int
		fmt.Sscan(in.Key, &s)
		for j := 0; j < perSplit; j++ {
			emit(emission(s, j))
		}
	}
}

// tailPartition is a partitioner that is not the default.
func tailPartition(key string, n int) int {
	return (int(key[len(key)-1])*31 + int(key[len(key)-2])) % n
}

// joinValues is the reduce function: one record per group, the values in
// the order the engine delivered them. It is also the order-preserving
// combiner — joining joins gives the join — so a combined run must yield
// the same shards as an uncombined one.
func joinValues(_ *TaskContext, key string, values []string, emit Emit) {
	emit(Pair{Key: key, Value: strings.Join(values, ",")})
}

// shuffleCase is one cell of the equivalence matrix.
type shuffleCase struct {
	numReduce, perSplit int
	combine             string // "off", "on", or "empties": drops every key of an even reducer
	partition           func(string, int) int
}

func (c shuffleCase) route(key string) int {
	if c.partition != nil {
		return c.partition(key, c.numReduce)
	}
	return HashPartition(key, c.numReduce)
}

func (c shuffleCase) job(in *dfs.File) *Job {
	job := &Job{Name: "shuffle", Input: in, Map: fanOut(c.perSplit), NumReduce: c.numReduce, Partition: c.partition, Reduce: joinValues}
	switch c.combine {
	case "on":
		job.Combine = joinValues
	case "empties":
		job.Combine = func(ctx *TaskContext, key string, values []string, emit Emit) {
			if c.route(key)%2 != 0 {
				joinValues(ctx, key, values, emit)
			}
		}
	}
	return job
}

// want is the reference: per reducer, its groups with their values in
// (map task index, emission order), as key-sorted records.
func (c shuffleCase) want() [][]dfs.Record {
	groups := make([]map[string][]string, c.numReduce)
	for s := 0; s < shuffleSplits; s++ {
		for j := 0; j < c.perSplit; j++ {
			p := emission(s, j)
			r := c.route(p.Key)
			if c.combine == "empties" && r%2 == 0 {
				continue
			}
			if groups[r] == nil {
				groups[r] = map[string][]string{}
			}
			groups[r][p.Key] = append(groups[r][p.Key], p.Value)
		}
	}
	shards := make([][]dfs.Record, c.numReduce)
	for r, g := range groups {
		for key, values := range g {
			shards[r] = append(shards[r], dfs.Record{Key: key, Value: strings.Join(values, ",")})
		}
		slices.SortFunc(shards[r], func(a, b dfs.Record) int { return strings.Compare(a.Key, b.Key) })
	}
	return shards
}

// checkSparse verifies the MapOutput contract on every output of a phase.
func checkSparse(t *testing.T, c shuffleCase, outputs []*MapOutput) {
	t.Helper()
	for i, o := range outputs {
		if o.Parts != c.numReduce || len(o.Buckets) != len(o.Reducers) {
			t.Fatalf("output %d: Parts %d, %d buckets, %d reducers; want Parts %d", i, o.Parts, len(o.Buckets), len(o.Reducers), c.numReduce)
		}
		for bi, b := range o.Buckets {
			if len(b) == 0 {
				t.Fatalf("output %d lists an empty bucket for reducer %d", i, o.Reducers[bi])
			}
			if bi > 0 && o.Reducers[bi] <= o.Reducers[bi-1] {
				t.Fatalf("output %d: reducers %v not ascending", i, o.Reducers)
			}
			for _, p := range b {
				if got := c.route(p.Key); got != int(o.Reducers[bi]) {
					t.Fatalf("output %d: key %q sits in reducer %d's bucket, routes to %d", i, p.Key, o.Reducers[bi], got)
				}
			}
		}
	}
}

func TestShuffleMatchesGroupBy(t *testing.T) {
	for _, numReduce := range []int{1, 2, 7, 256, 5000} {
		for _, perSplit := range []int{0, 1, 3, 200} {
			for _, combine := range []string{"off", "on", "empties"} {
				for pi, partition := range []func(string, int) int{nil, tailPartition} {
					c := shuffleCase{numReduce, perSplit, combine, partition}
					t.Run(fmt.Sprintf("r%d/n%d/combine-%s/part%d", numReduce, perSplit, combine, pi), func(t *testing.T) {
						want := c.want()
						var serial [][]dfs.Record
						for _, parallelism := range []int{1, 4} {
							fs, e := parEnv(t, parallelism)
							job := c.job(shuffleInput(t, fs, "in"))
							run := e.NewRun()
							mp, err := run.RunMapPhase(job, nil)
							if err != nil {
								t.Fatal(err)
							}
							checkSparse(t, c, mp.Outputs)
							sub, err := run.RunReduceSubset(job, mp.Outputs, nil)
							if err != nil {
								t.Fatal(err)
							}
							for r := range want {
								if !slices.Equal(sub.Shards[r], want[r]) {
									t.Fatalf("parallelism %d reducer %d:\n got %v\nwant %v", parallelism, r, sub.Shards[r], want[r])
								}
							}
							if serial == nil {
								serial = sub.Shards
							} else if !reflect.DeepEqual(serial, sub.Shards) {
								t.Fatal("shards differ between Parallelism 1 and 4")
							}
						}
					})
				}
			}
		}
	}
}

// TestShuffleMergedPhasesAndSubsets: reducing over two map phases merged
// (the Figure 10(a) plan-change path) and over strict subsets of the
// reducers (Figure 10(b)) gives the shards of one phase over everything.
func TestShuffleMergedPhasesAndSubsets(t *testing.T) {
	c := shuffleCase{numReduce: 7, perSplit: 30, combine: "off"}
	want := c.want()
	fs, e := parEnv(t, 4)
	job := c.job(shuffleInput(t, fs, "in"))
	run := e.NewRun()
	first, err := run.RunMapPhase(job, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rest, err := run.RunMapPhase(job, []int{2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.RunReducePhase(job, &MapPhaseResult{Outputs: append(first.Outputs, rest.Outputs...)})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]dfs.Record, c.numReduce)
	for _, chunk := range res.Output.Chunks {
		recs, err := chunk.Records()
		if err != nil {
			t.Fatal(err)
		}
		got[chunk.Shard] = append(got[chunk.Shard], recs...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged phases:\n got %v\nwant %v", got, want)
	}

	for _, reducers := range [][]int{{5}, {6, 0, 3}} {
		sub, err := run.RunReduceSubset(job, res.MapOutputs, reducers)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reducers {
			if !slices.Equal(sub.Shards[i], want[r]) {
				t.Fatalf("subset %v reducer %d:\n got %v\nwant %v", reducers, r, sub.Shards[i], want[r])
			}
		}
	}
}

// TestReduceRejectsUnusableMapOutputs: an output partitioned for another
// reducer count, a bucket too long to index, and a hole a failed map phase
// left behind, are errors naming the job and the position — not a wrong
// shuffle, not a wrapped index, not a nil dereference.
func TestReduceRejectsUnusableMapOutputs(t *testing.T) {
	fs, e := parEnv(t, 1)
	in := shuffleInput(t, fs, "in")
	c := shuffleCase{numReduce: 7, perSplit: 3, combine: "off"}
	run := e.NewRun()
	mp, err := run.RunMapPhase(c.job(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	other := shuffleCase{numReduce: 5, perSplit: 3, combine: "off"}.job(in)
	other.Name = "five-way"
	_, err = run.RunReducePhase(other, mp)
	if err == nil || !strings.Contains(err.Error(), `"five-way"`) || !strings.Contains(err.Error(), "partitioned for 7 reducers, want 5") {
		t.Fatalf("reducing a 7-way output 5 ways: %v", err)
	}

	// A bucket longer than a keyRef can count, by its header alone: the index
	// must refuse it on its length, before anything reads a record of it.
	long := *mp.Outputs[1]
	long.Buckets = slices.Clone(long.Buckets)
	header := (*[3]int)(unsafe.Pointer(&long.Buckets[0])) // data, len, cap
	header[1], header[2] = maxRef+1, maxRef+1
	outputs := slices.Clone(mp.Outputs)
	outputs[1] = &long
	_, err = run.RunReduceSubset(c.job(in), outputs, nil)
	want := fmt.Sprintf("map output 1 holds %d records for reducer %d, more than the %d", maxRef+1, long.Reducers[0], maxRef)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("reducing a bucket of %d records: %v, want %q", maxRef+1, err, want)
	}

	mp.Outputs[2] = nil
	for name, reduce := range map[string]func() error{
		"RunReducePhase":  func() error { _, err := run.RunReducePhase(c.job(in), mp); return err },
		"RunReduceSubset": func() error { _, err := run.RunReduceSubset(c.job(in), mp.Outputs, []int{1}); return err },
	} {
		if err := reduce(); err == nil || !strings.Contains(err.Error(), "map output 2 is missing") {
			t.Errorf("%s over a missing output: %v", name, err)
		}
	}
}

// TestPartitionerOutOfRangeFailsJob: a partitioner answering outside
// [0, NumReduce) fails the job with an error naming the job, the key and
// the answer. It used to be an index panic, re-raised on a node goroutine
// under the parallel executor — the process died.
func TestPartitionerOutOfRangeFailsJob(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		for _, answer := range []func(n int) int{func(n int) int { return n }, func(int) int { return -1 }} {
			for _, numReduce := range []int{1, 4} {
				fs, e := parEnv(t, parallelism)
				job := &Job{
					Name: "misrouted", Input: shuffleInput(t, fs, "in"), Reduce: IdentityReduce, NumReduce: numReduce,
					Partition: func(_ string, n int) int { return answer(n) },
				}
				_, err := e.Run(job)
				want := fmt.Sprintf(`partitioner returned %d for key "0"`, answer(numReduce))
				if err == nil || !strings.Contains(err.Error(), `job "misrouted"`) || !strings.Contains(err.Error(), want) {
					t.Fatalf("parallelism %d, %d reducers: err = %v, want one naming the job and %s", parallelism, numReduce, err, want)
				}
			}
		}
	}
}

// TestStagingBuffersComeBackClean: whatever happens to an attempt — it
// completes, it is failed by the injector after completing, it aborts
// half-way through its emissions — its worker's next task starts on a frame
// reset where a task writes — no sink state, its clock at zero, no span,
// sketch or counter in use — with its own sinks and pipeline, and a staging
// buffer with no record and no count in it. Every completed task's output
// holds exactly its own records. Run under -race -count=10.
func TestStagingBuffersComeBackClean(t *testing.T) {
	c := shuffleCase{numReduce: 7, perSplit: 40, combine: "off"}
	boom := errors.New("boom")
	for _, parallelism := range []int{1, 4} {
		fs, e := parEnv(t, parallelism)
		job := c.job(shuffleInput(t, fs, "in"))
		job.FaultInjector = func(kind TaskKind, task, attempt int) bool { return task%2 == 1 && attempt == 1 }
		job.Map = func(ctx *TaskContext, in Pair, emit Emit) {
			n := 0
			fanOut(c.perSplit)(ctx, in, func(p Pair) {
				if n++; in.Key == "2" && n > c.perSplit/2 {
					ctx.Abort(boom)
				}
				emit(p)
			})
		}
		if err := job.validate(e); err != nil {
			t.Fatal(err)
		}
		frames := e.newPhaseFrames(1)
		outputs := make([]*MapOutput, shuffleSplits)
		for round := 0; round < 2; round++ { // the second round reuses the first's frames
			for s, chunk := range job.Input.Chunks {
				out, _, err := e.attempt(job, &phaseSpec{
					label: func(i int) string { return fmt.Sprint("map task ", i) },
					run: func(worker, i int, node sim.NodeID, at float64) (attemptResult, TaskStats) {
						out, st := e.runMapTask(job, i, i, chunk, node, at, frames, worker)
						return attemptResult{out: out}, st
					},
				}, 0, s, 0, 0)
				if (s == 2) != errors.Is(err, boom) {
					t.Fatalf("split %d: err = %v", s, err)
				}
				outputs[s] = out.out
				// The attempts are all worker 0's, so they share its frame, which
				// the aborted attempt loses; nobody ran as the coordinator.
				if (frames.slot[0] == nil) != (s == 2) || frames.slot[frames.coordinator()] != nil {
					t.Fatalf("after split %d: worker 0's slot holds a frame: %v, the coordinator's: %v", s, frames.slot[0] != nil, frames.slot[1] != nil)
				}
				if f := frames.slot[0]; f != nil {
					buf := f.stage
					if f.mapSink == nil || f.shardSink == nil || f.process == nil || f.pipe.ctx != &f.ctx {
						t.Fatalf("a free frame lost its sinks or its pipeline: %+v", *f)
					}
					ctx := &f.ctx
					if f.out != nil || f.splitRecords != 0 || f.shard != nil || f.outBytes != 0 || ctx.extra != 0 || ctx.spans != nil || ctx.inUse != 0 || f.ctrs.last != 0 {
						t.Fatalf("a free frame keeps what its task wrote: %+v", *f)
					}
					if len(buf.recs) != 0 || len(buf.parts) != 0 || len(buf.touched) != 0 {
						t.Fatalf("a free buffer holds %d records, %d partitions, %d touched", len(buf.recs), len(buf.parts), len(buf.touched))
					}
					for _, r := range buf.recs[:cap(buf.recs)] {
						if r != (Pair{}) {
							t.Fatalf("a free buffer still pins %v", r)
						}
					}
					for part, n := range buf.counts {
						if n != 0 {
							t.Fatalf("a free buffer counts %d records for partition %d", n, part)
						}
					}
				}
			}
		}

		// The same through the engine, faults injected: the phase fails on
		// split 2's abort, and every other task's output is its own.
		mp, err := e.NewRun().RunMapPhase(job, nil)
		if !errors.Is(err, boom) {
			t.Fatalf("phase err = %v, want the abort", err)
		}
		for s, o := range mp.Outputs {
			if (s == 2) != (o == nil) {
				t.Fatalf("split %d: output %v", s, o)
			}
			if o == nil {
				continue
			}
			var got, want []Pair
			for _, b := range o.Buckets {
				got = append(got, b...)
			}
			for j := 0; j < c.perSplit; j++ {
				want = append(want, emission(s, j))
			}
			byValue := func(a, b Pair) int { return strings.Compare(a.Value, b.Value) }
			slices.SortFunc(got, byValue)
			slices.SortFunc(want, byValue)
			if !slices.Equal(got, want) {
				t.Fatalf("parallelism %d split %d holds %v, want %v", parallelism, s, got, want)
			}
			if !reflect.DeepEqual(o.Buckets, outputs[s].Buckets) {
				t.Fatalf("split %d: the phase's output differs from the lone attempt's", s)
			}
		}
	}
}

// TestClusterScaleDefaultReducers runs the shape that used to be out of
// reach: 20,000 one-record splits on 10,000 nodes with NumReduce left
// unset, which DefaultNumReduce resolves to 20,000 reducers. With a dense
// bucket header per map task that job asked for 20,000 × 20,000 slice
// headers (9.6 GB); with the sparse shuffle it allocates what 40,000
// small tasks cost.
func TestClusterScaleDefaultReducers(t *testing.T) {
	const nodes, splits, budget = 10_000, 20_000, 128 << 20
	cfg := sim.DefaultConfig()
	cfg.Nodes = nodes
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 1 // one record per chunk = one map task per record
	records := make([]dfs.Record, splits)
	for i := range records {
		records[i] = dfs.Record{Key: fmt.Sprintf("k%07d", i), Value: "v"}
	}
	in, err := fs.Create("scale-in", records)
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{Name: "scale", Input: in, Reduce: IdentityReduce}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := New(cluster, fs).Run(job)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if job.NumReduce != 20_000 || len(res.ReduceStats) != 20_000 || len(res.MapStats) != splits {
		t.Fatalf("ran %d map and %d reduce tasks for NumReduce %d, want %d and 20,000", len(res.MapStats), len(res.ReduceStats), job.NumReduce, splits)
	}
	got := res.Output.All()
	slices.SortFunc(got, func(a, b dfs.Record) int { return strings.Compare(a.Key, b.Key) })
	if !slices.Equal(got, records) {
		t.Fatalf("output of %d records is not the input", len(got))
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d map tasks × %d reducers allocated %d MB", splits, job.NumReduce, allocated>>20)
	if allocated > budget {
		t.Errorf("the job allocated %d MB, budget %d MB", allocated>>20, budget>>20)
	}
}
