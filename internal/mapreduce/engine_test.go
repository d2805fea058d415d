package mapreduce

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"efind/internal/dfs"
	"efind/internal/sim"
)

// testEnv builds a small deterministic cluster + fs + engine.
func testEnv(t *testing.T) (*sim.Cluster, *dfs.FS, *Engine) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Nodes = 4
	cfg.MapSlotsPerNode = 2
	cfg.ReduceSlotsPerNode = 1
	cfg.TaskStartup = 0.01
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 1 << 10
	return cluster, fs, New(cluster, fs)
}

func makeInput(t *testing.T, fs *dfs.FS, name string, n int) *dfs.File {
	t.Helper()
	recs := make([]dfs.Record, n)
	for i := range recs {
		recs[i] = dfs.Record{Key: fmt.Sprintf("k%04d", i), Value: fmt.Sprintf("word%d payload-%04d", i%7, i)}
	}
	f, err := fs.Create(name, recs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWordCount(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 700)

	job := &Job{
		Name:  "wordcount",
		Input: in,
		Map: func(_ *TaskContext, p Pair, emit Emit) {
			for _, w := range strings.Fields(p.Value) {
				emit(Pair{Key: w, Value: "1"})
			}
		},
		NumReduce: 4,
		Reduce: func(_ *TaskContext, key string, values []string, emit Emit) {
			emit(Pair{Key: key, Value: strconv.Itoa(len(values))})
		},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range res.Output.All() {
		n, err := strconv.Atoi(r.Value)
		if err != nil {
			t.Fatal(err)
		}
		counts[r.Key] += n
	}
	// 700 records, word index i%7: each of word0..word6 appears 100 times.
	for i := 0; i < 7; i++ {
		w := fmt.Sprintf("word%d", i)
		if counts[w] != 100 {
			t.Fatalf("count[%s] = %d, want 100", w, counts[w])
		}
	}
	// Every payload token is unique.
	if counts["payload-0000"] != 1 {
		t.Fatalf("unique token count = %d, want 1", counts["payload-0000"])
	}
	if res.VTime <= 0 {
		t.Fatal("job should consume virtual time")
	}
}

func TestMapOnlyJob(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 100)
	job := &Job{
		Name:  "maponly",
		Input: in,
		Map: func(_ *TaskContext, p Pair, emit Emit) {
			emit(Pair{Key: p.Key, Value: strings.ToUpper(p.Value)})
		},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Records() != 100 {
		t.Fatalf("map-only output has %d records, want 100", res.Output.Records())
	}
	for _, r := range res.Output.All() {
		if r.Value != strings.ToUpper(r.Value) {
			t.Fatalf("map not applied to %q", r.Value)
		}
	}
}

func TestIdentityDefaults(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 50)
	res, err := e.Run(&Job{Name: "id", Input: in})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Records() != 50 {
		t.Fatalf("identity job lost records: %d", res.Output.Records())
	}
}

func TestReduceGroupsAndSorts(t *testing.T) {
	_, fs, e := testEnv(t)
	recs := []dfs.Record{
		{Key: "x", Value: "b"}, {Key: "y", Value: "1"},
		{Key: "x", Value: "a"}, {Key: "y", Value: "2"},
		{Key: "z", Value: "only"},
	}
	f, err := fs.Create("grp", recs)
	if err != nil {
		t.Fatal(err)
	}
	var groups []string
	job := &Job{
		Name:      "group",
		Input:     f,
		NumReduce: 1,
		Reduce: func(_ *TaskContext, key string, values []string, emit Emit) {
			groups = append(groups, fmt.Sprintf("%s=%s", key, strings.Join(values, ",")))
			emit(Pair{Key: key, Value: strings.Join(values, ",")})
		},
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	want := []string{"x=b,a", "y=1,2", "z=only"}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v, want %v", groups, want)
	}
	for i := range want {
		if groups[i] != want[i] {
			t.Fatalf("groups[%d] = %q, want %q (values must keep map order, keys sorted)", i, groups[i], want[i])
		}
	}
}

func TestCustomPartitioner(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 120)
	job := &Job{
		Name:      "part",
		Input:     in,
		NumReduce: 3,
		Partition: func(key string, n int) int {
			// route by last digit mod n
			return int(key[len(key)-1]-'0') % n
		},
		Reduce: IdentityReduce,
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Records() != 120 {
		t.Fatalf("records = %d", res.Output.Records())
	}
	// Chunks carry their producing shard; shard r must contain only keys
	// with lastDigit%3 == r.
	for _, chunk := range res.Output.Chunks {
		if chunk.Shard < 0 || chunk.Shard >= 3 {
			t.Fatalf("output chunk shard %d out of range", chunk.Shard)
		}
		recs, err := chunk.Records()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if int(rec.Key[len(rec.Key)-1]-'0')%3 != chunk.Shard {
				t.Fatalf("key %q landed in shard %d", rec.Key, chunk.Shard)
			}
		}
	}
}

func TestChainedStagesOrderAndClose(t *testing.T) {
	_, fs, e := testEnv(t)
	recs := []dfs.Record{{Key: "a", Value: "1"}}
	f, err := fs.Create("chain", recs)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(tag string) StageFactory {
		return func() Stage {
			return &FuncStage{
				OnProcess: func(_ *TaskContext, p Pair, emit Emit) {
					emit(Pair{Key: p.Key, Value: p.Value + tag})
				},
				OnClose: func(_ *TaskContext, emit Emit) {
					emit(Pair{Key: "close", Value: tag})
				},
			}
		}
	}
	job := &Job{
		Name:            "chain",
		Input:           f,
		MapStagesBefore: []StageFactory{mk(">pre1"), mk(">pre2")},
		Map: func(_ *TaskContext, p Pair, emit Emit) {
			emit(Pair{Key: p.Key, Value: p.Value + ">map"})
		},
		NumReduce:         1,
		Reduce:            IdentityReduce,
		ReduceStagesAfter: []StageFactory{mk(">post")},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string][]string{}
	for _, r := range res.Output.All() {
		byKey[r.Key] = append(byKey[r.Key], r.Value)
	}
	if got := byKey["a"]; len(got) != 1 || got[0] != "1>pre1>pre2>map>post" {
		t.Fatalf("chained value = %v, want 1>pre1>pre2>map>post", got)
	}
	// Close of pre1 flows through pre2, map, the shuffle and post; close of
	// post emits raw.
	found := map[string]bool{}
	for _, v := range byKey["close"] {
		found[v] = true
	}
	if !found[">pre1>pre2>map>post"] {
		t.Fatalf("pre1 close output missing, got %v", byKey["close"])
	}
	if !found[">post"] {
		t.Fatalf("post close output missing, got %v", byKey["close"])
	}
}

func TestCountersAggregated(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 200)
	job := &Job{
		Name:  "count",
		Input: in,
		Map: func(ctx *TaskContext, p Pair, emit Emit) {
			ctx.Inc("custom.seen", 1)
			emit(p)
		},
		NumReduce: 2,
		Reduce:    IdentityReduce,
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters["custom.seen"] != 200 {
		t.Fatalf("custom counter = %d, want 200", res.Counters["custom.seen"])
	}
	if res.Counters[CounterInputRecords] < 200 {
		t.Fatalf("input records counter = %d", res.Counters[CounterInputRecords])
	}
	// Per-task stats are retained for variance computation.
	if len(res.MapStats) != len(in.Chunks) {
		t.Fatalf("map stats = %d, want one per split (%d)", len(res.MapStats), len(in.Chunks))
	}
	var sum int64
	for _, st := range res.MapStats {
		sum += st.Counters.Get(e.CounterTable().Slot("custom.seen"))
	}
	if sum != 200 {
		t.Fatalf("per-task counters sum to %d, want 200", sum)
	}
}

func TestRunMapPhaseSubsetAndReuse(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 400)
	if len(in.Chunks) < 3 {
		t.Fatalf("need >=3 chunks for this test, got %d", len(in.Chunks))
	}
	job := &Job{
		Name:      "partial",
		Input:     in,
		NumReduce: 2,
		Reduce:    IdentityReduce,
	}
	r := e.NewRun()
	first, err := r.RunMapPhase(job, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	rest := make([]int, 0, len(in.Chunks)-1)
	for i := 1; i < len(in.Chunks); i++ {
		rest = append(rest, i)
	}
	second, err := r.RunMapPhase(job, rest)
	if err != nil {
		t.Fatal(err)
	}
	merged := &MapPhaseResult{Outputs: append(first.Outputs, second.Outputs...), VTime: first.VTime + second.VTime}
	res, err := r.RunReducePhase(job, merged)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Records() != 400 {
		t.Fatalf("merged phases lost records: %d", res.Output.Records())
	}
	if res.VTime < first.VTime+second.VTime {
		t.Fatalf("vtime %g should include both map phases (%g + %g)", res.VTime, first.VTime, second.VTime)
	}
}

func TestRunMapPhaseBadSplit(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 10)
	if _, err := e.NewRun().RunMapPhase(&Job{Name: "bad", Input: in}, []int{99}); err == nil {
		t.Fatal("expected out-of-range split error")
	}
}

func TestRunReduceSubsetValidation(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 60)
	job := &Job{Name: "sub", Input: in, NumReduce: 3, Reduce: IdentityReduce}
	r := e.NewRun()
	mp, err := r.RunMapPhase(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunReduceSubset(job, mp.Outputs, []int{5}); err == nil {
		t.Fatal("out-of-range reducer should fail")
	}
	if _, err := r.RunReduceSubset(job, mp.Outputs, []int{1, 1}); err == nil || !strings.Contains(err.Error(), "reducer 1 requested more than once") {
		t.Fatalf("a reducer requested twice should fail by name, got %v", err)
	}
	if _, err := r.RunReduceSubset(&Job{Name: "nored", Input: in}, mp.Outputs, nil); err == nil {
		t.Fatal("reduce subset without reduce function should fail")
	}
	sub, err := r.RunReduceSubset(job, mp.Outputs, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Shards) != 2 || len(sub.Reducers) != 2 {
		t.Fatalf("subset shape wrong: %d shards", len(sub.Shards))
	}
	// Requested order is preserved: Shards[0] belongs to reducer 2.
	if sub.Reducers[0] != 2 || sub.Reducers[1] != 0 {
		t.Fatalf("reducer order = %v", sub.Reducers)
	}
}

// TestRunMapPhaseSplitValidation: a split out of range or listed twice
// fails the phase by name; mapped twice, its records would be output twice
// with a nil error.
func TestRunMapPhaseSplitValidation(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 200)
	if len(in.Chunks) < 3 {
		t.Fatalf("input has %d chunks, the test wants three", len(in.Chunks))
	}
	for _, tc := range []struct {
		arg  []int
		want string
	}{
		{[]int{len(in.Chunks)}, "out of range"},
		{[]int{-1}, "out of range"},
		{[]int{1, 1}, "split 1 listed more than once"},
		{[]int{2, 0, 2}, "split 2 listed more than once"},
		{[]int{1, 0}, ""},
	} {
		mp, err := e.NewRun().RunMapPhase(&Job{Name: "splits", Input: in}, tc.arg)
		switch {
		case tc.want == "" && (err != nil || len(mp.Outputs) != len(tc.arg)):
			t.Errorf("splits %v: %d outputs, %v", tc.arg, len(mp.Outputs), err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), `job "splits"`) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("splits %v: err = %v, want one naming the job and %q", tc.arg, err, tc.want)
		}
	}
}

func TestFinishMapOnlyNamedOutput(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 40)
	job := &Job{Name: "named", Input: in, OutputName: "my-output"}
	mp, err := e.NewRun().RunMapPhase(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.FinishMapOnly(job, mp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Name != "my-output" {
		t.Fatalf("output name = %q", res.Output.Name)
	}
	if _, err := fs.Open("my-output"); err != nil {
		t.Fatal("named output not in the file system")
	}
}

func TestJobWithoutInputFails(t *testing.T) {
	_, _, e := testEnv(t)
	if _, err := e.Run(&Job{Name: "noinput"}); err == nil {
		t.Fatal("expected error for job without input")
	}
}

func TestReducePhaseOnMapOnlyJobFails(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 10)
	job := &Job{Name: "maponly", Input: in}
	r := e.NewRun()
	mp, err := r.RunMapPhase(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunReducePhase(job, mp); err == nil {
		t.Fatal("expected error reducing a map-only job")
	}
}

func TestMapPlacementHintHonored(t *testing.T) {
	cluster, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 300)
	target := sim.NodeID(cluster.Nodes() - 1)
	var nodes []sim.NodeID
	job := &Job{
		Name:  "placed",
		Input: in,
		Map: func(ctx *TaskContext, p Pair, emit Emit) {
			emit(p)
		},
		MapPlacement: func(int, *dfs.Chunk) []sim.NodeID { return []sim.NodeID{target} },
	}
	mp, err := e.NewRun().RunMapPhase(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range mp.Phase.Assignments {
		nodes = append(nodes, a.Node)
	}
	// With few tasks and 2 slots on the target, at least the first tasks
	// must land on the hinted node; all preferred assignments count.
	if mp.Phase.LocalTasks == 0 {
		t.Fatalf("no task honored the placement hint; nodes=%v", nodes)
	}
}

func TestVTimeGrowsWithRemoteLookupCharges(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 100)
	mk := func(extra float64) *Job {
		return &Job{
			Name:  fmt.Sprintf("charge-%g", extra),
			Input: in,
			Map: func(ctx *TaskContext, p Pair, emit Emit) {
				ctx.Charge(extra)
				emit(p)
			},
		}
	}
	cheap, err := e.Run(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	costly, err := e.Run(mk(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if costly.VTime <= cheap.VTime {
		t.Fatalf("charged job should be slower: %g vs %g", costly.VTime, cheap.VTime)
	}
}

func TestHashPartitionInRange(t *testing.T) {
	f := func(key string, n uint8) bool {
		nr := int(n%32) + 1
		p := HashPartition(key, nr)
		return p >= 0 && p < nr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if HashPartition("anything", 1) != 0 {
		t.Fatal("single reducer must always get partition 0")
	}
	if HashPartition("anything", 0) != 0 {
		t.Fatal("degenerate reducer count must clamp to 0")
	}
}

// Property: identity job (map identity, identity reduce, any reducer
// count) preserves the multiset of records.
func TestIdentityJobPreservesRecords(t *testing.T) {
	f := func(vals []string, reducers uint8) bool {
		if len(vals) == 0 || len(vals) > 200 {
			return true
		}
		cfg := sim.DefaultConfig()
		cfg.Nodes = 3
		cluster := sim.NewCluster(cfg)
		fs := dfs.New(cluster)
		fs.ChunkTarget = 256
		e := New(cluster, fs)
		recs := make([]dfs.Record, len(vals))
		in := make([]string, len(vals))
		for i, v := range vals {
			if len(v) > 50 {
				v = v[:50]
			}
			recs[i] = dfs.Record{Key: fmt.Sprintf("k%03d", i%10), Value: v}
			in[i] = recs[i].Key + "\x00" + v
		}
		file, err := fs.Create("f", recs)
		if err != nil {
			return false
		}
		res, err := e.Run(&Job{
			Name:      "id",
			Input:     file,
			NumReduce: int(reducers%5) + 1,
			Reduce:    IdentityReduce,
		})
		if err != nil {
			return false
		}
		out := make([]string, 0, len(vals))
		for _, r := range res.Output.All() {
			out = append(out, r.Key+"\x00"+r.Value)
		}
		sort.Strings(in)
		sort.Strings(out)
		if len(in) != len(out) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
