package mapreduce

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"efind/internal/dfs"
	"efind/internal/sim"
)

// BenchmarkWordCountJob measures a full wordcount job (map, shuffle, sort,
// reduce, output) on the simulated cluster.
func BenchmarkWordCountJob(b *testing.B) {
	cfg := sim.DefaultConfig()
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 8 << 10
	e := New(cluster, fs)

	recs := make([]dfs.Record, 5000)
	for i := range recs {
		recs[i] = dfs.Record{Key: fmt.Sprintf("k%05d", i), Value: fmt.Sprintf("alpha beta gamma-%d delta", i%97)}
	}
	in, err := fs.Create("bench-in", recs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := &Job{
			Name:  fmt.Sprintf("wc-%d", i),
			Input: in,
			Map: func(_ *TaskContext, p Pair, emit Emit) {
				for _, w := range strings.Fields(p.Value) {
					emit(Pair{Key: w, Value: "1"})
				}
			},
			NumReduce: 16,
			Reduce: func(_ *TaskContext, key string, values []string, emit Emit) {
				emit(Pair{Key: key, Value: strconv.Itoa(len(values))})
			},
		}
		res, err := e.Run(job)
		if err != nil {
			b.Fatal(err)
		}
		if err := fs.Remove(res.Output.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShufflePartitioning isolates the hash partitioner.
func BenchmarkShufflePartitioning(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i*2654435761)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashPartition(keys[i%len(keys)], 48)
	}
}

// BenchmarkShuffle runs an identity map+reduce job at the wall-clock
// benchmark's two shuffle shapes: sched_scale's (one-record splits routed
// 256 ways, where the per-task and per-bucket overheads are all there is)
// and the job workloads' (≈ 125-record splits routed 48 ways). One op is
// one job; allocs/op ÷ the shape's record count is allocations per record.
func BenchmarkShuffle(b *testing.B) {
	for _, shape := range []struct {
		name                        string
		splits, perSplit, numReduce int
	}{
		{"1rec×256", 2000, 1, 256},
		{"125rec×48", 240, 125, 48},
	} {
		b.Run(shape.name, func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.Nodes = 100
			cluster := sim.NewCluster(cfg)
			fs := dfs.New(cluster)
			shards := make([][]dfs.Record, shape.splits)
			homes := make([]sim.NodeID, shape.splits)
			for s := range shards {
				homes[s] = sim.NodeID(s % cfg.Nodes)
				for j := 0; j < shape.perSplit; j++ {
					shards[s] = append(shards[s], dfs.Record{Key: fmt.Sprintf("k%05d-%03d", s, j), Value: "v"})
				}
			}
			in, err := fs.CreateSharded("shuffle-in", shards, homes)
			if err != nil || len(in.Chunks) != shape.splits {
				b.Fatalf("input: %d splits, %v", len(in.Chunks), err)
			}
			e := New(cluster, fs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.Run(&Job{Name: "shuffle", Input: in, Reduce: IdentityReduce, NumReduce: shape.numReduce})
				if err != nil || res.Output.Records() != shape.splits*shape.perSplit {
					b.Fatalf("job: %v", err)
				}
				if err := fs.Remove(res.Output.Name); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.splits*shape.perSplit), "ns/record")
		})
	}
}

// BenchmarkReduceShuffle runs one identity reduce task — shuffle in, sort,
// group, reduce — over the two inputs the wall-clock benchmark's reducers
// see: a job workload's (240 map outputs of two or three records, `s%08d`
// keys that each occur twice) and sched_scale's NumReduce = 256 leg (78
// one-record outputs, keys distinct). A third shape has the first's runs
// with TPC-H Q3's long `orderkey|date|prio` keys: eight records, four keys,
// behind each eight-byte window, so the sort's tie pass is measured. One op
// is one task.
func BenchmarkReduceShuffle(b *testing.B) {
	short := func(k, perKey int) string { return fmt.Sprintf("s%08d", 48*(k/perKey)+7) }
	for _, shape := range []struct {
		name                  string
		runs, records, perKey int
		key                   func(k, perKey int) string
	}{
		{"240runs×2.6rec", 240, 624, 2, short},
		{"78runs×1rec", 78, 78, 1, short},
		{"240runs×2.6rec×longkey", 240, 624, 2, func(k, perKey int) string {
			return fmt.Sprintf("o%07d|1995-03-%02d|1-URGENT", 48*(k/8)+7, 1+k%8/perKey)
		}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			cluster := sim.NewCluster(sim.DefaultConfig())
			e := New(cluster, dfs.New(cluster))
			runs := make([]shuffleRun, shape.runs)
			for i, k := range rand.New(rand.NewSource(1)).Perm(shape.records) {
				run := &runs[i%shape.runs]
				run.node = sim.NodeID(i % shape.runs % cluster.Config().Nodes)
				run.pairs = append(run.pairs, Pair{Key: shape.key(k, shape.perKey), Value: "v"})
			}
			job := &Job{Name: "reduce-shuffle", Reduce: IdentityReduce, NumReduce: 1}
			frames := e.newPhaseFrames(1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if shard, _ := e.runReduceTask(job, 0, 0, runs, 0, frames, 0); len(shard) != shape.records {
					b.Fatalf("reduce task emitted %d records, want %d", len(shard), shape.records)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.records), "ns/record")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*shape.records), "B/record")
		})
	}
}
