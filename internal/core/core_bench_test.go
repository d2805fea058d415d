package core

import (
	"fmt"
	"testing"

	"efind/internal/dfs"
	"efind/internal/mapreduce"
)

// BenchmarkCarrierEncodeDecode is one carrier through the shuffle's codec
// as the stages run it: encoded into a window of a byte block, decoded
// into a task's scratch carrier.
func BenchmarkCarrierEncodeDecode(b *testing.B) {
	c := &carrier{
		Pair: Pair{Key: "record-0001234", Value: "a moderately sized payload value for the record"},
		Keys: [][]string{{"ik-000042"}},
		Results: [][]KeyResult{{{
			Key:    "ik-000042",
			Values: []string{"first lookup result value", "second lookup result value"},
		}}},
	}
	var blk byteBlock // a stage's: the encodings are windows of its slabs
	var scratch carrier
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := blk.encode("", "", c)
		if err := scratch.decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeFullEnumerate measures planning time for m=5 indices
// (the paper argues m! enumeration is feasible for m ≤ 5).
func BenchmarkOptimizeFullEnumerate(b *testing.B) {
	env := Env{BW: 125e6, F: 2.5e-8, Tcache: 1e-6, Nodes: 96, JobOverhead: 0.02, LaneFactor: 2}
	op := NewOperator("bench", nil, nil)
	st := &OperatorStats{
		N1: 1e5, Records: 12e5, S1: 120, Spre: 80, Sidx: 400, Spost: 150, Smap: 150,
		Index: map[string]IndexStats{},
	}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("ix%d", i)
		op.AddIndex(fakeAccessor{name: name})
		st.Index[name] = IndexStats{
			Nik: 1, Sik: 16, Siv: float64(50 * (i + 1)),
			Tj: 0.0002 * float64(i+1), Theta: float64(1 + i*i), R: 0.9,
		}
	}
	opts := PlannerOptions{FullEnumerateLimit: 5, KRepart: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimizeOperator(op, BodyOp, st, env, opts)
	}
}

// BenchmarkOptimizeKRepart measures the fallback planner at m=8.
func BenchmarkOptimizeKRepart(b *testing.B) {
	env := Env{BW: 125e6, F: 2.5e-8, Tcache: 1e-6, Nodes: 96, JobOverhead: 0.02, LaneFactor: 2}
	op := NewOperator("bench", nil, nil)
	st := &OperatorStats{
		N1: 1e5, Records: 12e5, S1: 120, Spre: 80, Sidx: 400, Spost: 150,
		Index: map[string]IndexStats{},
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("ix%d", i)
		op.AddIndex(fakeAccessor{name: name})
		st.Index[name] = IndexStats{Nik: 1, Sik: 16, Siv: 100, Tj: 0.0005, Theta: 4, R: 0.8}
	}
	opts := PlannerOptions{FullEnumerateLimit: 5, KRepart: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimizeOperator(op, BodyOp, st, env, opts)
	}
}

// BenchmarkCollectStats measures the statistics collector on the shape a
// catalog harvest folds: five head operators over the 240 map tasks of one
// baseline job, 78 counters a task. One op is one harvest of all five;
// "counters" drops the tasks' FM sketches first, leaving the counter walk.
func BenchmarkCollectStats(b *testing.B) {
	e := newE2E(b, 50, 50)
	e.fs.ChunkTarget = 64
	recs := make([]dfs.Record, 720)
	for i := range recs {
		recs[i] = dfs.Record{Key: fmt.Sprintf("r%05d", i), Value: fmt.Sprintf("payload ik%04d", i%50)}
	}
	input, err := e.fs.Create("stats-input", recs)
	if err != nil {
		b.Fatal(err)
	}
	conf := &IndexJobConf{
		Name: "stats", Input: input, Mode: ModeBaseline, NumReduce: 4,
		Mapper: func(ctx *mapreduce.TaskContext, in Pair, emit Emit) {
			ctx.Inc("stats.mapped", 1)
			emit(in)
		},
		Reducer: mapreduce.IdentityReduce,
	}
	for i := 0; i < 5; i++ {
		// Every lookup is a remote cache miss: 8 counters an index, 6 an
		// operator.
		conf.AddHeadIndexOperator(NewOperator(fmt.Sprintf("op%d", i), func(in Pair) PreResult {
			return PreResult{Pair: in, Keys: [][]string{{in.Key}}}
		}, nil).AddIndex(fakeAccessor{name: "ix"}))
	}
	res, err := e.rt.Submit(conf)
	if err != nil {
		b.Fatal(err)
	}
	tasks, counters := res.raw[0].MapStats, 0
	for _, t := range tasks {
		counters += len(t.Counters)
	}
	if len(tasks) != 240 || counters != 78*240 {
		b.Fatalf("%d map tasks of %d counters, want 240 of 78", len(tasks), counters/len(tasks))
	}
	for _, name := range []string{"sketches", "counters"} {
		if name == "counters" {
			for i := range tasks {
				tasks[i].Sketches = nil
			}
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.rt.harvestStats(conf, res)
			}
		})
	}
}

// BenchmarkEFindJobBaseline measures a small end-to-end EFind job.
func BenchmarkEFindJobBaseline(b *testing.B) {
	benchJob(b, ModeBaseline)
}

// BenchmarkEFindJobDynamic measures the same job with the adaptive
// runtime (statistics collection + possible replanning included).
func BenchmarkEFindJobDynamic(b *testing.B) {
	benchJob(b, ModeDynamic)
}

func benchJob(b *testing.B, mode Mode) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := newE2E(b, 2000, 50)
		op := e.lookupOp(fmt.Sprintf("bench-op-%d", i))
		conf := e.conf(fmt.Sprintf("bench-job-%d", i), mode, op, headPlace)
		b.StartTimer()
		if _, err := e.rt.Submit(conf); err != nil {
			b.Fatal(err)
		}
	}
}
