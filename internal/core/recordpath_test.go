package core

import (
	"fmt"
	"strings"
	"testing"

	"efind/internal/mapreduce"
)

// recordPathOp is a join operator whose own functions do as little as the
// interface allows — the key is a suffix of the value, the output one
// concatenation — so what a profile of the benchmark shows is the record
// path, not the user code.
func recordPathOp(e *e2eEnv, name string) *Operator {
	op := NewOperator(name,
		func(in Pair) PreResult {
			return PreResult{Pair: in, Keys: [][]string{{in.Value[strings.LastIndexByte(in.Value, ' ')+1:]}}}
		},
		func(pair Pair, results [][]KeyResult, emit Emit) {
			joined := ""
			if len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				joined = results[0][0].Values[0]
			}
			emit(Pair{Key: pair.Key, Value: pair.Value + "\x00" + joined})
		})
	return op.AddIndex(e.store)
}

// BenchmarkRecordPath runs one 3,000-record index join per iteration under
// each fixed strategy, with allocation counts, so a profile of the record
// path (engine → stages → index client → cache) is one command away:
//
//	go test -run='^$' -bench=RecordPath -benchmem -benchtime=20x \
//	    -memprofile mem.prof -memprofilerate=4096 ./internal/core
func BenchmarkRecordPath(b *testing.B) {
	const records = 3000
	for _, strategy := range []string{"base", "cache", "repart", "idxloc"} {
		b.Run(strategy, func(b *testing.B) {
			e := newE2E(b, records, records/2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := recordPathOp(e, "rp")
				conf := e.conf(fmt.Sprintf("rp-%s-%d", strategy, i), ModeCustom, op, headPlace)
				switch strategy {
				case "base":
					conf.Mode = ModeBaseline
				case "cache":
					conf.Mode = ModeCache
				case "repart":
					conf.ForceStrategy(op.Name(), e.store.Name(), Repartition)
				case "idxloc":
					conf.ForceStrategy(op.Name(), e.store.Name(), IndexLocality)
				}
				res, err := e.rt.Submit(conf)
				if err != nil {
					b.Fatal(err)
				}
				if got := res.Output.Records(); got != records {
					b.Fatalf("output has %d records, want %d", got, records)
				}
				if err := e.fs.Remove(res.Output.Name); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(records), "records/op")
		})
	}
}

// TestCarrierCodecAllocs pins the codec's allocation budget: the encoding
// is allocated once at its exact length, and decoding takes a constant
// number of allocations however many lists the carrier has.
func TestCarrierCodecAllocs(t *testing.T) {
	c := &carrier{
		Pair: Pair{Key: "record-0001234", Value: strings.Repeat("payload ", 2000)}, // five-digit length
		Keys: [][]string{{"ik-000042"}, {"ik-000043", "ik-000044"}},
		Results: [][]KeyResult{{{
			Key:    "ik-000042",
			Values: []string{"first lookup result value", "second lookup result value"},
		}}, nil},
	}
	enc := encodeCarrier(c)
	if got := encodedLen(c); got != len(enc) {
		t.Fatalf("encodedLen = %d, encoding has %d bytes", got, len(enc))
	}
	if n := testing.AllocsPerRun(200, func() { encodeCarrier(c) }); n != 1 {
		t.Errorf("encodeCarrier allocates %.1f times, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := decodeCarrier(enc); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("decodeCarrier allocates %.1f times for two key lists and one result, want <= 3", n)
	}

	// Many lists: still a constant number of allocations.
	wide := &carrier{Pair: Pair{Key: "k", Value: "v"}}
	for j := 0; j < 12; j++ {
		wide.Keys = append(wide.Keys, []string{"a", "b", "c"})
		wide.Results = append(wide.Results, []KeyResult{{Key: "a", Values: []string{"x", "y"}}, {Key: "b"}})
	}
	wenc := encodeCarrier(wide)
	if n := testing.AllocsPerRun(200, func() { decodeCarrier(wenc) }); n > 5 {
		t.Errorf("decodeCarrier allocates %.1f times for 12 key and 12 result lists, want <= 5", n)
	}
}

// TestInlineStageAllocs pins the per-record budget of the fully inline
// stage: with no-op user functions and a warm cache, one record costs the
// carrier (with its result list and result in the same allocation) and
// little else — no counter name, no closure, no request.
func TestInlineStageAllocs(t *testing.T) {
	e := newE2E(t, 10, 5)
	keys := [][]string{{"ik0001"}}
	op := NewOperator("op",
		func(in Pair) PreResult { return PreResult{Pair: in, Keys: keys} },
		func(pair Pair, _ [][]KeyResult, emit Emit) { emit(pair) })
	op.AddIndex(e.store)
	plan := uniformPlan(op, HeadOp, LookupCache)
	x := newOpExec(op, plan, &IndexJobConf{})
	ctx := mapreduce.NewTaskContext(e.cluster, 0, 0, mapreduce.MapTask)
	stage := x.inlineStage()(0)
	stage.Open(ctx)
	sink := func(Pair) {}
	in := Pair{Key: "r1", Value: "v"}
	stage.Process(ctx, in, sink) // warms the cache, resolves the cells
	n := testing.AllocsPerRun(1000, func() { stage.Process(ctx, in, sink) })
	if n > 4 {
		t.Errorf("one record through inlineStage allocates %.1f times, want <= 4", n)
	}
	t.Logf("inlineStage: %.1f allocations per record", n)
	if got := ctx.Counter(ctrPostRecords("op")); got != 1002 {
		t.Errorf("post records = %d, want 1002", got)
	}
}
