package mapreduce

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"efind/internal/dfs"
)

// sumCombine pre-aggregates counts (associative + commutative, valid as a
// combiner for the count reduce).
func sumCombine(_ *TaskContext, key string, values []string, emit Emit) {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(v)
		total += n
	}
	emit(Pair{Key: key, Value: strconv.Itoa(total)})
}

func wordCountJob(in *dfs.File, name string, combine bool) *Job {
	job := &Job{
		Name:  name,
		Input: in,
		Map: func(_ *TaskContext, p Pair, emit Emit) {
			for _, w := range strings.Fields(p.Value) {
				emit(Pair{Key: w, Value: "1"})
			}
		},
		NumReduce: 4,
		Reduce:    sumCombine, // counting reduce = same aggregation
	}
	if combine {
		job.Combine = sumCombine
	}
	return job
}

func TestCombinerPreservesResults(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 900)

	collect := func(combine bool) map[string]int {
		job := wordCountJob(in, fmt.Sprintf("wc-%v", combine), combine)
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, r := range res.Output.All() {
			n, err := strconv.Atoi(r.Value)
			if err != nil {
				t.Fatal(err)
			}
			out[r.Key] += n
		}
		return out
	}
	plain := collect(false)
	combined := collect(true)
	if len(plain) != len(combined) {
		t.Fatalf("key counts differ: %d vs %d", len(plain), len(combined))
	}
	for k, v := range plain {
		if combined[k] != v {
			t.Fatalf("count[%s] = %d with combiner, %d without", k, combined[k], v)
		}
	}
}

func TestCombinerReducesShuffleBytes(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 900)

	run := func(combine bool) (*Result, int64) {
		job := wordCountJob(in, fmt.Sprintf("wcb-%v", combine), combine)
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		var mapOutBytes int64
		for _, st := range res.MapStats {
			mapOutBytes += st.Counters.Get(slotOutputBytes)
		}
		return res, mapOutBytes
	}
	plainRes, plainBytes := run(false)
	combRes, combBytes := run(true)
	if combBytes >= plainBytes {
		t.Fatalf("combiner did not reduce map output bytes: %d vs %d", combBytes, plainBytes)
	}
	if combRes.Counters[CounterCombineInRecords] == 0 {
		t.Fatal("combine counters missing")
	}
	if combRes.Counters[CounterCombineOutRecords] >= combRes.Counters[CounterCombineInRecords] {
		t.Fatal("combiner did not collapse records")
	}
	// Smaller shuffle = faster job in the cost model.
	if combRes.VTime >= plainRes.VTime {
		t.Fatalf("combiner should cut virtual time: %g vs %g", combRes.VTime, plainRes.VTime)
	}
}

func TestCombinerIgnoredOnMapOnlyJobs(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 50)
	job := &Job{
		Name:    "maponly-combine",
		Input:   in,
		Combine: sumCombine, // no Reduce: combiner must be a no-op
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Records() != 50 {
		t.Fatalf("map-only job with dangling combiner lost records: %d", res.Output.Records())
	}
	if res.Counters[CounterCombineInRecords] != 0 {
		t.Fatal("combiner must not run without a reducer")
	}
}
