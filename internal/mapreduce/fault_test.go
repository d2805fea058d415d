package mapreduce

import (
	"sort"
	"strings"
	"testing"
)

// TestFaultInjectionMapRetries: a failed map attempt re-executes, costs
// extra virtual time, and the output is unchanged.
func TestFaultInjectionMapRetries(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 300)
	job := func(name string) *Job {
		return &Job{Name: name, Input: in, NumReduce: 4, Reduce: IdentityReduce}
	}

	clean, err := e.Run(job("clean"))
	if err != nil {
		t.Fatal(err)
	}

	// Fail the first attempt of every third map task.
	fj := job("faulty")
	fj.FaultInjector = func(kind TaskKind, task, attempt int) bool {
		return kind == MapTask && task%3 == 0 && attempt == 1
	}
	faulty, err := e.Run(fj)
	if err != nil {
		t.Fatal(err)
	}

	a, b := collect(clean), collect(faulty)
	if len(a) != len(b) {
		t.Fatalf("fault run changed output size: %d vs %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault run changed output at %d: %q vs %q", i, b[i], a[i])
		}
	}
	if faulty.Counters[CounterTaskRetries] == 0 {
		t.Fatal("retries not counted")
	}
	// Re-execution burns task time (the cluster absorbs it in slack, so
	// compare summed task durations rather than the makespan).
	sum := func(stats []TaskStats) float64 {
		total := 0.0
		for _, st := range stats {
			total += st.Duration
		}
		return total
	}
	if sum(faulty.MapStats) <= sum(clean.MapStats) {
		t.Fatalf("re-execution should burn task time: %g vs %g", sum(faulty.MapStats), sum(clean.MapStats))
	}
}

// TestFaultInjectionReduceRetries exercises the reduce-side retry path.
func TestFaultInjectionReduceRetries(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 200)
	res, err := e.Run(&Job{
		Name: "rfault", Input: in, NumReduce: 3, Reduce: IdentityReduce,
		FaultInjector: func(kind TaskKind, task, attempt int) bool {
			return kind == ReduceTask && attempt == 1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Records() != 200 {
		t.Fatalf("records = %d", res.Output.Records())
	}
	var retries int64
	for _, st := range res.ReduceStats {
		retries += st.Counters.Get(slotRetries)
	}
	if retries != 3 {
		t.Fatalf("reduce retries = %d, want one per reducer", retries)
	}
}

// TestFaultInjectionLastAttemptSucceeds: a task that fails its first
// maxAttempts-1 attempts still completes on the final allowed attempt,
// with every retry counted.
func TestFaultInjectionLastAttemptSucceeds(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 50)
	res, err := e.Run(&Job{
		Name: "flaky", Input: in, NumReduce: 2, Reduce: IdentityReduce,
		FaultInjector: func(_ TaskKind, _, attempt int) bool { return attempt < maxAttempts },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Records() != 50 {
		t.Fatalf("records = %d", res.Output.Records())
	}
	for _, st := range res.MapStats {
		if st.Counters.Get(slotRetries) != maxAttempts-1 {
			t.Fatalf("map retries = %d, want %d", st.Counters.Get(slotRetries), maxAttempts-1)
		}
	}
}

// TestFaultInjectionPermanentMapFailure: a task whose every attempt fails
// must fail the job after maxAttempts, like Hadoop once a task exhausts
// mapred.map.max.attempts — it must NOT silently succeed on the capped
// attempt.
func TestFaultInjectionPermanentMapFailure(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 50)
	_, err := e.Run(&Job{
		Name: "doomed", Input: in, NumReduce: 2, Reduce: IdentityReduce,
		FaultInjector: func(kind TaskKind, task, _ int) bool { return kind == MapTask && task == 0 },
	})
	if err == nil {
		t.Fatal("permanently failing map task must fail the job")
	}
	if !strings.Contains(err.Error(), "failed 4 attempts") {
		t.Fatalf("error should report exhausted attempts, got %v", err)
	}
}

// TestFaultInjectionPermanentReduceFailure covers the reduce-side job
// failure path.
func TestFaultInjectionPermanentReduceFailure(t *testing.T) {
	_, fs, e := testEnv(t)
	in := makeInput(t, fs, "in", 50)
	_, err := e.Run(&Job{
		Name: "rdoomed", Input: in, NumReduce: 3, Reduce: IdentityReduce,
		FaultInjector: func(kind TaskKind, task, _ int) bool { return kind == ReduceTask && task == 1 },
	})
	if err == nil {
		t.Fatal("permanently failing reduce task must fail the job")
	}
	if !strings.Contains(err.Error(), "reduce task 1 failed 4 attempts") {
		t.Fatalf("error should name the reduce task, got %v", err)
	}
}

func collect(r *Result) []string {
	var out []string
	for _, rec := range r.Output.All() {
		out = append(out, rec.Key+"\x00"+rec.Value)
	}
	sort.Strings(out)
	return out
}
