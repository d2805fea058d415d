package core

import (
	"reflect"
	"testing"

	"efind/internal/ixclient"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// parE2E builds the standard e2e environment with an explicit executor
// parallelism. Construction order matches newE2E exactly so replica
// placement sequences are identical across instances.
func parE2E(tb testing.TB, parallelism, records, distinctKeys int) *e2eEnv {
	tb.Helper()
	cfg := sim.DefaultConfig()
	cfg.Nodes = 6
	cfg.MapSlotsPerNode = 2
	cfg.ReduceSlotsPerNode = 2
	cfg.TaskStartup = 0.01
	cfg.Parallelism = parallelism
	return newE2EWith(tb, cfg, records, distinctKeys)
}

// TestMultiOperatorJobDeterministicUnderParallelism runs the same
// multi-operator index job (one head operator under LookupCache, one tail
// operator under Repartition) with the serial and the parallel executor.
// The virtual makespan, every merged counter — including cache probe and
// miss counts, which depend on per-node access order — and the sorted
// output must be identical.
func TestMultiOperatorJobDeterministicUnderParallelism(t *testing.T) {
	run := func(parallelism int) *JobResult {
		e := parE2E(t, parallelism, 800, 40)
		opA := e.lookupOp("det-a")
		opB := e.lookupOp("det-b")
		conf := e.conf("det-job", ModeCustom, opA, headPlace)
		conf.AddTailIndexOperator(opB)
		conf.ForceStrategy(opA.Name(), e.store.Name(), LookupCache)
		conf.ForceStrategy(opB.Name(), e.store.Name(), Repartition)
		res, err := e.rt.Submit(conf)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	serial := run(1)
	parallel := run(8)

	if serial.VTime != parallel.VTime {
		t.Fatalf("virtual makespan diverged: serial %g vs parallel %g", serial.VTime, parallel.VTime)
	}
	if serial.JobsRun != parallel.JobsRun {
		t.Fatalf("jobs run diverged: %d vs %d", serial.JobsRun, parallel.JobsRun)
	}
	if !reflect.DeepEqual(serial.Counters, parallel.Counters) {
		for k, v := range serial.Counters {
			if parallel.Counters[k] != v {
				t.Errorf("counter %q: serial %d vs parallel %d", k, v, parallel.Counters[k])
			}
		}
		for k, v := range parallel.Counters {
			if _, ok := serial.Counters[k]; !ok {
				t.Errorf("counter %q only in parallel run (= %d)", k, v)
			}
		}
		t.Fatal("merged counters diverged")
	}
	sameOutput(t, "serial-vs-parallel", sortedOutput(serial.Output), sortedOutput(parallel.Output))
}

// TestDynamicJobDeterministicUnderParallelism covers the adaptive path:
// plan switching is driven by first-wave statistics, which must be
// executor-independent too.
func TestDynamicJobDeterministicUnderParallelism(t *testing.T) {
	run := func(parallelism int) *JobResult {
		e := parE2E(t, parallelism, 800, 25)
		op := e.lookupOp("dyn")
		conf := e.conf("dyn-job", ModeDynamic, op, headPlace)
		res, err := e.rt.Submit(conf)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	if serial.VTime != parallel.VTime {
		t.Fatalf("dynamic makespan diverged: %g vs %g", serial.VTime, parallel.VTime)
	}
	if serial.Replanned != parallel.Replanned || serial.ReplanPhase != parallel.ReplanPhase {
		t.Fatalf("replan decision diverged: serial (%v, %q) vs parallel (%v, %q)",
			serial.Replanned, serial.ReplanPhase, parallel.Replanned, parallel.ReplanPhase)
	}
	if !reflect.DeepEqual(serial.Counters, parallel.Counters) {
		t.Fatal("dynamic counters diverged")
	}
	sameOutput(t, "dynamic", sortedOutput(serial.Output), sortedOutput(parallel.Output))
}

// TestRetriesDoNotSkewCacheStats: a retried map attempt runs against the
// same node-shared lookup caches as its failed predecessor, so without
// per-attempt snapshots the retry would find the cache pre-warmed and
// under-count misses, skewing the measured miss ratio R that feeds the
// cost model. A faulty run must report exactly the clean run's cache
// probe and miss counters.
func TestRetriesDoNotSkewCacheStats(t *testing.T) {
	run := func(inject bool) *JobResult {
		e := newE2E(t, 800, 25)
		op := e.lookupOp("rollback")
		conf := e.conf("rollback-job", ModeCache, op, headPlace)
		if inject {
			conf.FaultInjector = func(kind mapreduce.TaskKind, task, attempt int) bool {
				return kind == mapreduce.MapTask && task%3 == 0 && attempt == 1
			}
		}
		res, err := e.rt.Submit(conf)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	clean := run(false)
	faulty := run(true)

	if faulty.Counters[mapreduce.CounterTaskRetries] == 0 {
		t.Fatal("fault injector did not fire")
	}
	probes, misses := ixclient.CtrProbes("rollback", "kv"), ixclient.CtrMisses("rollback", "kv")
	if clean.Counters[probes] == 0 {
		t.Fatal("cache strategy recorded no probes; test is vacuous")
	}
	if got, want := faulty.Counters[probes], clean.Counters[probes]; got != want {
		t.Fatalf("retries skewed cache probes: faulty %d vs clean %d", got, want)
	}
	if got, want := faulty.Counters[misses], clean.Counters[misses]; got != want {
		t.Fatalf("retries skewed cache misses: faulty %d vs clean %d", got, want)
	}
	sameOutput(t, "rollback", sortedOutput(clean.Output), sortedOutput(faulty.Output))
}
