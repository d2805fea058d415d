package mapreduce

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"efind/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden trace files")

// traceRun executes the word-count job with tr attached under the given
// executor parallelism and returns the serialized trace and profile bytes.
func traceRun(t *testing.T, parallelism int, tr *obs.Trace) ([]byte, []byte) {
	t.Helper()
	fs, e := parEnv(t, parallelism)
	e.Trace = tr
	in := makeInput(t, fs, "in", 600)
	if _, err := e.Run(wordCountJob(in, "wc", false)); err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := e.Trace.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := e.Trace.Profile("test").Write(&prof); err != nil {
		t.Fatal(err)
	}
	return chrome.Bytes(), prof.Bytes()
}

// TestTraceBitIdenticalAcrossParallelism pins the core determinism
// promise of the observability layer: the exported trace and profile
// files are byte-for-byte identical whether task bodies ran serially or
// on 8 goroutines, because everything is denominated in virtual time and
// the parallel executor replays the serial schedule.
func TestTraceBitIdenticalAcrossParallelism(t *testing.T) {
	serialChrome, serialProf := traceRun(t, 1, obs.NewTrace())
	parChrome, parProf := traceRun(t, 8, obs.NewTrace())
	if !bytes.Equal(serialChrome, parChrome) {
		t.Fatalf("chrome trace diverged between serial and parallel runs (%d vs %d bytes)", len(serialChrome), len(parChrome))
	}
	if !bytes.Equal(serialProf, parProf) {
		t.Fatalf("profile diverged between serial and parallel runs:\nserial:\n%s\nparallel:\n%s", serialProf, parProf)
	}
}

// TestTraceRecordsPhases sanity-checks the shape of an engine-emitted
// trace: one merged stage per phase, task spans attributed to every
// scheduled task, and counters absorbed into the registry.
func TestTraceRecordsPhases(t *testing.T) {
	fs, e := parEnv(t, 1)
	e.Trace = obs.NewTrace()
	in := makeInput(t, fs, "in", 400)
	res, err := e.Run(wordCountJob(in, "wc", false))
	if err != nil {
		t.Fatal(err)
	}
	stages := e.Trace.Stages()
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want map+reduce: %+v", len(stages), stages)
	}
	var total float64
	for _, s := range stages {
		if s.VTime <= 0 || s.Tasks <= 0 || s.Waves <= 0 {
			t.Fatalf("degenerate stage: %+v", s)
		}
		total += s.VTime
	}
	if total != res.VTime {
		t.Fatalf("stage vtimes sum to %g, job vtime %g", total, res.VTime)
	}
	if e.Trace.Clock() != res.VTime {
		t.Fatalf("trace clock %g, job vtime %g", e.Trace.Clock(), res.VTime)
	}
	// Map tasks read 400 input records; reduce tasks count their own
	// inputs on top, so the registry total must exceed 400.
	if got := e.Trace.Metrics.Counter(CounterInputRecords); got <= 400 {
		t.Fatalf("registry input records = %d, want > 400", got)
	}
}

// TestSpanHotPathAllocs pins the zero-overhead promise: with tracing off
// (no trace attached) or on a trace that keeps no timeline
// (obs.NewProfileTrace), StartSpan/End do not allocate. A profile trace
// records the profile a full trace records, byte for byte, and no span,
// wait or instant; and a phase of one-record map tasks under it allocates
// what it does with no trace at all, plus one constant: nothing per task.
func TestSpanHotPathAllocs(t *testing.T) {
	for _, tr := range []*obs.Trace{nil, obs.NewProfileTrace()} {
		ctx := NewTaskContext(nil, 0, 0, MapTask)
		ctx.traced = tr.Timeline()
		allocs := testing.AllocsPerRun(1000, func() {
			sp := ctx.StartSpan("read", "io")
			ctx.extra += 0.001
			sp.End()
		})
		if allocs != 0 {
			t.Fatalf("span path with trace %p allocates %.1f per op, want 0", tr, allocs)
		}
	}

	fullChrome, fullProf := traceRun(t, 1, obs.NewTrace())
	chrome, prof := traceRun(t, 1, obs.NewProfileTrace())
	if !bytes.Equal(prof, fullProf) || !bytes.Contains(chrome, []byte(`"traceEvents": [],`)) || bytes.Contains(fullChrome, []byte(`"traceEvents": [],`)) {
		t.Fatalf("profile trace: profile equal to the full trace's %v, timeline %s; want the same profile and no event", bytes.Equal(prof, fullProf), chrome)
	}

	if raceEnabled {
		t.Skip("the per-task count below is exact only outside -race")
	}
	fs, e := parEnv(t, 1)
	extra := func(tasks int) uint64 { // what a profile trace adds to a phase of tasks tasks
		e.Trace = nil
		none := phaseAllocs(t, fs, e, tasks, false)
		e.Trace = obs.NewProfileTrace()
		return phaseAllocs(t, fs, e, tasks, false) - none
	}
	if small, large := extra(200), extra(2000); small != large {
		t.Fatalf("a profile trace adds %d allocations to a phase of 200 tasks and %d to one of 2,000; want the same constant", small, large)
	}
}

// TestChromeTraceGolden pins the exact Chrome trace-event serialization
// of a tiny deterministic job. Regenerate with -update-golden after an
// intentional format change.
func TestChromeTraceGolden(t *testing.T) {
	fs, e := parEnv(t, 1)
	e.Trace = obs.NewTrace()
	in := makeInput(t, fs, "in", 24)
	job := wordCountJob(in, "tiny", false)
	job.NumReduce = 2
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace deviates from %s (rerun with -update-golden if intentional)\ngot %d bytes, want %d", golden, buf.Len(), len(want))
	}
}
