package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary be its own host-probe child, as the
// benchmark binary is (calibrate.go).
func TestMain(m *testing.M) {
	if servedHostProbe() {
		return
	}
	os.Exit(m.Run())
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestManifestMatchesTables pins BENCHMARK.json to the metric and
// workload tables the program reports from.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(allWorkloads) {
		t.Fatalf("manifest has %d workloads, program %d", len(m.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q/%q, program %q/%q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, program %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better(d) {
				t.Errorf("%s[%d]: manifest %+v, program %s %s %s", kind, i, g, d.name, d.unit, better(d))
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s: bad or repeated name/unit %q %q", kind, d.name, d.unit)
			}
			seen[d.name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: %s bound must be in (0, 0.25] and equal in manifest and program", kind, d.name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s must carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
}

func tinyEnv(t *testing.T) *env {
	t.Helper()
	return &env{seed: 1, scratch: t.TempDir(), tiny: true}
}

// TestEveryWorkloadEmitsEveryMetric runs every workload at the test-only
// reduced size, untraced and traced, and requires every declared metric
// with a finite value, correct outputs, and a loadable trace.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, spec := range allWorkloads {
		t.Run(spec.name, func(t *testing.T) {
			out := t.TempDir()
			for _, trace := range []int{0, 1} {
				var buf bytes.Buffer
				o := &options{workload: spec.name, seed: 1, seconds: 0, trace: trace, out: out, tiny: true}
				if err := runWorkload(spec, o, &buf); err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("trace %d: last line is not JSON: %v", trace, err)
				}
				if len(raw) != 4 {
					t.Errorf("trace %d: result has keys %v, want exactly correct, attempted, failed, metrics", trace, raw)
				}
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("trace %d: correct %v attempted %d failed %d\n%s", trace, r.Correct, r.Attempted, r.Failed, buf.String())
				}
				defs := endToEnd
				if trace == 1 {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("trace %d: %d metrics reported, %d declared", trace, len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := r.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("trace %d: metric %s missing", trace, d.name)
					case v.Unit != d.unit:
						t.Errorf("trace %d: metric %s unit %q, want %q", trace, d.name, v.Unit, d.unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("trace %d: metric %s is %v", trace, d.name, v.Value)
					case trace == 0 && v.Value <= 0:
						t.Errorf("end-to-end metric %s is %v; it must never be 0", d.name, v.Value)
					}
				}
				if trace == 1 {
					checkLayers(t, spec, r)
				}
			}
			data, err := os.ReadFile(filepath.Join(out, "trace_"+spec.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
				t.Fatalf("trace does not load: %v (%d events)", err, len(tr.TraceEvents))
			}
		})
	}
}

// checkLayers requires that a workload's traced run reports the layers
// it was chosen for, and that service/journal/file-system work shows up
// on svc_durable only.
func checkLayers(t *testing.T, spec *workloadSpec, r result) {
	t.Helper()
	want := map[string][]string{
		"syn_small":   {"kvstore.lookup_ns", "ixclient.lookup_ns", "lru.replay_ns_per_op", "core.repart.job_ms_p50", "mapreduce.identity_job_ns_per_record", "kvstore.busy_share", "core.user_fn_busy_share", "dfs.create_mb_per_s", "obs.trace_on_overhead_share"},
		"syn_large":   {"kvstore.lookup_ns", "core.base.job_ms_p50", "mapreduce.reduce_phase_ns_per_record", "kvstore.lookups_per_record", "go.heap_peak_mb"},
		"tpch_q3q9":   {"core.q3.job_ms_p50", "core.q9.job_ms_p50", "core.plan_us_per_operator", "ixclient.cache_miss_ratio", "kvstore.busy_share", "lru.put_evict_ns"},
		"sched_scale": {"mapreduce.maponly_tasks_per_s", "mapreduce.chaos_tasks_per_s", "mapreduce.reduce256_tasks_per_s", "mapreduce.task_retries_per_op", "sim.schedule_tasks_per_s"},
		"svc_durable": {"jobsvc.durable_bytes_per_job", "jobsvc.recover_ms_p50", "jobsvc.journal_records_per_job", "jobsvc.empty_job_us", "wal.append_sync_us", "vfs.fsyncs_per_job", "vfs.write_bytes_per_job", "fstore.lookup_ns", "fstore.write_mb_per_s", "kvstore.frozen_lookup_ns", "dfs.backed_chunk_read_ns_per_record", "ixclient.pool_hit_ratio", "sim.schedule_lease_tasks_per_s"},
	}
	for _, name := range want[spec.name] {
		if r.Metrics[name].Value == 0 {
			t.Errorf("%s: layer metric %s is 0", spec.name, name)
		}
	}
	if spec != svcDurable {
		for name, v := range r.Metrics {
			if v.Value != 0 && (strings.HasPrefix(name, "jobsvc.") || strings.HasPrefix(name, "wal.") || strings.HasPrefix(name, "vfs.")) {
				t.Errorf("%s: %s = %v, but the workload has no service, journal or file-system work", spec.name, name, v.Value)
			}
		}
	}
}

// TestDeterminismCheckFires perturbs one round's digest, then one
// round's virtual time, and requires the run to be reported incorrect.
func TestDeterminismCheckFires(t *testing.T) {
	rounds, err := runRounds(synSmall, tinyEnv(t), 0, profiling{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) < minRounds {
		t.Fatalf("ran %d rounds, want at least %d", len(rounds), minRounds)
	}
	if s := summarize(rounds); !s.correct || s.failed != 0 {
		t.Fatalf("clean run reported incorrect: %v", s.notes)
	}
	last := rounds[len(rounds)-1]
	last.digests[1].Sum ^= 1
	if s := summarize(rounds); s.correct || s.failed == 0 {
		t.Error("perturbed digest was not reported")
	}
	last.digests[1].Sum ^= 1
	last.vtimes[0] = math.Nextafter(last.vtimes[0], 1)
	if s := summarize(rounds); s.correct || s.failed == 0 {
		t.Error("perturbed virtual time was not reported")
	}
}

// TestDecoratorsAreTransparent runs a plain and a decorated round of the
// two workloads that use every decorator and requires identical virtual
// times and digests — and that the decorators saw the work.
func TestDecoratorsAreTransparent(t *testing.T) {
	for _, spec := range []*workloadSpec{synSmall, tpchQ3Q9, svcDurable} {
		t.Run(spec.name, func(t *testing.T) {
			e := tinyEnv(t)
			opID := 0
			plain, err := runRound(spec, e, profiling{}, &opID)
			if err != nil {
				t.Fatal(err)
			}
			e.dec = newDecorators()
			decorated, err := runRound(spec, e, profiling{}, &opID)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkRounds([]*roundResult{plain, decorated}); err != nil {
				t.Errorf("decorators changed the run: %v", err)
			}
			if plain.failed+decorated.failed != 0 {
				t.Errorf("failed ops: %v %v", plain.firstErr, decorated.firstErr)
			}
			if decorated.accessorCalls == 0 || decorated.accessorBusy == 0 {
				t.Error("accessor decorator saw no lookups")
			}
			if decorated.userFnCalls == 0 {
				t.Error("user-function decorator saw no calls")
			}
			fs := e.dec.fs.tally()
			if spec == svcDurable && (fs.writes == 0 || fs.fsyncs == 0 || fs.bytes == 0 || fs.renames == 0) {
				t.Errorf("counting vfs.FS saw %+v", fs)
			}
			if spec != svcDurable && fs.calls != 0 {
				t.Errorf("counting vfs.FS saw %d calls on a workload without a journal", fs.calls)
			}
		})
	}
}

// TestQuartilesMatchPython pins the spread computation to
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestDriverFlags accepts the flag spelling the driver uses.
func TestDriverFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "syn_small", "--seed", "7", "--seconds", "3", "--trace", "1"}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "syn_small" || o.seed != 7 || o.seconds != 3 || o.trace != 1 {
		t.Errorf("parsed %+v", o)
	}
	if _, err := parseFlags([]string{"--workload", "syn_small", "--trace", "2"}, &bytes.Buffer{}); err == nil {
		t.Error("-trace 2 was accepted")
	}
}
