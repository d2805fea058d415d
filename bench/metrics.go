package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. The two tables below are the Go
// side of BENCHMARK.json; bench_test.go fails when they disagree.
type metricDef struct {
	name, unit string
	// higher reports whether a larger value is the better one.
	higher bool
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
}

// endToEnd lists what a user of the system sees, measured with every
// decorator off (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"op_wall_ms_p50", "ms", false, 0.25},
	{"op_wall_ms_p90", "ms", false, 0.25},
	{"records_per_s", "records/s", true, 0.25},
	{"cpu_s_per_mrecord", "s/Mrecord", false, 0.25},
	{"alloc_bytes_per_record", "B", false, 0.05},
	{"allocs_per_record", "count", false, 0.05},
	{"peak_rss_mb", "MB", false, 0.20},
	{"vtime_s_mean", "virtual_s", false, 0.06},
}

// perLayer lists the single-layer numbers of the traced run (-trace 1).
// Layer prefixes are the internal package names. A layer the workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"dfs.create_mb_per_s", "MB/s", true, 0},
	{"dfs.chunk_read_ns_per_record", "ns", false, 0},
	{"dfs.chunk_read_alloc_bytes_per_record", "B", false, 0},
	{"dfs.backed_chunk_read_ns_per_record", "ns", false, 0},

	{"mapreduce.identity_job_ns_per_record", "ns", false, 0},
	{"mapreduce.identity_job_alloc_bytes_per_record", "B", false, 0},
	{"mapreduce.identity_job_allocs_per_record", "count", false, 0},
	{"mapreduce.identity_job_cpu_ns_per_record", "ns", false, 0},
	{"mapreduce.map_phase_ns_per_record", "ns", false, 0},
	{"mapreduce.reduce_phase_ns_per_record", "ns", false, 0},
	{"mapreduce.maponly_tasks_per_s", "1/s", true, 0},
	{"mapreduce.chaos_tasks_per_s", "1/s", true, 0},
	{"mapreduce.reduce256_tasks_per_s", "1/s", true, 0},
	{"mapreduce.task_retries_per_op", "count", false, 0},

	{"core.base.job_ms_p50", "ms", false, 0},
	{"core.cache.job_ms_p50", "ms", false, 0},
	{"core.repart.job_ms_p50", "ms", false, 0},
	{"core.idxloc.job_ms_p50", "ms", false, 0},
	{"core.dynamic.job_ms_p50", "ms", false, 0},
	{"core.q3.job_ms_p50", "ms", false, 0},
	{"core.q9.job_ms_p50", "ms", false, 0},
	{"core.repart_extra_ms_per_job", "ms", false, 0},
	{"core.job_cpu_ns_per_record", "ns", false, 0},
	{"core.residual_cpu_ns_per_record", "ns", false, 0},
	{"core.user_fn_busy_share", "ratio", true, 0},
	{"core.plan_us_per_operator", "us", false, 0},
	{"core.replans_per_op", "count", false, 0},
	{"core.mr_jobs_per_submit", "count", false, 0},

	{"ixclient.lookup_ns", "ns", false, 0},
	{"ixclient.lookup_allocs", "count", false, 0},
	{"ixclient.chain_overhead_ns", "ns", false, 0},
	{"ixclient.batch_ns_per_key", "ns", false, 0},
	{"ixclient.cache_miss_ratio", "ratio", false, 0},
	{"ixclient.pool_hit_ratio", "ratio", true, 0},

	{"lru.get_hit_ns", "ns", false, 0},
	{"lru.put_evict_ns", "ns", false, 0},
	{"lru.replay_ns_per_op", "ns", false, 0},
	{"lru.replay_hit_ratio", "ratio", true, 0},
	{"lru.snapshot_rollback_us", "us", false, 0},

	{"kvstore.lookup_ns", "ns", false, 0},
	{"kvstore.lookup_alloc_bytes", "B", false, 0},
	{"kvstore.lookup_allocs", "count", false, 0},
	{"kvstore.batch_lookup_ns_per_key", "ns", false, 0},
	{"kvstore.load_ns_per_key", "ns", false, 0},
	{"kvstore.frozen_lookup_ns", "ns", false, 0},
	{"kvstore.lookups_per_record", "count", false, 0},
	{"kvstore.busy_share", "ratio", false, 0},

	{"btree.get_ns", "ns", false, 0},
	{"btree.put_ns", "ns", false, 0},

	{"fstore.lookup_ns", "ns", false, 0},
	{"fstore.lookup_alloc_bytes", "B", false, 0},
	{"fstore.probe_ns", "ns", false, 0},
	{"fstore.write_mb_per_s", "MB/s", true, 0},
	{"fstore.open_ms", "ms", false, 0},
	{"fstore.bytes_per_user_byte", "ratio", false, 0},

	{"sim.schedule_tasks_per_s", "1/s", true, 0},
	{"sim.schedule_allocs_per_task", "count", false, 0},
	{"sim.schedule_lease_tasks_per_s", "1/s", true, 0},
	{"sim.schedule_small_us_per_phase", "us", false, 0},
	{"sim.parallel_speedup", "ratio", true, 0},

	{"jobsvc.empty_job_us", "us", false, 0},
	{"jobsvc.durable_overhead_share", "ratio", false, 0},
	{"jobsvc.journal_records_per_job", "count", false, 0},
	{"jobsvc.journal_bytes_per_job", "B", false, 0},
	{"jobsvc.checkpoints_per_session", "count", false, 0},
	{"jobsvc.checkpoint_bytes_mean", "B", false, 0},
	{"jobsvc.durable_bytes_per_job", "B", false, 0},
	{"jobsvc.recover_ms_p50", "ms", false, 0},
	{"jobsvc.recover_replay_ms", "ms", false, 0},
	{"jobsvc.recover_rerun_ms", "ms", false, 0},
	{"jobsvc.recover_decided_share", "ratio", true, 0},

	{"wal.append_ns", "ns", false, 0},
	{"wal.append_sync_us", "us", false, 0},
	{"wal.replay_mb_per_s", "MB/s", true, 0},
	{"wal.open_ms", "ms", false, 0},

	{"vfs.writes_per_job", "count", false, 0},
	{"vfs.write_bytes_per_job", "B", false, 0},
	{"vfs.fsyncs_per_job", "count", false, 0},
	{"vfs.renames_per_job", "count", false, 0},
	{"vfs.busy_ms_per_job", "ms", false, 0},

	{"obs.trace_on_overhead_share", "ratio", false, 0},

	{"host.kernel_ms", "ms", false, 0},

	{"go.gc_cpu_share", "ratio", false, 0},
	{"go.gc_cycles_per_op", "count", false, 0},
	{"go.heap_peak_mb", "MB", false, 0},

	{"trace.overhead_share", "ratio", false, 0},
}

// metricSet collects values by name during a run.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// gcCPUSample is the runtime/metrics counter behind go.gc_cpu_share.
const gcCPUSample = "/cpu/classes/gc/total:cpu-seconds"

// meter accumulates wall time, process CPU, and allocation deltas over
// the timed sections of a round. Ops call start/stop around the part a
// user would wait for; verification and clean-up between ops stay out.
type meter struct {
	wall, cpu  time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcCPU      float64 // seconds
	heapPeak   uint64  // max HeapInuse seen at a stop

	// prof narrows the profiles to the timed sections: CPU samples taken
	// there carry the pprof label section=timed (goroutines the section
	// starts inherit it), and allocation sampling is on only there.
	prof profiling

	// probe times the host (calibrate.go); host holds its readings, one
	// taken before every timed section.
	probe *hostProbe
	host  []time.Duration

	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
	gc0  float64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: gcCPUSample}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// profiling holds the -cpuprofile/-memprofile switches.
type profiling struct{ cpu, mem bool }

func (m *meter) start() {
	if m.prof.mem {
		runtime.MemProfileRate = 512 << 10
	}
	if m.prof.cpu {
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("section", "timed")))
	}
	// Every timed section starts from a collected heap — an op pays for
	// its own garbage, not for the previous op's or the check's — and
	// with a fresh reading of the host's speed.
	runtime.GC()
	m.host = append(m.host, m.probe.run())
	runtime.ReadMemStats(&m.ms0)
	m.gc0 = gcCPUSeconds()
	m.cpu0 = processCPU()
	m.t0 = time.Now()
}

// stop closes the timed section opened by start and returns its wall time.
func (m *meter) stop() time.Duration {
	d := time.Since(m.t0)
	cpu := processCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if m.prof.cpu {
		pprof.SetGoroutineLabels(context.Background())
	}
	if m.prof.mem {
		runtime.MemProfileRate = 0
	}
	m.wall += d
	m.cpu += cpu - m.cpu0
	m.allocBytes += ms.TotalAlloc - m.ms0.TotalAlloc
	m.mallocs += ms.Mallocs - m.ms0.Mallocs
	m.gcCycles += ms.NumGC - m.ms0.NumGC
	m.gcCPU += gcCPUSeconds() - m.gc0
	if ms.HeapInuse > m.heapPeak {
		m.heapPeak = ms.HeapInuse
	}
	return d
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics; vs need not be sorted.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t / float64(len(vs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkFinite rejects NaN/Inf before they reach the JSON encoder.
func checkFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is not finite: %v", name, v)
	}
	return nil
}
