package main

import (
	"fmt"
	"runtime"
	"time"
)

// env is what a workload's set-up receives: the seed every generator is
// fed, where file-backed worlds may write, and — in the traced run — the
// span recorder and the decorator tallies.
type env struct {
	seed    int64
	scratch string // directory for file-backed worlds and journals
	tiny    bool   // test-only reduced sizes (bench_test.go)

	host *hostProbe // times the host beside the program (calibrate.go)

	tr  *tracer     // nil when untraced
	dec *decorators // nil = hand the program its own accessors, functions and FS
}

// decorators are the tallies of the seams the traced run wraps.
type decorators struct {
	accessor busy // index.Accessor Lookup/BatchLookup
	userFn   busy // user pre/post/map/reduce functions
	fs       *countingFS
}

func newDecorators() *decorators { return &decorators{fs: newCountingFS()} }

// world is one freshly built environment (cluster, DFS, indices, runtime)
// plus the reference digests its ops are checked against.
type world interface {
	// label names op i of the cycle (a strategy, query or variant).
	label(i int) string
	// op runs op i: the part a user waits for between c.m.start() and
	// c.m.stop(), then the untimed output check and clean-up.
	op(i int, c *opCtx) opResult
	close() error
}

// opCtx is what the harness hands one op.
type opCtx struct {
	m  *meter
	id int   // op id shared by the op's spans
	sp *span // the op's span (nil untraced)
	tr *tracer
}

// opResult is what one op reports back.
type opResult struct {
	wall    time.Duration
	records int     // input records processed
	vtime   float64 // virtual makespan
	digest  digest  // of the verified output
	err     error   // job error or failed output check
	// counts are exact, workload-specific tallies (replans, MapReduce
	// jobs run, cache probes, journal records …) summed per round for
	// the per-layer metrics.
	counts map[string]float64
	// samples are workload-specific timings (recovery, file-system busy
	// time) pooled per round for the per-layer metrics.
	samples map[string][]float64
}

// workloadSpec is one named workload.
type workloadSpec struct {
	name string
	why  string
	// cycle is the number of ops after which the op mix repeats.
	cycle int
	// warm is the number of untimed ops that warm each round (0 = one
	// cycle).
	warm int
	// ops is the number of timed ops per round: fixed, so allocation and
	// virtual-time metrics repeat exactly.
	ops func(tiny bool) int
	// setup builds a fresh world.
	setup func(e *env) (world, error)
	// layers runs the workload's layer probes and derives its per-layer
	// metrics from a plain and a decorated round of the traced run.
	layers func(e *env, plain, decorated *roundResult, out metricSet) error
}

// opSample is one timed op.
type opSample struct {
	label  string
	wallMS float64 // at nominal host speed (calibrate.go)
	rawMS  float64 // as the clock read it
}

// roundResult is one round: a fresh world, one warm-up cycle, then the
// fixed timed ops.
type roundResult struct {
	// setups are the round's set-up times in seconds, one per world
	// built (setupsPerRound; the last world runs the ops).
	setups []float64
	// speed scales the round's timed sections to nominal host speed.
	speed     float64
	m         meter
	records   int
	ops       []opSample
	vtimes    []float64
	digests   []digest
	attempted int
	failed    int
	firstErr  error
	counts    map[string]float64
	samples   map[string][]float64
	// decorator totals over the timed ops (traced, decorated round only)
	accessorCalls, userFnCalls int64
	accessorBusy, userFnBusy   time.Duration
}

// setupsPerRound is how many worlds a round builds to time set-up: the
// set-ups are tens of milliseconds long, and one sample per round would
// leave setup_s with three or four samples per run.
const setupsPerRound = 5

// runRound builds a world, warms it with one cycle, and times ops.
func runRound(spec *workloadSpec, e *env, prof profiling, opID *int) (*roundResult, error) {
	r := &roundResult{counts: make(map[string]float64), samples: make(map[string][]float64)}
	r.m.prof = prof
	r.m.probe = e.host

	n := setupsPerRound
	if e.tiny {
		n = 1
	}
	var w world
	for i := 0; i < n; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", spec.name, err)
			}
		}
		runtime.GC()
		r.m.host = append(r.m.host, e.host.run())
		sp := e.tr.begin("setup", spec.name, -1, nil)
		t0 := time.Now()
		var err error
		w, err = spec.setup(e)
		r.setups = append(r.setups, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
	}
	err := timeOps(spec, e, w, r, opID)
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: close: %w", spec.name, cerr)
	}
	if err != nil {
		return nil, err
	}
	// One factor per round, from every reading taken in it: single
	// readings are themselves noisy, and the round's times follow the
	// host's average speed over the round.
	r.speed = hostSpeed(r.m.host)
	for i := range r.setups {
		r.setups[i] *= r.speed
	}
	for i := range r.ops {
		r.ops[i].wallMS = r.ops[i].rawMS * r.speed
	}
	return r, nil
}

// wallS and cpuS are the round's timed wall and CPU seconds at nominal
// host speed.
func (r *roundResult) wallS() float64 { return r.m.wall.Seconds() * r.speed }
func (r *roundResult) cpuS() float64  { return r.m.cpu.Seconds() * r.speed }

// timeOps warms the world with one cycle and runs the round's timed ops.
func timeOps(spec *workloadSpec, e *env, w world, r *roundResult, opID *int) error {
	// Warm-up: lazily built state (per-node caches, pools, page cache of
	// mapped snapshots) fills before timing. Errors here are real errors.
	warmOps := spec.warm
	if warmOps == 0 {
		warmOps = spec.cycle
	}
	var warm meter
	for i := 0; i < warmOps; i++ {
		if res := w.op(i, &opCtx{m: &warm, id: -1}); res.err != nil {
			return fmt.Errorf("%s: warm-up op %d (%s): %w", spec.name, i, w.label(i), res.err)
		}
	}

	n := spec.ops(e.tiny)
	for i := 0; i < n; i++ {
		*opID++
		label := w.label(i)
		c := &opCtx{m: &r.m, id: *opID, tr: e.tr}
		c.sp = e.tr.begin(label, spec.name, c.id, nil)
		var ac0, uc0 int64
		var ab0, ub0 time.Duration
		if e.dec != nil {
			ac0, ab0 = e.dec.accessor.snapshot()
			uc0, ub0 = e.dec.userFn.snapshot()
		}
		res := w.op(i, c)
		c.sp.end()
		if e.dec != nil {
			ac1, ab1 := e.dec.accessor.snapshot()
			uc1, ub1 := e.dec.userFn.snapshot()
			c.sp.aggregate("index.Accessor lookups", "kvstore", c.id, ac1-ac0, ab1-ab0)
			c.sp.aggregate("user pre/post/map/reduce", "user", c.id, uc1-uc0, ub1-ub0)
			r.accessorCalls += ac1 - ac0
			r.accessorBusy += ab1 - ab0
			r.userFnCalls += uc1 - uc0
			r.userFnBusy += ub1 - ub0
		}
		r.attempted++
		if res.err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("op %d (%s): %w", i, label, res.err)
			}
		}
		r.records += res.records
		r.ops = append(r.ops, opSample{label: label, rawMS: ms(res.wall)})
		r.vtimes = append(r.vtimes, res.vtime)
		r.digests = append(r.digests, res.digest)
		for k, v := range res.counts {
			r.counts[k] += v
		}
		for k, v := range res.samples {
			r.samples[k] = append(r.samples[k], v...)
		}
	}
	return nil
}

// checkRounds enforces the determinism contract: every round of a run
// saw the same generated inputs, so op for op the virtual makespans and
// the output digests must be identical. A difference means the program
// is not deterministic (or a check is broken) and the run's numbers
// cannot be compared with anyone else's.
func checkRounds(rounds []*roundResult) error {
	for ri, r := range rounds[1:] {
		ref := rounds[0]
		if len(r.vtimes) != len(ref.vtimes) {
			return fmt.Errorf("round %d ran %d ops, round 0 ran %d", ri+1, len(r.vtimes), len(ref.vtimes))
		}
		for i := range r.vtimes {
			if r.vtimes[i] != ref.vtimes[i] {
				return fmt.Errorf("round %d op %d: virtual time %v differs from round 0's %v", ri+1, i, r.vtimes[i], ref.vtimes[i])
			}
			if r.digests[i] != ref.digests[i] {
				return fmt.Errorf("round %d op %d: output digest %v differs from round 0's %v", ri+1, i, r.digests[i], ref.digests[i])
			}
		}
	}
	return nil
}

// minRounds is the fewest rounds a run makes, however short -seconds is:
// medians over rounds and the determinism check need more than one.
const minRounds = 3

// runRounds repeats rounds until the timed sections add up to the
// requested seconds.
func runRounds(spec *workloadSpec, e *env, seconds float64, prof profiling) ([]*roundResult, error) {
	var rounds []*roundResult
	var timed time.Duration
	opID := 0
	for len(rounds) < minRounds || timed.Seconds() < seconds {
		r, err := runRound(spec, e, prof, &opID)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		timed += r.m.wall
	}
	return rounds, nil
}

// summary is a finished run.
type summary struct {
	metrics   metricSet
	attempted int
	failed    int
	correct   bool
	notes     []string
}

// summarize turns rounds into the end-to-end metrics: medians over
// rounds of each round's throughput, CPU and allocation per record and
// latency percentiles, and the median of all set-ups. A neighbour's burst
// lasts seconds and lands in one round; the median over rounds drops it,
// where percentiles pooled over the run would let ten slowed ops in one
// round become the run's p90. Times are at nominal host speed.
func summarize(rounds []*roundResult) summary {
	s := summary{metrics: metricSet{}, correct: true}
	var setups, rps, cpu, ab, an, p50, p90, raw, speeds []float64
	for _, r := range rounds {
		s.attempted += r.attempted
		s.failed += r.failed
		if r.firstErr != nil {
			s.notes = append(s.notes, r.firstErr.Error())
		}
		recs := float64(r.records)
		setups = append(setups, r.setups...)
		rps = append(rps, ratio(recs, r.wallS()))
		cpu = append(cpu, ratio(r.cpuS()*1e6, recs))
		ab = append(ab, ratio(float64(r.m.allocBytes), recs))
		an = append(an, ratio(float64(r.m.mallocs), recs))
		speeds = append(speeds, r.speed)
		walls := opWalls(r)
		p50 = append(p50, quantile(walls, 0.5))
		p90 = append(p90, quantile(walls, 0.9))
		for _, o := range r.ops {
			raw = append(raw, o.rawMS)
		}
	}
	if err := checkRounds(rounds); err != nil {
		s.failed++
		s.notes = append(s.notes, "determinism: "+err.Error())
	}
	s.correct = s.failed == 0
	s.metrics.set("setup_s", median(setups))
	s.metrics.set("op_wall_ms_p50", median(p50))
	s.metrics.set("op_wall_ms_p90", median(p90))
	s.metrics.set("records_per_s", median(rps))
	s.metrics.set("cpu_s_per_mrecord", median(cpu))
	s.metrics.set("alloc_bytes_per_record", median(ab))
	s.metrics.set("allocs_per_record", median(an))
	s.metrics.set("peak_rss_mb", peakRSSMB())
	s.metrics.set("vtime_s_mean", mean(rounds[0].vtimes))
	s.notes = append(s.notes,
		fmt.Sprintf("%d rounds, %d timed ops, %d set-ups, GOMAXPROCS %d", len(rounds), len(raw), len(setups), runtime.GOMAXPROCS(0)),
		fmt.Sprintf("host speed %.3f of nominal (per round %.3f); unscaled op wall over the whole run: p50 %.3f ms, p90 %.3f ms",
			median(speeds), speeds, quantile(raw, 0.5), quantile(raw, 0.9)))
	return s
}

// opWalls lists a round's op latencies.
func opWalls(r *roundResult) []float64 {
	v := make([]float64, len(r.ops))
	for i, o := range r.ops {
		v[i] = o.wallMS
	}
	return v
}

// p50Where is the median latency of the round's ops whose label matches.
func p50Where(r *roundResult, match func(label string) bool) float64 {
	var v []float64
	for _, o := range r.ops {
		if match(o.label) {
			v = append(v, o.wallMS)
		}
	}
	return median(v)
}
