package main

import (
	"fmt"
	"strings"

	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/jobsvc"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/workloads"
)

// runTraced is the traced run (-trace 1). It does two things and writes
// the spans to tracePath:
//
//   - two rounds of the workload — one plain, one decorated (accessors,
//     user functions and Durability.FS wrapped) — whose difference is
//     the price of the decorators and whose equality op for op (virtual
//     times and digests) shows the decorators are transparent;
//   - the workload's layer probes.
func runTraced(spec *workloadSpec, e *env, tracePath string) (summary, error) {
	e.tr = newTracer()
	out := metricSet{}
	opID := 0

	plain, err := runRound(spec, e, profiling{}, &opID)
	if err != nil {
		return summary{}, err
	}
	e.dec = newDecorators()
	decorated, err := runRound(spec, e, profiling{}, &opID)
	e.dec = nil
	if err != nil {
		return summary{}, err
	}

	s := summary{metrics: out, attempted: plain.attempted + decorated.attempted, failed: plain.failed + decorated.failed}
	for _, r := range []*roundResult{plain, decorated} {
		if r.firstErr != nil {
			s.notes = append(s.notes, r.firstErr.Error())
		}
	}
	if err := checkRounds([]*roundResult{plain, decorated}); err != nil {
		s.failed++
		s.notes = append(s.notes, "decorators changed the run: "+err.Error())
	}
	s.correct = s.failed == 0

	plainRPS := ratio(float64(plain.records), plain.wallS())
	decRPS := ratio(float64(decorated.records), decorated.wallS())
	out.set("trace.overhead_share", 1-ratio(decRPS, plainRPS))
	out.set("host.kernel_ms", ms(kernelNominal)/plain.speed)
	out.set("go.gc_cpu_share", ratio(plain.m.gcCPU, plain.m.cpu.Seconds()))
	out.set("go.gc_cycles_per_op", ratio(float64(plain.m.gcCycles), float64(plain.attempted)))
	out.set("go.heap_peak_mb", float64(plain.m.heapPeak)/(1<<20))

	if err := spec.layers(e, plain, decorated, out); err != nil {
		return summary{}, fmt.Errorf("%s: layer probes: %w", spec.name, err)
	}
	if err := e.tr.write(tracePath); err != nil {
		return summary{}, err
	}
	s.notes = append(s.notes, "trace written to "+tracePath)
	return s, nil
}

// strategyP50 is the median latency of the round's ops run under one
// strategy: labels are "strategy" or "query/strategy".
func strategyP50(r *roundResult, strategy string) float64 {
	return p50Where(r, func(l string) bool { return l == strategy || strings.HasSuffix(l, "/"+strategy) })
}

// jobLayers derives the per-layer metrics every EFind job workload
// shares from the two rounds.
func jobLayers(plain, decorated *roundResult, out metricSet) {
	for _, s := range strategies {
		out.set("core."+s+".job_ms_p50", strategyP50(plain, s))
	}
	out.set("core.repart_extra_ms_per_job", strategyP50(plain, "repart")-strategyP50(plain, "cache"))
	out.set("core.replans_per_op", ratio(plain.counts["replans"], plain.counts["submits"]))
	out.set("core.mr_jobs_per_submit", ratio(plain.counts["mr_jobs"], plain.counts["submits"]))
	out.set("ixclient.cache_miss_ratio", ratio(plain.counts["cache_misses"], plain.counts["cache_probes"]))

	cpu := float64(decorated.m.cpu)
	out.set("kvstore.lookups_per_record", ratio(float64(decorated.accessorCalls), float64(decorated.records)))
	out.set("kvstore.busy_share", ratio(float64(decorated.accessorBusy), cpu))
	out.set("core.user_fn_busy_share", ratio(float64(decorated.userFnBusy), cpu))
}

// setResidual splits the decorated round's CPU per record four ways:
// index (kvstore.busy_share), user functions (core.user_fn_busy_share),
// the bare engine (the identity job) and what is left — stage pipeline,
// carrier wire format and index-client self time.
func setResidual(decorated *roundResult, identityCPUNS float64, out metricSet) {
	recs := float64(decorated.records)
	out.set("core.job_cpu_ns_per_record", ratio(float64(decorated.m.cpu), recs)*decorated.speed)
	out.set("mapreduce.identity_job_cpu_ns_per_record", identityCPUNS)
	other := ratio(float64(decorated.m.cpu-decorated.accessorBusy-decorated.userFnBusy), recs)
	out.set("core.residual_cpu_ns_per_record", other*decorated.speed-identityCPUNS)
}

// synLayers runs the probes of a synthetic-join workload on a fresh
// world built from the same seed.
func synLayers(sizes func(bool) synSizes, withObs bool) func(*env, *roundResult, *roundResult, metricSet) error {
	return func(e *env, plain, decorated *roundResult, out metricSet) error {
		jobLayers(plain, decorated, out)
		sz := sizes(e.tiny)
		w, err := setupSyn(e, sz)
		if err != nil {
			return err
		}
		defer w.close()
		recs := w.input.All()
		value := strings.Repeat("v", sz.indexSize)

		if err := probeDFSCreate(e, w.l.cluster, w.l.fs.ChunkTarget, recs, out); err != nil {
			return err
		}
		if err := probeChunkRead(e, w.input, "dfs.chunk_read", true, out); err != nil {
			return err
		}
		identityCPU, err := probeIdentityJob(e, w.l, w.input, out)
		if err != nil {
			return err
		}
		setResidual(decorated, identityCPU, out)
		if err := probeParallelSpeedup(e, recs, w.l.fs.ChunkTarget, out); err != nil {
			return err
		}
		planUS, err := probePlanner(e, w.l.rt, w.conf("probe-stats"))
		if err != nil {
			return err
		}
		out.set("core.plan_us_per_operator", planUS)
		probeIxclient(e, w.l.cluster, w.store, w.keys, core.DefaultCacheCapacity, out)
		probeLRU(e, w.keys, value, core.DefaultCacheCapacity, out)
		if err := probeKVStore(e, w.l.cluster, w.store, w.keys, value, out); err != nil {
			return err
		}
		probeBTree(e, w.keys, value, out)
		probeSchedulerSmall(e, out)
		if withObs {
			return probeObsTrace(e, w, out)
		}
		return nil
	}
}

// tpchKeys is Q9's supplier key stream in LineItem order — random keys
// over a dictionary far above the cache: the thrashing stream.
func tpchKeys(recs []dfs.Record) []string {
	keys := make([]string, 0, len(recs))
	for _, r := range recs {
		if f := strings.Split(r.Value, "|"); len(f) == 7 {
			keys = append(keys, f[2])
		}
	}
	return keys
}

func tpchLayers(e *env, plain, decorated *roundResult, out metricSet) error {
	jobLayers(plain, decorated, out)
	byQuery := func(q string) float64 {
		return p50Where(plain, func(l string) bool { return strings.HasPrefix(l, q+"/") })
	}
	out.set("core.q3.job_ms_p50", byQuery("q3"))
	out.set("core.q9.job_ms_p50", byQuery("q9"))

	sz := tpchSizesFor(e.tiny)
	w, err := setupTPCH(e, sz)
	if err != nil {
		return err
	}
	defer w.close()
	keys := tpchKeys(w.w.Input.All())
	value, ok := firstOf(w.w.Supplier, keys[0])
	if !ok {
		return fmt.Errorf("tpch probes: supplier %s missing", keys[0])
	}

	if err := probeChunkRead(e, w.w.Input, "dfs.chunk_read", true, out); err != nil {
		return err
	}
	identityCPU, err := probeIdentityJob(e, w.l, w.w.Input, out)
	if err != nil {
		return err
	}
	setResidual(decorated, identityCPU, out)
	planUS, err := probePlanner(e, w.l.rt, w.w.Q3Conf("probe-q3", core.ModeBaseline), w.w.Q9Conf("probe-q9", core.ModeBaseline))
	if err != nil {
		return err
	}
	out.set("core.plan_us_per_operator", planUS)
	probeIxclient(e, w.l.cluster, w.w.Supplier, keys, sz.cacheCapacity, out)
	probeLRU(e, keys, value, sz.cacheCapacity, out)
	if err := probeKVStore(e, w.l.cluster, w.w.Supplier, keys, value, out); err != nil {
		return err
	}
	probeBTree(e, keys, value, out)
	probeSchedulerSmall(e, out)
	return nil
}

func schedLayers(e *env, plain, _ *roundResult, out metricSet) error {
	sz := schedSizesFor(e.tiny)
	tps := func(variant string) float64 {
		return ratio(float64(sz.tasks)*1e3, p50Where(plain, func(l string) bool { return l == variant }))
	}
	out.set("mapreduce.maponly_tasks_per_s", tps("maponly"))
	out.set("mapreduce.chaos_tasks_per_s", tps("chaos"))
	out.set("mapreduce.reduce256_tasks_per_s", tps("reduce"))
	out.set("mapreduce.task_retries_per_op", ratio(plain.counts["task_retries"], plain.counts["chaos_ops"]))
	probeSchedulerBig(e, out)

	records := make([]dfs.Record, sz.tasks)
	for i := range records {
		records[i] = dfs.Record{Key: fmt.Sprintf("k%07d-%d", i, e.seed), Value: "v"}
	}
	return probeDFSCreate(e, schedCluster(sz.nodes), 1, records, out)
}

func svcLayers(e *env, plain, decorated *roundResult, out metricSet) error {
	jobs := plain.counts["jobs"]
	out.set("jobsvc.journal_records_per_job", ratio(plain.counts["journal_records"], jobs))
	out.set("jobsvc.journal_bytes_per_job", ratio(plain.counts["journal_bytes"], jobs))
	out.set("jobsvc.checkpoints_per_session", ratio(plain.counts["checkpoints"], plain.counts["sessions"]))
	out.set("jobsvc.checkpoint_bytes_mean", ratio(plain.counts["checkpoint_bytes"], plain.counts["checkpoints"]))
	out.set("jobsvc.durable_bytes_per_job", ratio(plain.counts["durable_bytes"], jobs))
	out.set("jobsvc.recover_ms_p50", median(plain.samples["recover_ms"])*plain.speed)
	out.set("jobsvc.recover_replay_ms", median(plain.samples["recover_replay_ms"])*plain.speed)
	out.set("jobsvc.recover_rerun_ms", median(plain.samples["recover_rerun_ms"])*plain.speed)
	out.set("jobsvc.recover_decided_share", ratio(plain.counts["recover_decided"], plain.counts["recover_jobs"]))
	out.set("ixclient.pool_hit_ratio", ratio(plain.counts["pool_hits"], plain.counts["pool_probes"]))

	djobs := decorated.counts["jobs"]
	out.set("vfs.writes_per_job", ratio(decorated.counts["vfs_writes"], djobs))
	out.set("vfs.write_bytes_per_job", ratio(decorated.counts["vfs_bytes"], djobs))
	out.set("vfs.fsyncs_per_job", ratio(decorated.counts["vfs_fsyncs"], djobs))
	out.set("vfs.renames_per_job", ratio(decorated.counts["vfs_renames"], djobs))
	out.set("vfs.busy_ms_per_job", mean(decorated.samples["vfs_busy_ms"])*decorated.speed/svcJobsPerSession)
	cpu := float64(decorated.m.cpu)
	out.set("kvstore.lookups_per_record", ratio(float64(decorated.accessorCalls), float64(decorated.records)))
	out.set("kvstore.busy_share", ratio(float64(decorated.accessorBusy), cpu))
	out.set("core.user_fn_busy_share", ratio(float64(decorated.userFnBusy), cpu))

	sz := svcSizesFor(e.tiny)
	w, err := setupSvc(e, sz)
	if err != nil {
		return err
	}
	defer w.close()
	value := strings.Repeat("v", sz.syn.indexSize)

	// The same session without durability: what the journal, the fsyncs,
	// the checkpoints and the output fingerprints cost.
	sp := e.tr.begin("probe jobsvc non-durable sessions", "jobsvc", -1, nil)
	var walls []float64
	for i := 0; i < 1+5; i++ {
		m := meter{probe: e.host}
		s, err := runSession(&opCtx{m: &m, id: -1}, w.syn, nil)
		if err != nil {
			return err
		}
		if _, _, err := checkSession(w.syn, s); err != nil {
			return err
		}
		if i > 0 { // the first warms the page cache of the mapped snapshots
			walls = append(walls, ms(s.wall)*hostSpeed(m.host))
		}
	}
	sp.end()
	durable := quantile(opWalls(plain), 0.5)
	out.set("jobsvc.durable_overhead_share", ratio(durable-median(walls), durable))

	if err := probeEmptyJobs(e, out); err != nil {
		return err
	}
	if err := probeChunkRead(e, w.syn.input, "dfs.backed_chunk_read", false, out); err != nil {
		return err
	}
	if err := probeKVStore(e, w.syn.l.cluster, w.syn.store, w.syn.keys, value, out); err != nil {
		return err
	}
	if err := probeFStore(e, w.syn.keys, value, out); err != nil {
		return err
	}
	if err := probeWAL(e, out); err != nil {
		return err
	}
	probeSchedulerLease(e, out)
	return nil
}

// probeEmptyJobs runs a non-durable session of one-record jobs: what is
// left is admission, leases and the ledger.
func probeEmptyJobs(e *env, out metricSet) error {
	sp := e.tr.begin("probe jobsvc empty jobs", "jobsvc", -1, nil)
	defer sp.end()
	l := newLab(0)
	input, err := l.fs.Create("one", []dfs.Record{{Key: "s00000000", Value: "00000000 x"}})
	if err != nil {
		return err
	}
	store := kvstore.NewHash(l.cluster, "one-index", 32, 3, 0.001)
	store.Put("00000000", "v")
	const jobs = 32
	session := func() ([]jobsvc.JobStatus, error) {
		var subs []jobsvc.Submission
		for i := 0; i < jobs; i++ {
			op := core.NewOperator("syn", func(in core.Pair) core.PreResult {
				return core.PreResult{Pair: in, Keys: [][]string{{workloads.SyntheticKey(in.Value)}}}
			}, nil)
			op.AddIndex(store)
			conf := &core.IndexJobConf{Name: fmt.Sprintf("empty-%d", i), Input: input, Mode: core.ModeCache, Reducer: mapreduce.IdentityReduce}
			conf.AddHeadIndexOperator(op)
			subs = append(subs, jobsvc.Submission{Tenant: svcTenants[i%2].Name, At: 0, Conf: conf})
		}
		svc, err := jobsvc.New(l.rt, svcTenants, jobsvc.Options{})
		if err != nil {
			return nil, err
		}
		return svc.Run(subs), nil
	}
	c := measure(e, func(n int) {
		for i := 0; i < n; i++ {
			statuses, serr := session()
			if serr != nil {
				err = serr
				return
			}
			for _, st := range statuses {
				if st.State != jobsvc.JobCompleted {
					err = fmt.Errorf("empty job %s: %s %s%v", st.Name, st.State, st.Reason, st.Err)
				} else if rerr := l.fs.Remove(st.Result.Output.Name); rerr != nil {
					err = rerr
				}
			}
		}
	})
	out.set("jobsvc.empty_job_us", c.ns/1e3/jobs)
	return err
}
