package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"efind/internal/btree"
	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/fstore"
	"efind/internal/index"
	"efind/internal/ixclient"
	"efind/internal/kvstore"
	"efind/internal/lru"
	"efind/internal/mapreduce"
	"efind/internal/obs"
	"efind/internal/sim"
	"efind/internal/vfs"
	"efind/internal/wal"
)

// Layer probes: direct timed loops over a layer's public functions, fed
// the workload's own data (its key stream in arrival order, its value
// sizes, its cache capacity), reported like testing.Benchmark reports —
// ns, bytes and allocations per unit.

// unitCost is a probe's cost per unit of work.
type unitCost struct{ ns, bytes, allocs, cpuNS float64 }

// probeTime is how long one probe measures at least.
func probeTime(e *env) time.Duration {
	if e.tiny {
		return 2 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// measure calls fn(n) — which must do n units of work — with growing n
// until one call lasts at least probeTime, and reports that call's cost per
// unit. Growing like testing.B does keeps the measured call long enough
// for the clock and for MemStats to be meaningful. Like every timed
// section, a probe starts from a collected heap and reports times at
// nominal host speed.
func measure(e *env, fn func(n int)) unitCost {
	atLeast := probeTime(e)
	var before, after runtime.MemStats
	runtime.GC()
	host := []time.Duration{e.host.run()}
	for n := 1; ; {
		runtime.ReadMemStats(&before)
		cpu0 := processCPU()
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		cpu := processCPU() - cpu0
		runtime.ReadMemStats(&after)
		if d >= atLeast || n >= 1<<30 {
			speed := hostSpeed(append(host, e.host.run()))
			u := float64(n)
			return unitCost{
				ns:     float64(d) * speed / u,
				bytes:  float64(after.TotalAlloc-before.TotalAlloc) / u,
				allocs: float64(after.Mallocs-before.Mallocs) / u,
				cpuNS:  float64(cpu) * speed / u,
			}
		}
		// Aim 20 % past the target, grow at most 100× per step.
		next := int(1.2 * float64(n) * float64(atLeast) / float64(max(d, time.Microsecond)))
		n = max(n+1, min(next, n*100))
	}
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// replay measures fn per key, cycling through keys in order — the
// workload's key stream in arrival order, wrapped around.
func replay(e *env, keys []string, fn func(key string)) unitCost {
	pos := 0
	return measure(e, func(n int) {
		for i := 0; i < n; i++ {
			fn(keys[pos])
			if pos++; pos == len(keys) {
				pos = 0
			}
		}
	})
}

// batchGroup is the multi-get size the batch probes use.
const batchGroup = 64

// replayBatches measures fn per key when the stream is handed over in
// consecutive groups of batchGroup keys.
func replayBatches(e *env, keys []string, fn func(group []string)) float64 {
	size := min(batchGroup, len(keys))
	pos := 0
	c := measure(e, func(n int) {
		for i := 0; i < n; i++ {
			if pos+size > len(keys) {
				pos = 0
			}
			fn(keys[pos : pos+size])
			pos += size
		}
	})
	return c.ns / float64(size)
}

// recordBytes is the payload size dfs charges for the records.
func recordBytes(recs []dfs.Record) int {
	n := 0
	for _, r := range recs {
		n += r.Size()
	}
	return n
}

// probeDFSCreate times FS.Create of the workload input on a fresh
// in-memory namespace.
func probeDFSCreate(e *env, cluster *sim.Cluster, chunkTarget int, recs []dfs.Record, out metricSet) error {
	sp := e.tr.begin("probe dfs.Create", "dfs", -1, nil)
	defer sp.end()
	fs := dfs.New(cluster)
	fs.ChunkTarget = chunkTarget
	var err error
	seq := 0
	c := measure(e, func(n int) {
		for i := 0; i < n; i++ {
			seq++
			name := fmt.Sprintf("probe-create-%d", seq)
			if _, cerr := fs.Create(name, recs); cerr != nil {
				err = cerr
			} else if rerr := fs.Remove(name); rerr != nil {
				err = rerr
			}
		}
	})
	out.set("dfs.create_mb_per_s", ratio(float64(recordBytes(recs))*1e3, c.ns))
	return err
}

// probeChunkRead times Chunk.Records over every chunk of the input.
func probeChunkRead(e *env, input *dfs.File, prefix string, withAlloc bool, out metricSet) error {
	sp := e.tr.begin("probe "+prefix, "dfs", -1, nil)
	defer sp.end()
	var err error
	c := measure(e, func(n int) {
		for i := 0; i < n; i++ {
			for _, ch := range input.Chunks {
				recs, rerr := ch.Records()
				if rerr != nil {
					err = rerr
				}
				sink += len(recs)
			}
		}
	})
	recs := float64(input.Records())
	out.set(prefix+"_ns_per_record", c.ns/recs)
	if withAlloc {
		out.set(prefix+"_alloc_bytes_per_record", c.bytes/recs)
	}
	return err
}

// identityJob is the engine floor under every job: identity map and
// reduce over the workload input, no index operator.
func identityJob(input *dfs.File) *mapreduce.Job {
	return &mapreduce.Job{Name: "probe-identity", Input: input, Reduce: mapreduce.IdentityReduce}
}

// probeIdentityJob times the identity job phase by phase — RunMapPhase,
// then RunReducePhase (shuffle + sort + reduce + write) — so the two
// halves add up to the whole by construction, and returns the job's CPU
// cost per record for the residual computation.
func probeIdentityJob(e *env, l *lab, input *dfs.File, out metricSet) (cpuNSPerRecord float64, err error) {
	sp := e.tr.begin("probe mapreduce identity job", "mapreduce", -1, nil)
	defer sp.end()
	var mapNS, redNS time.Duration
	c := measure(e, func(n int) {
		mapNS, redNS = 0, 0
		for i := 0; i < n && err == nil; i++ {
			job := identityJob(input)
			run := l.engine.NewRun()
			t0 := time.Now()
			mp, rerr := run.RunMapPhase(job, nil)
			t1 := time.Now()
			if rerr != nil {
				err = rerr
				return
			}
			res, rerr := run.RunReducePhase(job, mp)
			redNS += time.Since(t1)
			mapNS += t1.Sub(t0)
			if rerr != nil {
				err = rerr
				return
			}
			err = l.fs.Remove(res.Output.Name)
		}
	})
	recs := float64(input.Records())
	out.set("mapreduce.identity_job_ns_per_record", c.ns/recs)
	out.set("mapreduce.identity_job_alloc_bytes_per_record", c.bytes/recs)
	out.set("mapreduce.identity_job_allocs_per_record", c.allocs/recs)
	// The phases' shares of the last measured call, applied to its
	// (host-speed scaled) per-record time.
	if total := float64(mapNS + redNS); total > 0 {
		out.set("mapreduce.map_phase_ns_per_record", c.ns/recs*float64(mapNS)/total)
		out.set("mapreduce.reduce_phase_ns_per_record", c.ns/recs*float64(redNS)/total)
	}
	return c.cpuNS / recs, err
}

// probeParallelSpeedup compares the identity job's wall time on a
// cluster forced to the serial executor with the default (GOMAXPROCS
// workers): what the worker pool buys on this host.
func probeParallelSpeedup(e *env, recs []dfs.Record, chunkTarget int, out metricSet) error {
	sp := e.tr.begin("probe sim parallel speed-up", "sim", -1, nil)
	defer sp.end()
	// wall returns a function timing the identity job on a cluster with
	// the given executor parallelism.
	wall := func(parallelism int) (func() (float64, error), error) {
		cfg := sim.DefaultConfig()
		cfg.TaskStartup = 0.005
		cfg.Parallelism = parallelism
		cluster := sim.NewCluster(cfg)
		fs := dfs.New(cluster)
		fs.ChunkTarget = chunkTarget
		input, err := fs.Create("probe-speedup", recs)
		if err != nil {
			return nil, err
		}
		engine := mapreduce.New(cluster, fs)
		return func() (float64, error) {
			var err error
			c := measure(e, func(n int) {
				for i := 0; i < n; i++ {
					res, rerr := engine.Run(identityJob(input))
					if rerr != nil {
						err = rerr
						return
					}
					if rerr := fs.Remove(res.Output.Name); rerr != nil {
						err = rerr
					}
				}
			})
			return c.ns, err
		}, nil
	}
	serial, err := wall(1)
	if err != nil {
		return err
	}
	parallel, err := wall(0)
	if err != nil {
		return err
	}
	// Alternate the two and keep the fastest of each: the ratio of two
	// single readings swings with the host (0.7–1.5 seen on one commit).
	var s, p []float64
	for rep := 0; rep < 3; rep++ {
		v, err := serial()
		if err != nil {
			return err
		}
		s = append(s, v)
		if v, err = parallel(); err != nil {
			return err
		}
		p = append(p, v)
	}
	out.set("sim.parallel_speedup", ratio(slices.Min(s), slices.Min(p)))
	return nil
}

// probePlanner times core.OptimizeOperator per operator on statistics
// collected by a baseline run of conf.
func probePlanner(e *env, rt *core.Runtime, confs ...*core.IndexJobConf) (float64, error) {
	sp := e.tr.begin("probe core planner", "core", -1, nil)
	defer sp.end()
	var ops []*core.Operator
	for _, conf := range confs {
		conf.VarianceThreshold = varianceThreshold
		if err := rt.CollectStats(conf); err != nil {
			return 0, err
		}
		o, _ := conf.Operators()
		ops = append(ops, o...)
	}
	for _, op := range ops {
		if rt.Catalog.Get(op.Name()) == nil {
			return 0, fmt.Errorf("planner probe: no statistics for operator %s", op.Name())
		}
	}
	c := measure(e, func(n int) {
		for i := 0; i < n; i++ {
			op := ops[i%len(ops)]
			p := core.OptimizeOperator(op, core.HeadOp, rt.Catalog.Get(op.Name()), rt.Env, core.DefaultPlannerOptions())
			sink += len(p.Decisions)
		}
	})
	return c.ns / 1e3, nil
}

// probeIxclient times the index-client chain on one task context with
// the real cache at the workload's capacity, replaying the workload's
// key stream in arrival order.
func probeIxclient(e *env, cluster *sim.Cluster, acc index.Accessor, keys []string, capacity int, out metricSet) {
	sp := e.tr.begin("probe ixclient", "ixclient", -1, nil)
	defer sp.end()
	ctx := mapreduce.NewTaskContext(cluster, 0, 0, mapreduce.MapTask)
	cached := ixclient.New(acc, ixclient.Options{Op: "probe", CacheMode: ixclient.CacheReal, CacheCapacity: capacity})
	c := replay(e, keys, func(k string) { sink += len(cached.Lookup(ctx, k)) })
	out.set("ixclient.lookup_ns", c.ns)
	out.set("ixclient.lookup_allocs", c.allocs)

	direct := ixclient.New(acc, ixclient.Options{Op: "probe", CacheMode: ixclient.CacheOff})
	chain := replay(e, keys, func(k string) { sink += len(direct.Lookup(ctx, k)) })
	raw := replay(e, keys, func(k string) {
		v, _ := acc.Lookup(k) // the replays above already went through every key
		sink += len(v)
	})
	out.set("ixclient.chain_overhead_ns", chain.ns-raw.ns)

	batched := ixclient.New(acc, ixclient.Options{Op: "probe", CacheMode: ixclient.CacheReal, CacheCapacity: capacity, Batch: true})
	out.set("ixclient.batch_ns_per_key", replayBatches(e, keys, func(group []string) {
		sink += len(batched.LookupBatch(ctx, group))
	}))
}

// probeLRU times the lookup cache alone at the workload's capacity.
func probeLRU(e *env, keys []string, value string, capacity int, out metricSet) {
	sp := e.tr.begin("probe lru", "lru", -1, nil)
	defer sp.end()
	vals := []string{value}
	distinct := distinctKeys(keys)
	resident := distinct[:min(capacity, len(distinct))]

	full := lru.New(capacity)
	for _, k := range resident {
		full.Put(k, vals)
	}
	hit := replay(e, resident, func(k string) {
		v, _ := full.Get(k)
		sink += len(v)
	})
	out.set("lru.get_hit_ns", hit.ns)

	// Every Put of a non-resident key on a full cache evicts; cycling
	// through more distinct keys than the capacity keeps that true.
	fresh := make([]string, 2*capacity)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("evict-%08d", i)
	}
	evict := replay(e, fresh, func(k string) { full.Put(k, vals) })
	out.set("lru.put_evict_ns", evict.ns)

	cache := lru.New(capacity)
	stream := replay(e, keys, func(k string) {
		if _, ok := cache.Get(k); !ok {
			cache.Put(k, vals)
		}
	})
	hits, misses := cache.Stats()
	out.set("lru.replay_ns_per_op", stream.ns)
	out.set("lru.replay_hit_ratio", ratio(float64(hits), float64(hits+misses)))

	snap := measure(e, func(n int) {
		for i := 0; i < n; i++ {
			cache.Restore(cache.Snapshot())
		}
	})
	out.set("lru.snapshot_rollback_us", snap.ns/1e3)
}

// distinctKeys returns the stream's keys in first-arrival order.
func distinctKeys(keys []string) []string {
	seen := make(map[string]bool, len(keys))
	var out []string
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// probeKVStore times the store's read paths on the workload's key stream
// and its load path with the workload's value size.
func probeKVStore(e *env, cluster *sim.Cluster, store *kvstore.Store, keys []string, value string, out metricSet) error {
	sp := e.tr.begin("probe kvstore", "kvstore", -1, nil)
	defer sp.end()
	var err error
	c := replay(e, keys, func(k string) {
		v, lerr := store.Lookup(k)
		if lerr != nil {
			err = lerr
		}
		sink += len(v)
	})
	if store.FileBacked() {
		out.set("kvstore.frozen_lookup_ns", c.ns)
		return err
	}
	out.set("kvstore.lookup_ns", c.ns)
	out.set("kvstore.lookup_alloc_bytes", c.bytes)
	out.set("kvstore.lookup_allocs", c.allocs)

	out.set("kvstore.batch_lookup_ns_per_key", replayBatches(e, keys, func(group []string) {
		v, lerr := store.BatchLookup(group)
		if lerr != nil {
			err = lerr
		}
		sink += len(v)
	}))

	distinct := distinctKeys(keys)
	load := measure(e, func(n int) {
		for i := 0; i < n; i++ {
			s := kvstore.NewHash(cluster, "probe-load", 32, 3, 0.001)
			for _, k := range distinct {
				s.Put(k, value)
			}
			sink += s.Len()
		}
	})
	out.set("kvstore.load_ns_per_key", load.ns/float64(len(distinct)))
	return err
}

// probeBTree times the tree under the store on the store's key set.
func probeBTree(e *env, keys []string, value string, out metricSet) {
	sp := e.tr.begin("probe btree", "btree", -1, nil)
	defer sp.end()
	distinct := distinctKeys(keys)
	vals := []string{value}
	var tree *btree.Tree
	put := measure(e, func(n int) {
		for i := 0; i < n; i++ {
			tree = btree.New()
			for _, k := range distinct {
				tree.Put(k, vals)
			}
		}
	})
	out.set("btree.put_ns", put.ns/float64(len(distinct)))
	get := replay(e, keys, func(k string) {
		if _, ok := tree.Get(k); ok {
			sink++
		}
	})
	out.set("btree.get_ns", get.ns)
}

// probeFStore times the snapshot format on the workload's index: one
// file holding every distinct key with the workload's value.
func probeFStore(e *env, keys []string, value string, out metricSet) error {
	sp := e.tr.begin("probe fstore", "fstore", -1, nil)
	defer sp.end()
	distinct := distinctKeys(keys)
	path := filepath.Join(e.scratch, "probe.fst")
	defer os.Remove(path)
	userBytes := 0
	build := func() *fstore.Builder {
		b := fstore.NewBuilder()
		for _, k := range distinct {
			b.Add(k, 1, value)
		}
		return b
	}
	for _, k := range distinct {
		userBytes += len(k) + len(value)
	}
	var err error
	write := measure(e, func(n int) {
		for i := 0; i < n; i++ {
			if werr := build().WriteFile(path); werr != nil {
				err = werr
			}
		}
	})
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	out.set("fstore.write_mb_per_s", ratio(float64(info.Size())*1e3, write.ns))
	out.set("fstore.bytes_per_user_byte", ratio(float64(info.Size()), float64(userBytes)))

	open := measure(e, func(n int) {
		for i := 0; i < n; i++ {
			s, oerr := fstore.Open(path, fstore.Options{})
			if oerr != nil {
				err = oerr
				return
			}
			sink += s.Len()
			if cerr := s.Close(); cerr != nil {
				err = cerr
			}
		}
	})
	if err != nil {
		return err
	}
	out.set("fstore.open_ms", open.ns/1e6)

	snap, err := fstore.Open(path, fstore.Options{})
	if err != nil {
		return err
	}
	defer snap.Close()
	look := replay(e, keys, func(k string) {
		v, _, lerr := snap.Lookup(k)
		if lerr != nil {
			err = lerr
		}
		sink += len(v)
	})
	out.set("fstore.lookup_ns", look.ns)
	out.set("fstore.lookup_alloc_bytes", look.bytes)
	probe := replay(e, keys, func(k string) {
		if found, _ := snap.Probe(k); found {
			sink++
		}
	})
	out.set("fstore.probe_ns", probe.ns)
	return err
}

// schedTasks is a bag of tasks with durations pure in (task, node) and
// mixed locality preferences, like the scale-sweep experiment's.
func schedTasks(n, nodes int) []sim.Task {
	tasks := make([]sim.Task, n)
	for i := range tasks {
		i := i
		var pref []sim.NodeID
		switch i % 3 {
		case 0:
			pref = []sim.NodeID{sim.NodeID(i % nodes), sim.NodeID((i + 1) % nodes)}
		case 1:
			pref = []sim.NodeID{sim.NodeID((i * 7) % nodes)}
		}
		tasks[i] = sim.Task{
			Preferred: pref,
			Run: func(node sim.NodeID, _ float64) float64 {
				return 0.5 + math.Mod(float64(i)*1.37+float64(node)*0.61, 2.0)
			},
		}
	}
	return tasks
}

// bigPhase is the scheduler probe's size: 300,000 mixed-locality tasks
// on 10,000 nodes.
func bigPhase(e *env) (nodes, tasks int) {
	if e.tiny {
		return 100, 3000
	}
	return 10000, 300000
}

// probeSchedulerBig times Cluster.SchedulePhase at cluster scale.
func probeSchedulerBig(e *env, out metricSet) {
	sp := e.tr.begin("probe sim.SchedulePhase (big)", "sim", -1, nil)
	defer sp.end()
	nodes, n := bigPhase(e)
	tasks := schedTasks(n, nodes)
	c := measure(e, func(k int) {
		for i := 0; i < k; i++ {
			sink += schedCluster(nodes).SchedulePhase(tasks, 2).Waves
		}
	})
	out.set("sim.schedule_tasks_per_s", ratio(float64(n)*1e9, c.ns))
	out.set("sim.schedule_allocs_per_task", c.allocs/float64(n))
}

// probeSchedulerLease times SchedulePhaseLease with half the cluster's
// slots leased, as the job service grants them to one of two tenants.
func probeSchedulerLease(e *env, out metricSet) {
	sp := e.tr.begin("probe sim.SchedulePhaseLease", "sim", -1, nil)
	defer sp.end()
	nodes, n := bigPhase(e)
	tasks := schedTasks(n, nodes)
	slots := make([][]int32, nodes)
	for i := 0; i < nodes; i += 2 {
		slots[i] = []int32{0, 1}
	}
	lease := sim.NewLease(slots)
	c := measure(e, func(k int) {
		for i := 0; i < k; i++ {
			sink += schedCluster(nodes).SchedulePhaseLease(tasks, 2, lease, nil).Waves
		}
	})
	out.set("sim.schedule_lease_tasks_per_s", ratio(float64(n)*1e9, c.ns))
}

// probeSchedulerSmall times one phase at the job workloads' scale:
// 12 nodes, 100 tasks.
func probeSchedulerSmall(e *env, out metricSet) {
	sp := e.tr.begin("probe sim.SchedulePhase (small)", "sim", -1, nil)
	defer sp.end()
	cfg := sim.DefaultConfig()
	cfg.TaskStartup = 0.005
	cluster := sim.NewCluster(cfg)
	tasks := schedTasks(100, cfg.Nodes)
	c := measure(e, func(n int) {
		for i := 0; i < n; i++ {
			sink += cluster.SchedulePhase(tasks, cfg.MapSlotsPerNode).Waves
		}
	})
	out.set("sim.schedule_small_us_per_phase", c.ns/1e3)
}

// probeWAL times the journal alone: appends of a 64-byte payload with
// and without fsync, replay, and open.
func probeWAL(e *env, out metricSet) error {
	sp := e.tr.begin("probe wal", "wal", -1, nil)
	defer sp.end()
	payload := make([]byte, 64)
	appendCost := func(dir string, sync bool) (unitCost, error) {
		log, err := wal.Open(vfs.OS{}, dir, sync)
		if err != nil {
			return unitCost{}, err
		}
		c := measure(e, func(n int) {
			for i := 0; i < n; i++ {
				if aerr := log.Append(payload); aerr != nil {
					err = aerr
				}
			}
		})
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		return c, err
	}
	dir := filepath.Join(e.scratch, "probe-wal")
	defer os.RemoveAll(dir)
	plain, err := appendCost(dir, false)
	if err != nil {
		return err
	}
	out.set("wal.append_ns", plain.ns)

	syncDir := filepath.Join(e.scratch, "probe-wal-sync")
	defer os.RemoveAll(syncDir)
	synced, err := appendCost(syncDir, true)
	if err != nil {
		return err
	}
	out.set("wal.append_sync_us", synced.ns/1e3)

	// Replay and open work on the journal the unsynced appends left.
	_, journal, _, _, err := dirBytes(dir)
	if err != nil {
		return err
	}
	replay := measure(e, func(n int) {
		for i := 0; i < n; i++ {
			recs, _, rerr := wal.Replay(vfs.OS{}, dir)
			if rerr != nil {
				err = rerr
			}
			sink += len(recs)
		}
	})
	out.set("wal.replay_mb_per_s", ratio(float64(journal)*1e3, replay.ns))
	open := measure(e, func(n int) {
		for i := 0; i < n; i++ {
			log, oerr := wal.Open(vfs.OS{}, dir, false)
			if oerr != nil {
				err = oerr
				return
			}
			if cerr := log.Close(); cerr != nil {
				err = cerr
			}
		}
	})
	out.set("wal.open_ms", open.ns/1e6)
	return err
}

// probeObsTrace pins the cost of the program's own virtual-time tracing:
// the same ops with engine.Trace set against nil.
func probeObsTrace(e *env, w *synWorld, out metricSet) error {
	sp := e.tr.begin("probe obs trace on/off", "obs", -1, nil)
	defer sp.end()
	cycle := func() (float64, error) {
		m := meter{probe: e.host}
		for i := range strategies {
			if res := w.op(i, &opCtx{m: &m, id: -1}); res.err != nil {
				return 0, res.err
			}
		}
		return m.wall.Seconds() * hostSpeed(m.host), nil
	}
	var off, on []float64
	for rep := 0; rep < 3; rep++ {
		w.l.engine.Trace = nil
		d, err := cycle()
		if err != nil {
			return err
		}
		off = append(off, d)
		w.l.engine.Trace = obs.NewTrace()
		d, err = cycle()
		w.l.engine.Trace = nil
		if err != nil {
			return err
		}
		on = append(on, d)
	}
	// The fastest repetition of each: a neighbour's burst only ever slows
	// a repetition down.
	out.set("obs.trace_on_overhead_share", 1-ratio(slices.Min(off), slices.Min(on)))
	return nil
}
