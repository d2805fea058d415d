package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"efind/internal/core"
	"efind/internal/ixclient"
	"efind/internal/jobsvc"
	"efind/internal/vfs"
	"efind/internal/wal"
)

// svcSizes shapes the durable-service workload.
type svcSizes struct {
	syn synSizes
	// recoverEvery samples coordinator recovery after every n-th session.
	recoverEvery int
}

func svcSizesFor(tiny bool) svcSizes {
	if tiny {
		return svcSizes{syn: synSizes{records: 400, keyDomain: 200, valueSize: 256, indexSize: 1024, ops: 5, fileBacked: true}, recoverEvery: 5}
	}
	return svcSizes{syn: synSizes{records: 2000, keyDomain: 1000, valueSize: 256, indexSize: 1024, ops: 35, fileBacked: true}, recoverEvery: 5}
}

// A session is 2 tenants (weights 2:1) × 2 ModeCache jobs. The second
// wave arrives svcWaveGap virtual seconds after the first — long after
// it has drained — so the service passes a quiescent point mid-session
// and a checkpoint precedes the crash point of the recovery samples.
const (
	svcJobsPerSession = 4
	svcWaveGap        = 10.0
)

var svcTenants = []jobsvc.TenantConfig{
	{Name: "alpha", Weight: 2},
	{Name: "beta", Weight: 1},
}

// svcWorld is the storage-and-service workload: a file-backed synthetic
// join (DFS chunks and index partitions served from mmap'd fstore
// snapshots) run through the multi-tenant job service with a synced
// write-ahead journal and checkpoints. The only workload where jobsvc
// admission and leases, WAL append+fsync, checkpoint serialisation and
// fstore writes run, beside fstore reads.
type svcWorld struct {
	e    *env
	sz   svcSizes
	syn  *synWorld
	next int // session counter, names the journal directories
}

func setupSvc(e *env, sz svcSizes) (*svcWorld, error) {
	syn, err := setupSyn(e, sz.syn)
	if err != nil {
		return nil, err
	}
	return &svcWorld{e: e, sz: sz, syn: syn}, nil
}

func (w *svcWorld) label(int) string { return "session" }

// subs builds the session's admission trace against one world.
func svcSubs(syn *synWorld) []jobsvc.Submission {
	var subs []jobsvc.Submission
	for wave := 0; wave < 2; wave++ {
		for _, t := range svcTenants {
			conf := syn.conf(fmt.Sprintf("svc-%s-%d", t.Name, wave))
			conf.Mode = core.ModeCache
			conf.VarianceThreshold = varianceThreshold
			subs = append(subs, jobsvc.Submission{Tenant: t.Name, At: svcWaveGap * float64(wave), Conf: conf})
		}
	}
	return subs
}

// durability is the session's journal configuration; the traced run
// threads its counting file system through the Durability.FS seam.
func (w *svcWorld) durability(dir string) *jobsvc.Durability {
	d := &jobsvc.Durability{Dir: dir, Sync: true, CheckpointEvery: 2}
	if w.e.dec != nil {
		d.FS = w.e.dec.fs
	}
	return d
}

// sessionOutcome is one executed session.
type sessionOutcome struct {
	statuses []jobsvc.JobStatus
	svc      *jobsvc.Service
	pool     *ixclient.Pool
	wall     time.Duration
}

// runSession executes one admission trace through a fresh service; the
// construction (journal directory, hello record) is part of the session.
func runSession(c *opCtx, syn *synWorld, durable *jobsvc.Durability) (*sessionOutcome, error) {
	out := &sessionOutcome{pool: ixclient.NewPool(0)}
	subs := svcSubs(syn)
	c.m.start()
	sp := c.tr.begin("jobsvc.New", "jobsvc", c.id, c.sp)
	svc, err := jobsvc.New(syn.l.rt, svcTenants, jobsvc.Options{SharedCache: out.pool, Durable: durable})
	sp.end()
	if err != nil {
		c.m.stop()
		return nil, err
	}
	sp = c.tr.begin("Service.Run", "jobsvc", c.id, c.sp)
	out.statuses = svc.Run(subs)
	sp.end()
	out.wall = c.m.stop()
	out.svc = svc
	return out, nil
}

// checkSession verifies a session: every job completed, durability never
// degraded, every output matches the nested-loop reference. Outputs are
// removed afterwards. It returns the session's virtual makespan: the two
// waves' makespans added up (the idle gap between them is a constant of
// the trace, not of the program).
func checkSession(syn *synWorld, out *sessionOutcome) (vtime float64, d digest, err error) {
	var waveEnd [2]float64
	for i, st := range out.statuses {
		if st.State != jobsvc.JobCompleted {
			err = fmt.Errorf("job %s/%s %s: %s%v", st.Tenant, st.Name, st.State, st.Reason, st.Err)
			continue
		}
		if wave := i / len(svcTenants); st.Finished > waveEnd[wave] {
			waveEnd[wave] = st.Finished
		}
		if st.Result == nil || st.Result.Output == nil {
			continue // restored from a checkpoint: no output file, OutputFP is compared instead
		}
		jd, derr := digestFile(st.Result.Output)
		switch {
		case derr != nil:
			err = derr
		case jd != syn.ref:
			err = fmt.Errorf("job %s/%s output digest %v, reference %v", st.Tenant, st.Name, jd, syn.ref)
		}
		d.Records += jd.Records
		d.Bytes += jd.Bytes
		d.Sum += jd.Sum
		if rerr := syn.l.fs.Remove(st.Result.Output.Name); rerr != nil && err == nil {
			err = rerr
		}
	}
	if derr := out.svc.DurableErr(); derr != nil && err == nil {
		err = fmt.Errorf("durability degraded: %w", derr)
	}
	return waveEnd[0] + (waveEnd[1] - svcWaveGap), d, err
}

// dirBytes sums the sizes of the files under dir, by name prefix.
func dirBytes(dir string) (total, journal, checkpoints int64, nCheckpoints int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, 0, 0, err
		}
		total += info.Size()
		switch filepath.Ext(e.Name()) {
		case ".wal":
			journal += info.Size()
		case ".fst":
			checkpoints += info.Size()
			nCheckpoints++
		}
	}
	return total, journal, checkpoints, nCheckpoints, nil
}

func (w *svcWorld) op(i int, c *opCtx) opResult {
	w.next++
	dir := filepath.Join(w.e.scratch, fmt.Sprintf("journal-%04d", w.next))
	res := opResult{records: svcJobsPerSession * w.syn.input.Records(), counts: map[string]float64{}, samples: map[string][]float64{}}
	var fs0 fsTally
	if w.e.dec != nil {
		fs0 = w.e.dec.fs.tally()
	}
	out, err := runSession(c, w.syn, w.durability(dir))
	if err != nil {
		res.err = err
		return res
	}
	res.wall = out.wall
	if w.e.dec != nil {
		t := w.e.dec.fs.tally().sub(fs0)
		c.sp.aggregate("vfs calls (Durability.FS)", "vfs", c.id, t.calls, t.busy)
		res.counts["vfs_writes"] = float64(t.writes)
		res.counts["vfs_bytes"] = float64(t.bytes)
		res.counts["vfs_fsyncs"] = float64(t.fsyncs)
		res.counts["vfs_renames"] = float64(t.renames)
		res.samples["vfs_busy_ms"] = []float64{ms(t.busy)}
	}
	res.vtime, res.digest, res.err = checkSession(w.syn, out)

	total, journal, ckpt, nCkpt, derr := dirBytes(dir)
	if derr != nil && res.err == nil {
		res.err = derr
	}
	res.counts["jobs"] = svcJobsPerSession
	res.counts["sessions"] = 1
	res.counts["durable_bytes"] = float64(total)
	res.counts["journal_bytes"] = float64(journal)
	res.counts["journal_records"] = float64(out.svc.JournalRecords())
	res.counts["checkpoint_bytes"] = float64(ckpt)
	res.counts["checkpoints"] = float64(nCkpt)
	hits, misses := out.pool.Stats()
	res.counts["pool_hits"] = float64(hits)
	res.counts["pool_probes"] = float64(hits + misses)

	if res.err == nil && (i+1)%w.sz.recoverEvery == 0 {
		res.err = w.recover(c, dir, out, &res)
	}
	if rerr := os.RemoveAll(dir); rerr != nil && res.err == nil {
		res.err = rerr
	}
	return res
}

// recover samples coordinator recovery: cut a byte-exact crash image at
// 60 % of the session's journal with a torn frame appended, rebuild the
// deterministic world from the seed, Recover and re-run the same trace.
// The recovered statuses must equal the uninterrupted session's.
func (w *svcWorld) recover(c *opCtx, dir string, ref *sessionOutcome, res *opResult) error {
	sp := c.tr.begin("recovery sample", "jobsvc", c.id, c.sp)
	defer sp.end()
	nrec := ref.svc.JournalRecords()
	crashDir := dir + "-crash"
	defer os.RemoveAll(crashDir)
	if err := wal.CrashImage(vfs.OS{}, dir, crashDir, nrec*6/10, []byte{0x1f, 0xaa, 0x03}); err != nil {
		return err
	}

	// The service journals scheduling state, not the simulated world:
	// the caller rebuilds the same world before Recover.
	worldSp := c.tr.begin("rebuild world", "bench", c.id, sp)
	e2 := *w.e
	e2.dec = nil // the recovered session is checked, not attributed
	e2.scratch = dir + "-world"
	defer os.RemoveAll(e2.scratch)
	syn2, err := setupSyn(&e2, w.sz.syn)
	worldSp.end()
	if err != nil {
		return err
	}
	defer syn2.close()

	pool := ixclient.NewPool(0)
	d := w.durability(crashDir)
	t0 := time.Now()
	rsp := c.tr.begin("jobsvc.Recover", "jobsvc", c.id, sp)
	svc, rep, err := jobsvc.Recover(syn2.l.rt, svcTenants, jobsvc.Options{SharedCache: pool, Durable: d})
	rsp.end()
	if err != nil {
		return err
	}
	replay := time.Since(t0)
	rsp = c.tr.begin("Service.Run (recovered)", "jobsvc", c.id, sp)
	statuses := svc.Run(svcSubs(syn2))
	rsp.end()
	total := time.Since(t0)

	res.samples["recover_ms"] = append(res.samples["recover_ms"], ms(total))
	res.samples["recover_replay_ms"] = append(res.samples["recover_replay_ms"], ms(replay))
	res.samples["recover_rerun_ms"] = append(res.samples["recover_rerun_ms"], ms(total-replay))
	res.counts["recover_decided"] += float64(rep.DecidedJobs)
	res.counts["recover_jobs"] += svcJobsPerSession

	switch {
	case len(rep.Divergences) != 0:
		return fmt.Errorf("recovery diverged from the journal: %v", rep.Divergences)
	case !rep.TornTail:
		return fmt.Errorf("recovery did not see the crash image's torn frame")
	case rep.DecidedJobs == 0:
		return fmt.Errorf("recovery restored no decided job: no checkpoint preceded the crash point")
	}
	if _, _, err := checkSession(syn2, &sessionOutcome{statuses: statuses, svc: svc}); err != nil {
		return fmt.Errorf("recovered session: %w", err)
	}
	return compareStatuses(ref.statuses, statuses)
}

// compareStatuses enforces the recovery identity: every scheduling
// outcome of the recovered run — state, identity, times, charged serve
// time, output fingerprint, counters — equals the uninterrupted run's.
func compareStatuses(ref, got []jobsvc.JobStatus) error {
	if len(ref) != len(got) {
		return fmt.Errorf("recovered run returned %d statuses, reference %d", len(got), len(ref))
	}
	for i := range ref {
		r, g := ref[i], got[i]
		switch {
		case r.State != g.State, r.ID != g.ID, r.Tenant != g.Tenant, r.Name != g.Name:
			return fmt.Errorf("job %d identity diverged: %s/%s %s (%s) vs %s/%s %s (%s)", i, g.Tenant, g.Name, g.State, g.ID, r.Tenant, r.Name, r.State, r.ID)
		case r.Submitted != g.Submitted, r.Admitted != g.Admitted, r.Finished != g.Finished:
			return fmt.Errorf("job %d (%s) times diverged: admitted %v/%v finished %v/%v", i, r.ID, g.Admitted, r.Admitted, g.Finished, r.Finished)
		case r.ServeSeconds != g.ServeSeconds:
			return fmt.Errorf("job %d (%s) serve charge diverged: %v vs %v", i, r.ID, g.ServeSeconds, r.ServeSeconds)
		case r.OutputFP != g.OutputFP:
			return fmt.Errorf("job %d (%s) output fingerprint diverged: %#x vs %#x", i, r.ID, g.OutputFP, r.OutputFP)
		case r.Result != nil && g.Result != nil && !reflect.DeepEqual(r.Result.Counters, g.Result.Counters):
			return fmt.Errorf("job %d (%s) counters diverged", i, r.ID)
		}
	}
	return nil
}

func (w *svcWorld) close() error { return w.syn.close() }

var svcDurable = &workloadSpec{
	name:   "svc_durable",
	why:    "job service over file-backed storage with a synced journal: the only workload running jobsvc leases, WAL fsync, checkpoints and fstore writes beside fstore reads",
	cycle:  1,
	ops:    func(tiny bool) int { return svcSizesFor(tiny).syn.ops },
	setup:  func(e *env) (world, error) { return setupSvc(e, svcSizesFor(e.tiny)) },
	layers: svcLayers,
}
