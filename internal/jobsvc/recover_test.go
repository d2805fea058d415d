package jobsvc

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"efind/internal/adaptix"
	"efind/internal/chaos"
	"efind/internal/core"
	"efind/internal/index"
	"efind/internal/ixclient"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/vfs"
	"efind/internal/wal"
)

// denv extends env with the durable world: a buildable adaptive index,
// the shared cache pool, and a chaos plan with outages that make the
// retry backoff ladder matter. Two denvs built with the same parameters
// are bit-identical worlds — the property the recovery sweep rests on.
type denv struct {
	*env
	reg  *adaptix.Registry
	bix  *adaptix.Buildable
	pool *ixclient.Pool
	plan *chaos.Plan
}

func newDurableEnv(t testing.TB, parallelism int) *denv {
	t.Helper()
	e := newEnv(t, parallelism)
	reg := adaptix.NewRegistry()
	store := kvstore.NewHash(e.cluster, "bix", 16, 3, 0.0008)
	bix, err := adaptix.New(adaptix.Config{
		Name:   "bix",
		Source: e.input,
		Extract: func(key, value string) []index.BuildEntry {
			fields := strings.Fields(value)
			ik := fields[len(fields)-1]
			return []index.BuildEntry{{Key: ik, Value: "ix(" + ik + ")"}}
		},
		Store:     store,
		Registry:  reg,
		ScanTime:  5e-4,
		BuildTime: 2e-5,
		OfferRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The optimizer needs catalog statistics to choose the Build
	// strategy; both the original and every recovered environment collect
	// them identically before the service runs.
	if err := e.rt.CollectStats(e.buildConf("bld-stats", bix, core.ModeBaseline)); err != nil {
		t.Fatal(err)
	}
	plan := chaos.MustNew(chaos.Config{
		Outages: []chaos.Outage{
			{Index: "kv", Partition: -1, From: 0.02, Until: 0.12},
			{Index: "kv", Partition: -1, From: 50.05, Until: 50.15},
		},
	}, 6)
	return &denv{env: e, reg: reg, bix: bix, pool: ixclient.NewPool(0), plan: plan}
}

// buildConf is a head-operator job over the buildable index: runs under
// ModeOptimized piggyback index construction onto their scans.
func (e *env) buildConf(name string, bix *adaptix.Buildable, mode core.Mode) *core.IndexJobConf {
	op := core.NewOperator("op-bld",
		func(in core.Pair) core.PreResult {
			fields := strings.Fields(in.Value)
			return core.PreResult{Pair: in, Keys: [][]string{{fields[len(fields)-1]}}}
		},
		func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			joined := "none"
			if len(results) > 0 && len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				joined = strings.Join(results[0][0].Values, ",")
			}
			emit(core.Pair{Key: pair.Key, Value: pair.Value + " => " + joined})
		})
	op.AddIndex(bix)
	conf := &core.IndexJobConf{
		Name:      name,
		Input:     e.input,
		Mode:      mode,
		NumReduce: 4,
		Mapper:    func(_ *mapreduce.TaskContext, in core.Pair, emit core.Emit) { emit(in) },
		Reducer:   mapreduce.IdentityReduce,
	}
	conf.AddHeadIndexOperator(op)
	return conf
}

// retryConf is conf plus a retry policy whose jittered backoff ladder
// rides out the chaos outage windows. Seed stays 0: durable runs derive
// it from (BackoffSalt, submission index) and journal it, which is what
// the salt-regression test exercises.
func (e *env) retryConf(name string, mode core.Mode) *core.IndexJobConf {
	conf := e.conf(name, mode)
	conf.Retry = core.RetryPolicy{Max: 6, Backoff: 0.01, Factor: 2, Cap: 0.05, Jitter: 0.5}
	return conf
}

// durableTrace is the crash-sweep admission trace: 2 tenants × 4 jobs in
// two waves. Wave one holds the adaptive build job and an outage-riding
// lookup job; the gap to wave two is a quiescent point, so a checkpoint
// lands mid-trace and the sweep exercises crash points before, at, and
// after it. Every conf uses a distinct operator name: the shared catalog
// is keyed by operator, and a checkpoint-decided job that never re-runs
// must not have been feeding statistics a re-run job would then miss.
func durableTrace(e *denv) ([]TenantConfig, []Submission) {
	tenants := []TenantConfig{
		{Name: "alpha", Weight: 2, MaxInFlight: 2, QueueCap: 4},
		{Name: "beta", Weight: 1, MaxInFlight: 2, QueueCap: 4},
	}
	subs := []Submission{
		{Tenant: "alpha", At: 0, Conf: e.buildConf("bld", e.bix, core.ModeOptimized)},
		{Tenant: "beta", At: 0, Conf: e.retryConf("b1", core.ModeCache)},
		{Tenant: "alpha", At: 50, Conf: e.retryConf("a2", core.ModeCache)},
		{Tenant: "beta", At: 50.2, Conf: e.conf("b2", core.ModeDynamic)},
	}
	return tenants, subs
}

func durability(dir string, e *denv, salt int64) *Durability {
	return &Durability{Dir: dir, Registry: e.reg, CheckpointEvery: 1, BackoffSalt: salt}
}

// runDurableRef runs the reference durable trace into dir and returns
// the statuses plus the registry fingerprint at completion.
func runDurableRef(t testing.TB, parallelism int, dir string, salt int64) ([]JobStatus, string) {
	t.Helper()
	e := newDurableEnv(t, parallelism)
	tenants, subs := durableTrace(e)
	svc, err := New(e.rt, tenants, Options{SharedCache: e.pool, Chaos: e.plan, Durable: durability(dir, e, salt)})
	if err != nil {
		t.Fatal(err)
	}
	statuses := svc.Run(subs)
	if err := svc.DurableErr(); err != nil {
		t.Fatalf("reference run durability error: %v", err)
	}
	for i, st := range statuses {
		if st.State != JobCompleted {
			t.Fatalf("reference job %d (%s) = %v (err %v, reason %q)", i, st.ID, st.State, st.Err, st.Reason)
		}
		if st.OutputFP == 0 {
			t.Fatalf("reference job %d has no output fingerprint", i)
		}
	}
	if cov, total := e.reg.CoveredSplits("bix"); len(cov) == 0 || len(cov) >= total {
		t.Fatalf("build job should leave partial coverage, got %d/%d — the trace no longer exercises build recovery", len(cov), total)
	}
	return statuses, e.reg.Fingerprint()
}

// recoverAndRun rebuilds the deterministic world, recovers from dir, and
// re-runs the trace, returning the statuses, the report, and the final
// registry fingerprint.
func recoverAndRun(t *testing.T, parallelism int, dir string, salt int64) ([]JobStatus, *RecoveryReport, string) {
	t.Helper()
	e := newDurableEnv(t, parallelism)
	tenants, subs := durableTrace(e)
	svc, rep, err := Recover(e.rt, tenants, Options{SharedCache: e.pool, Chaos: e.plan, Durable: durability(dir, e, salt)})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := e.bix.Materialize(); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	statuses := svc.Run(subs)
	if err := svc.DurableErr(); err != nil {
		t.Fatalf("recovered run durability error: %v", err)
	}
	return statuses, rep, e.reg.Fingerprint()
}

// compareRuns asserts a recovered run is bit-identical to the reference:
// every scheduling time, serve charge, counter, and output fingerprint.
func compareRuns(t *testing.T, ref, got []JobStatus, label string) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d statuses, want %d", label, len(got), len(ref))
	}
	for i := range ref {
		r, g := ref[i], got[i]
		if r.State != g.State || r.ID != g.ID || r.Reason != g.Reason {
			t.Fatalf("%s job %d identity diverges: %v/%q/%q vs %v/%q/%q",
				label, i, g.State, g.ID, g.Reason, r.State, r.ID, r.Reason)
		}
		if r.Submitted != g.Submitted || r.Admitted != g.Admitted || r.Finished != g.Finished {
			t.Fatalf("%s job %d times diverge: [%g %g %g] vs [%g %g %g]",
				label, i, g.Submitted, g.Admitted, g.Finished, r.Submitted, r.Admitted, r.Finished)
		}
		if r.ServeSeconds != g.ServeSeconds {
			t.Fatalf("%s job %d serve diverges: %g vs %g", label, i, g.ServeSeconds, r.ServeSeconds)
		}
		if r.OutputFP != g.OutputFP {
			t.Fatalf("%s job %d output fingerprint diverges: %016x vs %016x", label, i, g.OutputFP, r.OutputFP)
		}
		rerr, gerr := "", ""
		if r.Err != nil {
			rerr = r.Err.Error()
		}
		if g.Err != nil {
			gerr = g.Err.Error()
		}
		if rerr != gerr {
			t.Fatalf("%s job %d error diverges: %q vs %q", label, i, gerr, rerr)
		}
		if (r.Result == nil) != (g.Result == nil) {
			t.Fatalf("%s job %d result presence diverges", label, i)
		}
		if r.Result != nil {
			if r.Result.VTime != g.Result.VTime || r.Result.JobsRun != g.Result.JobsRun ||
				r.Result.Replanned != g.Result.Replanned || r.Result.ReplanPhase != g.Result.ReplanPhase {
				t.Fatalf("%s job %d result scalars diverge: %+v vs %+v", label, i, g.Result, r.Result)
			}
			if !reflect.DeepEqual(r.Result.Counters, g.Result.Counters) {
				t.Fatalf("%s job %d counters diverge:\nref: %v\ngot: %v", label, i, r.Result.Counters, g.Result.Counters)
			}
			if !reflect.DeepEqual(r.Result.IndexErrors, g.Result.IndexErrors) {
				t.Fatalf("%s job %d index errors diverge", label, i)
			}
			if !g.Recovered && g.Result.Output == nil {
				t.Fatalf("%s job %d re-ran but has no output file", label, i)
			}
		}
	}
}

// TestRecoverySweepKillAtEverySerialPoint is the durability pin: for
// every journal record k, it builds the byte-accurate crash image of a
// coordinator that died immediately after appending record k (odd k
// additionally get a torn partial frame at the cut), recovers a fresh
// coordinator from the image in a rebuilt deterministic world, re-runs
// the trace, and requires the result to be bit-identical to the
// uninterrupted reference — statuses, virtual times, counters, output
// fingerprints, registry fingerprint — with zero divergences between
// re-derived decisions and the journaled ones. Run under the serial and
// parallel executors.
func TestRecoverySweepKillAtEverySerialPoint(t *testing.T) {
	for _, parallelism := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallel=%d", parallelism), func(t *testing.T) {
			refDir := filepath.Join(t.TempDir(), "wal")
			ref, refRegFP := runDurableRef(t, parallelism, refDir, 7)
			fs := vfs.OS{}
			n, err := wal.CountRecords(fs, refDir)
			if err != nil {
				t.Fatal(err)
			}
			if n < 10 {
				t.Fatalf("reference journal has only %d records — the sweep would prove little", n)
			}
			lines, err := DescribeJournal(refDir)
			if err != nil || len(lines) != n {
				t.Fatalf("DescribeJournal: %d lines, err %v, want %d", len(lines), err, n)
			}
			ckpts := 0
			for _, l := range lines {
				if strings.Contains(l, "ckpt") {
					ckpts++
				}
			}
			if ckpts < 2 {
				t.Fatalf("reference journal holds %d checkpoints, want a mid-trace one plus the final — trace waves broken", ckpts)
			}

			for k := 0; k <= n; k++ {
				var tornExtra []byte
				if k%2 == 1 {
					tornExtra = []byte{0x1f, 0xaa, 0x03} // partial frame at the cut
				}
				crashDir := filepath.Join(t.TempDir(), fmt.Sprintf("crash-%03d", k))
				if err := wal.CrashImage(fs, refDir, crashDir, k, tornExtra); err != nil {
					t.Fatalf("CrashImage(k=%d): %v", k, err)
				}
				got, rep, regFP := recoverAndRun(t, parallelism, crashDir, 7)
				if tornExtra != nil && !rep.TornTail {
					t.Fatalf("k=%d: torn tail not detected", k)
				}
				if len(rep.Divergences) != 0 {
					t.Fatalf("k=%d: recovered run diverged from its journal: %v", k, rep.Divergences)
				}
				compareRuns(t, ref, got, fmt.Sprintf("k=%d", k))
				if regFP != refRegFP {
					t.Fatalf("k=%d: registry fingerprint diverges: %s vs %s", k, regFP, refRegFP)
				}
				if k == n && rep.DecidedJobs != len(ref) {
					t.Fatalf("k=%d (full journal): %d decided jobs restored, want all %d", k, rep.DecidedJobs, len(ref))
				}
			}
		})
	}
}

// TestRecoverUnderDifferentBackoffSaltIsIdentical pins the journaled
// backoff seeds: a coordinator recovered with a different BackoffSalt
// must still replay the original run's jitter ladder (the seeds come
// from the journal's admit records, not the salt), staying bit-identical.
func TestRecoverUnderDifferentBackoffSaltIsIdentical(t *testing.T) {
	refDir := filepath.Join(t.TempDir(), "wal")
	ref, refRegFP := runDurableRef(t, 1, refDir, 7)
	fs := vfs.OS{}
	n, err := wal.CountRecords(fs, refDir)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-trace, past the first wave's admits (their seeds are
	// journaled) but before completion of the second.
	k := n * 3 / 4
	crashDir := filepath.Join(t.TempDir(), "crash")
	if err := wal.CrashImage(fs, refDir, crashDir, k, nil); err != nil {
		t.Fatal(err)
	}
	got, rep, regFP := recoverAndRun(t, 1, crashDir, 9999)
	if len(rep.Divergences) != 0 {
		t.Fatalf("recovered run diverged under a different salt: %v", rep.Divergences)
	}
	compareRuns(t, ref, got, "salt=9999")
	if regFP != refRegFP {
		t.Fatalf("registry fingerprint diverges: %s vs %s", regFP, refRegFP)
	}

	// Control: a fresh (non-recovered) run under the other salt derives
	// different seeds, so at least one backoff-dependent time diverges —
	// proving the identity above came from the journaled seeds.
	otherDir := filepath.Join(t.TempDir(), "other")
	other, _ := runDurableRef(t, 1, otherDir, 9999)
	same := true
	for i := range ref {
		if ref[i].Finished != other[i].Finished || ref[i].ServeSeconds != other[i].ServeSeconds {
			same = false
		}
	}
	if same {
		t.Fatal("different BackoffSalt produced identical runs — jitter ladder not exercised, the salt test is vacuous")
	}
}

// TestRecoverFallsBackPastCorruptCheckpoint damages the newest
// checkpoint in a crash image; Recover must skip it, fall back (to an
// older checkpoint or none), and still reproduce the reference run.
func TestRecoverFallsBackPastCorruptCheckpoint(t *testing.T) {
	refDir := filepath.Join(t.TempDir(), "wal")
	ref, refRegFP := runDurableRef(t, 1, refDir, 7)
	fs := vfs.OS{}
	n, err := wal.CountRecords(fs, refDir)
	if err != nil {
		t.Fatal(err)
	}
	crashDir := filepath.Join(t.TempDir(), "crash")
	if err := wal.CrashImage(fs, refDir, crashDir, n, nil); err != nil {
		t.Fatal(err)
	}
	// Find the newest checkpoint file and bit-flip its middle.
	names, err := fs.ReadDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, name := range names {
		if strings.HasPrefix(name, "ckpt-") {
			newest = name
		}
	}
	if newest == "" {
		t.Fatal("no checkpoint in the crash image")
	}
	path := filepath.Join(crashDir, newest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, rep, regFP := recoverAndRun(t, 1, crashDir, 7)
	if len(rep.CheckpointsSkipped) == 0 || !strings.Contains(rep.CheckpointsSkipped[0], newest) {
		t.Fatalf("CheckpointsSkipped = %v, want the damaged %s first", rep.CheckpointsSkipped, newest)
	}
	if rep.Checkpoint == newest {
		t.Fatalf("recovery claims to have used the damaged checkpoint %s", newest)
	}
	if len(rep.Divergences) != 0 {
		t.Fatalf("divergences after checkpoint fallback: %v", rep.Divergences)
	}
	compareRuns(t, ref, got, "ckpt-fallback")
	if regFP != refRegFP {
		t.Fatalf("registry fingerprint diverges: %s vs %s", regFP, refRegFP)
	}
}

// TestDurabilityFaultsDegradeGracefully injects storage faults into the
// live journal and checkpoint writes: the run must complete with the
// exact same outcomes as a fault-free durable run, reporting the failure
// via DurableErr instead of failing jobs.
func TestDurabilityFaultsDegradeGracefully(t *testing.T) {
	refDir := filepath.Join(t.TempDir(), "wal")
	ref, _ := runDurableRef(t, 1, refDir, 7)

	for _, fault := range []chaos.FileFault{
		{Kind: chaos.TornWrite, Match: ".wal", Nth: 5},
		{Kind: chaos.NoSpace, Match: ".wal", Nth: 3},
		{Kind: chaos.RenameFail, Match: "ckpt-000001.fst"},
	} {
		t.Run(fault.Kind.String(), func(t *testing.T) {
			e := newDurableEnv(t, 1)
			tenants, subs := durableTrace(e)
			ffs := chaos.NewFaultFS(vfs.OS{}, fault)
			d := durability(filepath.Join(t.TempDir(), "wal"), e, 7)
			d.FS = ffs
			svc, err := New(e.rt, tenants, Options{SharedCache: e.pool, Chaos: e.plan, Durable: d})
			if err != nil {
				t.Fatal(err)
			}
			statuses := svc.Run(subs)
			if len(ffs.Injected()) == 0 {
				t.Fatalf("fault %v never fired — schedule no longer matches the write sequence", fault)
			}
			if fault.Kind == chaos.RenameFail {
				// A failed checkpoint is retried at the next quiescent
				// point; journaling itself stays healthy.
				if err := svc.DurableErr(); err == nil {
					t.Fatal("checkpoint failure should be reported via DurableErr")
				}
			} else if err := svc.DurableErr(); err == nil {
				t.Fatal("journal write failure should be reported via DurableErr")
			}
			compareRuns(t, ref, statuses, "faulted")
		})
	}
}

// TestSeededFaultMatrixRecovery is the CI fault-matrix leg: a seeded
// schedule of storage faults hits the reference run's journal writes;
// whatever survived on disk, a recovered coordinator must reproduce the
// reference outcomes exactly.
func TestSeededFaultMatrixRecovery(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("EFIND_FAULT_SEED"); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &seed); err != nil {
			t.Fatalf("bad EFIND_FAULT_SEED %q: %v", s, err)
		}
	}
	refDir := filepath.Join(t.TempDir(), "wal")
	ref, refRegFP := runDurableRef(t, 1, refDir, 7)

	// The faulted run: same world, seeded write-path damage.
	e := newDurableEnv(t, 1)
	tenants, subs := durableTrace(e)
	ffs := chaos.NewFaultFS(vfs.OS{}, chaos.SeededFaults(seed, 3, "")...)
	faultDir := filepath.Join(t.TempDir(), "faulted")
	d := durability(faultDir, e, 7)
	d.FS = ffs
	svc, err := New(e.rt, tenants, Options{SharedCache: e.pool, Chaos: e.plan, Durable: d})
	if err != nil {
		t.Fatal(err)
	}
	faulted := svc.Run(subs)
	compareRuns(t, ref, faulted, fmt.Sprintf("faulted seed=%d", seed))
	t.Logf("seed %d injected: %v", seed, ffs.Injected())

	// Recover from whatever the faults left behind. A torn tail is
	// repaired; a truncated journal just means more re-execution.
	got, rep, regFP := recoverAndRun(t, 1, faultDir, 7)
	if len(rep.Divergences) != 0 {
		t.Fatalf("seed %d: divergences: %v", seed, rep.Divergences)
	}
	compareRuns(t, ref, got, fmt.Sprintf("recovered seed=%d", seed))
	if regFP != refRegFP {
		t.Fatalf("seed %d: registry fingerprint diverges", seed)
	}
}
