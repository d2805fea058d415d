package jobsvc

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/ixclient"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// env is a small deterministic world: a 6-node cluster, a loaded KV
// index, and an input whose lookup keys repeat within and across chunks.
// Building two envs with the same parameters yields bit-identical
// worlds, which the identity tests rely on.
type env struct {
	cluster *sim.Cluster
	fs      *dfs.FS
	rt      *core.Runtime
	store   *kvstore.Store
	input   *dfs.File
}

func newEnv(tb testing.TB, parallelism int) *env {
	tb.Helper()
	cfg := sim.DefaultConfig()
	cfg.Nodes = 6
	cfg.MapSlotsPerNode = 2
	cfg.ReduceSlotsPerNode = 2
	cfg.TaskStartup = 0.01
	cfg.Parallelism = parallelism
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 2 << 10
	engine := mapreduce.New(cluster, fs)
	rt := core.NewRuntime(engine)

	store := kvstore.NewHash(cluster, "kv", 16, 3, 0.0008)
	for i := 0; i < 40; i++ {
		store.Put(fmt.Sprintf("ik%04d", i), fmt.Sprintf("value-for-%04d", i))
	}
	recs := make([]dfs.Record, 600)
	for i := range recs {
		ik := fmt.Sprintf("ik%04d", i%40)
		recs[i] = dfs.Record{Key: fmt.Sprintf("r%05d", i), Value: "payload " + ik}
	}
	input, err := fs.Create("input", recs)
	if err != nil {
		tb.Fatal(err)
	}
	return &env{cluster: cluster, fs: fs, rt: rt, store: store, input: input}
}

func (e *env) lookupOp(name string) *core.Operator {
	op := core.NewOperator(name,
		func(in core.Pair) core.PreResult {
			fields := strings.Fields(in.Value)
			return core.PreResult{Pair: in, Keys: [][]string{{fields[len(fields)-1]}}}
		},
		func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			vals := "none"
			if len(results) > 0 && len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				vals = strings.Join(results[0][0].Values, ",")
			}
			emit(core.Pair{Key: pair.Key, Value: pair.Value + " => " + vals})
		})
	op.AddIndex(e.store)
	return op
}

func (e *env) conf(name string, mode core.Mode) *core.IndexJobConf {
	conf := &core.IndexJobConf{
		Name:      name,
		Input:     e.input,
		Mode:      mode,
		NumReduce: 4,
		Mapper:    func(_ *mapreduce.TaskContext, in core.Pair, emit core.Emit) { emit(in) },
		Reducer:   mapreduce.IdentityReduce,
	}
	conf.AddBodyIndexOperator(e.lookupOp("op-" + name))
	return conf
}

func sortedOutput(f *dfs.File) []string {
	var out []string
	for _, r := range f.All() {
		out = append(out, r.Key+" :: "+r.Value)
	}
	sort.Strings(out)
	return out
}

func TestSingleJobThroughServiceMatchesOneShot(t *testing.T) {
	// A job running alone under the service must match the one-shot
	// Submit path bit for bit: same placement (full-cluster lease), same
	// counters, same output, same virtual time.
	oneShot := newEnv(t, 1)
	res, err := oneShot.rt.Submit(oneShot.conf("ident", core.ModeCache))
	if err != nil {
		t.Fatal(err)
	}

	svcEnv := newEnv(t, 1)
	svc, err := New(svcEnv.rt, []TenantConfig{{Name: "solo"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	statuses := svc.Run([]Submission{{Tenant: "solo", At: 0, Conf: svcEnv.conf("ident", core.ModeCache)}})
	st := statuses[0]
	if st.State != JobCompleted {
		t.Fatalf("service job state = %v (err %v)", st.State, st.Err)
	}
	if st.Result.VTime != res.VTime {
		t.Fatalf("VTime diverges: one-shot %g, service %g", res.VTime, st.Result.VTime)
	}
	if !reflect.DeepEqual(st.Result.Counters, res.Counters) {
		t.Fatalf("counters diverge between one-shot and lone service job:\none-shot: %v\nservice:  %v",
			res.Counters, st.Result.Counters)
	}
	if !reflect.DeepEqual(sortedOutput(st.Result.Output), sortedOutput(res.Output)) {
		t.Fatal("outputs diverge between one-shot and lone service job")
	}
	if st.Finished != st.Result.VTime {
		t.Fatalf("lone job should finish at its own VTime: finished %g, vtime %g", st.Finished, st.Result.VTime)
	}
}

// smokeTrace is the 2-tenant × 4-concurrent-job admission trace the CI
// smoke runs under both executors.
func smokeTrace(e *env) ([]TenantConfig, []Submission) {
	tenants := []TenantConfig{
		{Name: "alpha", Weight: 2, MaxInFlight: 2, QueueCap: 4},
		{Name: "beta", Weight: 1, MaxInFlight: 2, QueueCap: 4},
	}
	subs := []Submission{
		{Tenant: "alpha", At: 0, Conf: e.conf("a1", core.ModeCache)},
		{Tenant: "beta", At: 0, Conf: e.conf("b1", core.ModeBaseline)},
		{Tenant: "alpha", At: 0.5, Conf: e.conf("a2", core.ModeBaseline)},
		{Tenant: "beta", At: 0.5, Conf: e.conf("b2", core.ModeCache)},
		{Tenant: "alpha", At: 1.0, Conf: e.conf("a3", core.ModeDynamic)},
		{Tenant: "beta", At: 1.5, Conf: e.conf("b3", core.ModeCache)},
		{Tenant: "alpha", At: 2.0, Conf: e.conf("a4", core.ModeCache)},
		{Tenant: "beta", At: 2.5, Conf: e.conf("b4", core.ModeBaseline)},
	}
	return tenants, subs
}

func runSmoke(t *testing.T, parallelism int) []JobStatus {
	t.Helper()
	e := newEnv(t, parallelism)
	tenants, subs := smokeTrace(e)
	svc, err := New(e.rt, tenants, Options{SharedCache: ixclient.NewPool(0)})
	if err != nil {
		t.Fatal(err)
	}
	return svc.Run(subs)
}

func TestMultiTenantSmokeSerialParallelIdentity(t *testing.T) {
	serial := runSmoke(t, 1)
	parallel := runSmoke(t, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("status counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.State != p.State || s.ID != p.ID {
			t.Fatalf("job %d state/id diverge: %v/%q vs %v/%q", i, s.State, s.ID, p.State, p.ID)
		}
		if s.State != JobCompleted {
			t.Fatalf("smoke job %d (%s) not completed: %v (err %v)", i, s.ID, s.State, s.Err)
		}
		if s.Admitted != p.Admitted || s.Finished != p.Finished {
			t.Fatalf("job %d (%s) virtual times diverge: [%g,%g] vs [%g,%g]",
				i, s.ID, s.Admitted, s.Finished, p.Admitted, p.Finished)
		}
		if s.Result.VTime != p.Result.VTime {
			t.Fatalf("job %d (%s) VTime diverges: %g vs %g", i, s.ID, s.Result.VTime, p.Result.VTime)
		}
		if !reflect.DeepEqual(s.Result.Counters, p.Result.Counters) {
			t.Fatalf("job %d (%s) counters diverge between serial and parallel executors", i, s.ID)
		}
		if !reflect.DeepEqual(sortedOutput(s.Result.Output), sortedOutput(p.Result.Output)) {
			t.Fatalf("job %d (%s) outputs diverge between serial and parallel executors", i, s.ID)
		}
	}
}

func TestAdmissionQueueAndCap(t *testing.T) {
	e := newEnv(t, 0)
	svc, err := New(e.rt, []TenantConfig{{Name: "t", MaxInFlight: 1, QueueCap: 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	statuses := svc.Run([]Submission{
		{Tenant: "t", At: 0, Conf: e.conf("j1", core.ModeBaseline)},
		{Tenant: "t", At: 0, Conf: e.conf("j2", core.ModeBaseline)},
		{Tenant: "t", At: 0, Conf: e.conf("j3", core.ModeBaseline)},
	})
	if statuses[0].State != JobCompleted {
		t.Fatalf("j1 = %v (err %v)", statuses[0].State, statuses[0].Err)
	}
	if statuses[1].State != JobCompleted {
		t.Fatalf("j2 should queue then complete, got %v (reason %q)", statuses[1].State, statuses[1].Reason)
	}
	if statuses[1].Admitted != statuses[0].Finished {
		t.Fatalf("queued j2 should admit when j1 finishes: admitted %g, j1 finished %g",
			statuses[1].Admitted, statuses[0].Finished)
	}
	if statuses[2].State != JobRejected || !strings.Contains(statuses[2].Reason, "queue full") {
		t.Fatalf("j3 should be rejected for a full queue, got %v (reason %q)", statuses[2].State, statuses[2].Reason)
	}
}

func TestAdmissionBudget(t *testing.T) {
	e := newEnv(t, 0)
	// Any completed lookup job charges well over a nanosecond of serve
	// time, so the second and third submissions find the budget spent.
	svc, err := New(e.rt, []TenantConfig{{Name: "t", MaxInFlight: 1, Budget: 1e-9}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	statuses := svc.Run([]Submission{
		{Tenant: "t", At: 0, Conf: e.conf("j1", core.ModeBaseline)},
		{Tenant: "t", At: 0, Conf: e.conf("j2", core.ModeBaseline)},
		{Tenant: "t", At: 1e6, Conf: e.conf("j3", core.ModeBaseline)},
	})
	if statuses[0].State != JobCompleted || statuses[0].ServeSeconds <= 1e-9 {
		t.Fatalf("j1 = %v, serve %g", statuses[0].State, statuses[0].ServeSeconds)
	}
	for _, i := range []int{1, 2} {
		if statuses[i].State != JobRejected || !strings.Contains(statuses[i].Reason, "budget") {
			t.Fatalf("j%d should be rejected over budget, got %v (reason %q)",
				i+1, statuses[i].State, statuses[i].Reason)
		}
	}
}

// TestServeBudgetCountsIndexServeOnly: a tenant is billed the serve time
// of its job's (operator, index) pairs, by counter name — a user counter
// whose name ends like one (a mapper's "mine.serve.ns") is not charged.
func TestServeBudgetCountsIndexServeOnly(t *testing.T) {
	e := newEnv(t, 0)
	svc, err := New(e.rt, []TenantConfig{{Name: "t"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	conf := e.conf("mine", core.ModeBaseline)
	conf.Mapper = func(ctx *mapreduce.TaskContext, in core.Pair, emit core.Emit) {
		ctx.Inc("mine.serve.ns", 1e9)
		emit(in)
	}
	st := svc.Run([]Submission{{Tenant: "t", Conf: conf}})[0]
	if st.State != JobCompleted {
		t.Fatalf("job = %v (err %v)", st.State, st.Err)
	}
	if st.Result.Counters["mine.serve.ns"] == 0 {
		t.Fatal("the mapper's counter did not reach the result; test is vacuous")
	}
	serve := st.Result.Counters[ixclient.CtrServeNS("op-mine", "kv")]
	if serve == 0 || st.ServeSeconds != float64(serve)/1e9 {
		t.Fatalf("ServeSeconds = %g, want the index's %d ns alone", st.ServeSeconds, serve)
	}
}

func TestUnknownTenantRejected(t *testing.T) {
	e := newEnv(t, 0)
	svc, err := New(e.rt, []TenantConfig{{Name: "t"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	statuses := svc.Run([]Submission{{Tenant: "nobody", At: 0, Conf: e.conf("j", core.ModeBaseline)}})
	if statuses[0].State != JobRejected || !strings.Contains(statuses[0].Reason, "unknown tenant") {
		t.Fatalf("got %v (reason %q)", statuses[0].State, statuses[0].Reason)
	}
}

func TestFairSharingOverlapsJobs(t *testing.T) {
	// Two tenants submitting at the same instant must run overlapped on
	// partial leases — each strictly slower than running alone, but
	// both finishing before two back-to-back lone runs would.
	lone := newEnv(t, 0)
	loneRes, err := lone.rt.Submit(lone.conf("solo", core.ModeBaseline))
	if err != nil {
		t.Fatal(err)
	}

	e := newEnv(t, 0)
	svc, err := New(e.rt, []TenantConfig{
		{Name: "a", MaxInFlight: 1},
		{Name: "b", MaxInFlight: 1},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	statuses := svc.Run([]Submission{
		{Tenant: "a", At: 0, Conf: e.conf("solo", core.ModeBaseline)},
		{Tenant: "b", At: 0, Conf: e.conf("solo", core.ModeBaseline)},
	})
	for i, st := range statuses {
		if st.State != JobCompleted {
			t.Fatalf("job %d = %v (err %v)", i, st.State, st.Err)
		}
		if st.Makespan() <= loneRes.VTime {
			t.Fatalf("job %d shares the cluster, so its makespan %g should exceed the lone %g",
				i, st.Makespan(), loneRes.VTime)
		}
	}
	latest := statuses[0].Finished
	if statuses[1].Finished > latest {
		latest = statuses[1].Finished
	}
	if latest >= 2*loneRes.VTime {
		t.Fatalf("fair sharing should beat serial execution: both done at %g, serial pair needs %g",
			latest, 2*loneRes.VTime)
	}
}

func TestSharedCacheUpliftWithIsolatedShadowR(t *testing.T) {
	// Three identical cache-strategy jobs in sequence. With the pool,
	// later jobs serve lookups from caches the first job warmed; every
	// job's shadow probe/miss counters (the optimizer's R) still match
	// the first job's — i.e. the value each would measure in isolation.
	opName := func(st JobStatus) string { return "op-" + st.Name }
	run := func(pool *ixclient.Pool) []JobStatus {
		e := newEnv(t, 0)
		svc, err := New(e.rt, []TenantConfig{{Name: "t", MaxInFlight: 1}}, Options{SharedCache: pool})
		if err != nil {
			t.Fatal(err)
		}
		return svc.Run([]Submission{
			{Tenant: "t", At: 0, Conf: e.conf("q", core.ModeCache)},
			{Tenant: "t", At: 0, Conf: e.conf("q", core.ModeCache)},
			{Tenant: "t", At: 0, Conf: e.conf("q", core.ModeCache)},
		})
	}

	pool := ixclient.NewPool(0)
	pooled := run(pool)
	cold := run(nil)

	for i := 1; i < 3; i++ {
		pl := pooled[i].Result.Counters[ixclient.CtrLookups(opName(pooled[i]), "kv")]
		cl := cold[i].Result.Counters[ixclient.CtrLookups(opName(cold[i]), "kv")]
		if pl >= cl {
			t.Fatalf("job %d: pooled run should need fewer real lookups than cold (%d vs %d)", i, pl, cl)
		}
		for _, ctr := range []string{
			ixclient.CtrProbes(opName(pooled[i]), "kv"),
			ixclient.CtrMisses(opName(pooled[i]), "kv"),
		} {
			if got, want := pooled[i].Result.Counters[ctr], pooled[0].Result.Counters[ctr]; got != want {
				t.Fatalf("job %d counter %s = %d, want %d — per-job shadow R must match the isolated value",
					i, ctr, got, want)
			}
		}
	}
	if pool.HitRatio() <= 0 {
		t.Fatal("pool should have served cross-job hits")
	}
	if hits, _ := pool.Stats(); hits == 0 {
		t.Fatal("pool hits = 0")
	}
	// The uplift should also show in virtual time: warm-cache jobs avoid
	// serve charges, so later pooled jobs finish faster than cold ones.
	if pooled[2].Makespan() >= cold[2].Makespan() {
		t.Fatalf("pooled third job should be faster: %g vs cold %g", pooled[2].Makespan(), cold[2].Makespan())
	}
}

func TestServiceDeterministicAcrossRuns(t *testing.T) {
	a := runSmoke(t, 0)
	b := runSmoke(t, 0)
	for i := range a {
		if a[i].Finished != b[i].Finished || a[i].ServeSeconds != b[i].ServeSeconds {
			t.Fatalf("job %d diverges across identical service runs: finished %g/%g serve %g/%g",
				i, a[i].Finished, b[i].Finished, a[i].ServeSeconds, b[i].ServeSeconds)
		}
	}
}
