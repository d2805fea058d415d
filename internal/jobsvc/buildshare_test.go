package jobsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"efind/internal/adaptix"
	"efind/internal/core"
	"efind/internal/index"
	"efind/internal/ixclient"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/obs"
)

// Adaptive builds running through the service must not leak into the
// tenants sharing the cluster: a query job running concurrently with a
// builder job still observes its isolated miss ratio R (the per-job
// shadow caches of ixclient.Pool), and the build itself stays
// bit-identical across executors.

// buildEnv extends the service test world with a buildable index over
// the same input: an empty store plus scan fallback whose coverage
// grows as builder jobs commit splits.
type buildEnv struct {
	*env
	reg *adaptix.Registry
	bix *adaptix.Buildable
}

func newBuildEnv(tb testing.TB, parallelism int) *buildEnv {
	tb.Helper()
	e := newEnv(tb, parallelism)
	reg := adaptix.NewRegistry()
	store := kvstore.NewHash(e.cluster, "adx", 8, 3, 0.0002)
	bix, err := adaptix.New(adaptix.Config{
		Name:   "adx",
		Source: e.input,
		Extract: func(_, value string) []index.BuildEntry {
			fields := strings.Fields(value)
			ik := fields[len(fields)-1]
			return []index.BuildEntry{{Key: ik, Value: "v(" + ik + ")"}}
		},
		Store:     store,
		Registry:  reg,
		ScanTime:  0.002,
		BuildTime: 1e-5,
		OfferRate: 0.5,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return &buildEnv{env: e, reg: reg, bix: bix}
}

// buildConf is one builder job: a head lookup over the buildable index
// with the build strategy forced, so every run offers half the input's
// splits to the piggyback build stage.
func (e *buildEnv) buildConf(name string) *core.IndexJobConf {
	op := core.NewOperator("op-"+name,
		func(in core.Pair) core.PreResult {
			fields := strings.Fields(in.Value)
			return core.PreResult{Pair: in, Keys: [][]string{{fields[len(fields)-1]}}}
		},
		func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			vals := "none"
			if len(results) > 0 && len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				vals = results[0][0].Values[0]
			}
			emit(core.Pair{Key: pair.Key, Value: pair.Value + " => " + vals})
		})
	op.AddIndex(e.bix)
	conf := &core.IndexJobConf{
		Name:      name,
		Input:     e.input,
		Mode:      core.ModeCustom,
		NumReduce: 4,
		Mapper:    func(_ *mapreduce.TaskContext, in core.Pair, emit core.Emit) { emit(in) },
		Reducer:   mapreduce.IdentityReduce,
	}
	conf.AddHeadIndexOperator(op)
	conf.ForceStrategy("op-"+name, "adx", core.Build)
	return conf
}

// buildShareTrace interleaves a builder tenant (two forced-build jobs —
// at offer rate 0.5 the second completes coverage) with a query tenant
// running three identical cache-strategy jobs against the pre-built kv
// store. Both tenants arrive at t=0, so query jobs overlap in-flight
// builder jobs on fair-share leases.
func buildShareTrace(e *buildEnv) ([]TenantConfig, []Submission) {
	tenants := []TenantConfig{
		{Name: "bld", MaxInFlight: 1, QueueCap: 4},
		{Name: "qry", MaxInFlight: 1, QueueCap: 4},
	}
	subs := []Submission{
		{Tenant: "bld", At: 0, Conf: e.buildConf("b1")},
		{Tenant: "qry", At: 0, Conf: e.conf("q", core.ModeCache)},
		{Tenant: "bld", At: 0, Conf: e.buildConf("b2")},
		{Tenant: "qry", At: 0, Conf: e.conf("q", core.ModeCache)},
		{Tenant: "qry", At: 0, Conf: e.conf("q", core.ModeCache)},
	}
	return tenants, subs
}

func runBuildShare(t *testing.T, parallelism int, pool *ixclient.Pool) ([]JobStatus, *buildEnv) {
	t.Helper()
	e := newBuildEnv(t, parallelism)
	tenants, subs := buildShareTrace(e)
	svc, err := New(e.rt, tenants, Options{SharedCache: pool})
	if err != nil {
		t.Fatal(err)
	}
	statuses := svc.Run(subs)
	for i, st := range statuses {
		if st.State != JobCompleted {
			t.Fatalf("job %d (%s/%s) = %v (reason %q, err %v)", i, st.Tenant, st.Name, st.State, st.Reason, st.Err)
		}
	}
	return statuses, e
}

// TestBuildShareIsolatedMissRatio: the satellite regression — a query
// job running concurrently with builder jobs still observes its
// isolated miss ratio R: attaching the shared cache pool (which the
// builder tenant also churns) changes which lookups are served
// cross-job, but must not move a single shadow probe/miss counter —
// the quantities each job's optimizer measures R from. Answers stay
// the solo run's answers throughout.
func TestBuildShareIsolatedMissRatio(t *testing.T) {
	solo := newEnv(t, 0)
	soloRes, err := solo.rt.Submit(solo.conf("q", core.ModeCache))
	if err != nil {
		t.Fatal(err)
	}

	pooled, pe := runBuildShare(t, 0, ixclient.NewPool(0))
	cold, _ := runBuildShare(t, 0, nil)

	split := func(statuses []JobStatus) (queries, builders []JobStatus) {
		for _, st := range statuses {
			if st.Tenant == "qry" {
				queries = append(queries, st)
			} else {
				builders = append(builders, st)
			}
		}
		return
	}
	pq, pb := split(pooled)
	cq, _ := split(cold)

	// The builders actually built: both jobs committed splits, the
	// registry reached full coverage, and the first query job overlapped
	// the first builder job on fair-share leases.
	var committed int64
	for _, b := range pb {
		committed += b.Result.Counters[core.CtrBuildCommitted]
	}
	if committed == 0 {
		t.Fatal("builder jobs committed no splits; the trace exercises nothing")
	}
	if covered, total := pe.bix.BuildProgress(); covered != total || total == 0 {
		t.Fatalf("coverage %d/%d after both builder jobs", covered, total)
	}
	if pq[0].Admitted >= pb[0].Finished {
		t.Fatalf("first query job (admitted %g) should overlap the first builder job (finished %g)",
			pq[0].Admitted, pb[0].Finished)
	}

	// Shadow isolation: per query job, pooled and unpooled runs measure
	// identical probe/miss counters — R is the isolated value no matter
	// what the pool served meanwhile.
	var pooledLookups, coldLookups int64
	for i := range pq {
		for _, ctr := range []string{
			ixclient.CtrProbes("op-q", "kv"),
			ixclient.CtrMisses("op-q", "kv"),
		} {
			if got, want := pq[i].Result.Counters[ctr], cq[i].Result.Counters[ctr]; got != want {
				t.Fatalf("query %d counter %s = %d pooled vs %d unpooled — shadow R leaked", i, ctr, got, want)
			}
		}
		pooledLookups += pq[i].Result.Counters[ixclient.CtrLookups("op-q", "kv")]
		coldLookups += cq[i].Result.Counters[ixclient.CtrLookups("op-q", "kv")]
		if !reflect.DeepEqual(sortedOutput(pq[i].Result.Output), sortedOutput(soloRes.Output)) {
			t.Fatalf("query %d output diverges from the solo run", i)
		}
	}
	// The pool did real cross-job work while isolation held.
	if pooledLookups >= coldLookups {
		t.Fatalf("shared pool gave no lookup uplift: pooled %d vs cold %d", pooledLookups, coldLookups)
	}
}

// TestBuildShareSerialParallelIdentity: the concurrent build+query
// admission trace is bit-identical between the serial and parallel
// executors — statuses, counters, outputs, and the final registry
// state. Run under -race in CI, this doubles as the soak for the
// build path's concurrency (staging, rollback journals, commit).
func TestBuildShareSerialParallelIdentity(t *testing.T) {
	serial, se := runBuildShare(t, 1, ixclient.NewPool(0))
	parallel, pe := runBuildShare(t, 8, ixclient.NewPool(0))

	if sf, pf := se.reg.Fingerprint(), pe.reg.Fingerprint(); sf != pf {
		t.Fatalf("registry fingerprints diverge:\nserial:   %q\nparallel: %q", sf, pf)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("status counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.State != p.State || s.ID != p.ID {
			t.Fatalf("job %d state/id diverge: %v/%q vs %v/%q", i, s.State, s.ID, p.State, p.ID)
		}
		if s.Admitted != p.Admitted || s.Finished != p.Finished {
			t.Fatalf("job %d (%s) virtual times diverge: [%g,%g] vs [%g,%g]",
				i, s.ID, s.Admitted, s.Finished, p.Admitted, p.Finished)
		}
		if !reflect.DeepEqual(s.Result.Counters, p.Result.Counters) {
			t.Fatalf("job %d (%s) counters diverge between executors:\nserial:   %v\nparallel: %v",
				i, s.ID, s.Result.Counters, p.Result.Counters)
		}
		if !reflect.DeepEqual(sortedOutput(s.Result.Output), sortedOutput(p.Result.Output)) {
			t.Fatalf("job %d (%s) outputs diverge between executors", i, s.ID)
		}
	}
}

// TestServiceInstantsAtJobClock: an instant a service-run job marks — the
// adaptive build's commit, here — lands at that job's own virtual time
// under its "tenant/job#n" namespace. A service run never advances the
// trace's sequential clock, so an instant stamped from that clock would
// read 0 for every job and name no job.
func TestServiceInstantsAtJobClock(t *testing.T) {
	e := newBuildEnv(t, 1)
	e.rt.Engine.Trace = obs.NewTrace()
	tenants, subs := buildShareTrace(e)
	svc, err := New(e.rt, tenants, Options{})
	if err != nil {
		t.Fatal(err)
	}
	statuses := svc.Run(subs)
	var buf bytes.Buffer
	if err := e.rt.Engine.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name, Ph string
			Ts       float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	commits := map[string]float64{} // namespaced commit instant → its time in µs
	for _, ev := range file.TraceEvents {
		if ev.Ph == "i" && strings.Contains(ev.Name, "adaptive: committed") {
			commits[ev.Name] = ev.Ts
		}
	}
	builders := 0
	for _, st := range statuses {
		if st.Tenant != "bld" {
			continue
		}
		builders++
		name := fmt.Sprintf("%s/adaptive: committed %d built split(s)", st.ID, st.Result.Counters[core.CtrBuildCommitted])
		ts, ok := commits[name]
		if !ok {
			t.Fatalf("no instant %q among the commit instants %v", name, commits)
		}
		// The commit follows the job's last phase: its time is the job's finish.
		if want := st.Finished * 1e6; ts != want || ts <= 0 {
			t.Fatalf("%s: commit instant at %g µs, want the job's finish %g µs", st.ID, ts, want)
		}
	}
	if builders != 2 || len(commits) != builders {
		t.Fatalf("%d builder jobs and commit instants %v, want one instant per each of 2 builders", builders, commits)
	}
}
