package experiments

import (
	"fmt"
	"strings"

	"efind/internal/chaos"
	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/ixclient"
	"efind/internal/jobsvc"
	"efind/internal/kvstore"
	"efind/internal/obs"
	"efind/internal/sim"
)

// mtPerTenant is the number of Fig. 11(f) family jobs each tenant
// submits per service run.
const mtPerTenant = 4

// mtRun is one admission trace executed through the job service.
type mtRun struct {
	statuses []jobsvc.JobStatus
	pool     *ixclient.Pool
	// trace is what the lab's engine recorded into — private for the
	// chaos legs, whose crash counters must be read in isolation.
	trace *obs.Trace
	// journal counts the records a durable service wrote; recovery is the
	// report of a service that started from a crash image.
	journal  int
	recovery *jobsvc.RecoveryReport
}

// span returns the tenant's workload makespan (every tenant's for ""):
// all jobs arrive near t=0, so the last finish time is the time to drain
// the queue.
func (r *mtRun) span(tenant string) float64 {
	max := 0.0
	for _, st := range r.statuses {
		if (tenant == "" || st.Tenant == tenant) && st.Finished > max {
			max = st.Finished
		}
	}
	return max
}

// counterSum adds up, over every job (runTrace lets none fail, so each
// has a result), the counters whose name ends in suffix. In service mode per-task counters land in each job's namespaced
// result, not the bare trace counter, so sums read the statuses:
// ".lookups" is the index lookups actually issued (pooled runs issue
// fewer because warm pool entries serve repeats without touching the
// index), chaos.CtrSpecLaunched the speculative backups.
func (r *mtRun) counterSum(suffix string) int64 {
	var n int64
	for _, st := range r.statuses {
		for k, v := range st.Result.Counters {
			if strings.HasSuffix(k, suffix) {
				n += v
			}
		}
	}
	return n
}

func (r *mtRun) lookups() int64 { return r.counterSum(".lookups") }

// indexErrors sums per-job index access failures — non-zero only when a
// fault schedule put the index inside an outage window.
func (r *mtRun) indexErrors() int64 {
	var n int64
	for _, st := range r.statuses {
		for _, v := range st.Result.IndexErrors {
			n += v
		}
	}
	return n
}

// synSubs builds an admission trace over a lab's synthetic workload:
// every tenant submits jobs ModeCache joins, job i of each arriving at
// at(i) and named "<prefix>-<tenant>-<i>". With retry, lookups that land
// in an outage window burn a retry ladder, get charged, and are counted
// per index under the default ErrorCount policy — the jobs complete,
// slower, with IndexErrors > 0.
func synSubs(prefix string, tenants []jobsvc.TenantConfig, jobs int, at func(i int) float64, retry bool, input *dfs.File, store *kvstore.Store) []jobsvc.Submission {
	var subs []jobsvc.Submission
	for i := 0; i < jobs; i++ {
		for _, tn := range tenants {
			conf := buildSynConf(fmt.Sprintf("%s-%s-%d", prefix, tn.Name, i), input, store, core.ModeCache)
			conf.VarianceThreshold = experimentVarianceThreshold
			if retry {
				conf.Retry = core.RetryPolicy{Max: 2, Backoff: 0.001, Factor: 2}
			}
			subs = append(subs, jobsvc.Submission{Tenant: tn.Name, At: at(i), Conf: conf})
		}
	}
	return subs
}

// runTrace pushes one admission trace through a job service on the lab's
// runtime — a new one, or with recovered set one that first restores the
// crash image in opts.Durable.Dir. Every job must complete and the
// journal must not have degraded.
func runTrace(label string, l *lab, tenants []jobsvc.TenantConfig, subs []jobsvc.Submission, opts jobsvc.Options, recovered bool) (*mtRun, error) {
	run := &mtRun{pool: opts.SharedCache, trace: l.engine.Trace}
	var svc *jobsvc.Service
	var err error
	if recovered {
		svc, run.recovery, err = jobsvc.Recover(l.rt, tenants, opts)
	} else {
		svc, err = jobsvc.New(l.rt, tenants, opts)
	}
	if err != nil {
		return nil, err
	}
	run.statuses = svc.Run(subs)
	for _, st := range run.statuses {
		if st.State != jobsvc.JobCompleted {
			return nil, fmt.Errorf("%s: job %s/%s %s: %s%v", label, st.Tenant, st.Name, st.State, st.Reason, st.Err)
		}
	}
	if err := svc.DurableErr(); err != nil {
		return nil, fmt.Errorf("%s: durability degraded: %w", label, err)
	}
	run.journal = svc.JournalRecords()
	return run, nil
}

// runMultiTenant executes one 2-tenant admission trace — alpha at weight
// 2, beta at weight 1, each submitting mtPerTenant ModeCache synthetic
// joins at staggered arrivals — in a fresh lab. usePool attaches the
// cross-job shared cache; outageUntil > 0 additionally runs the whole
// trace under a service-wide index outage window [0, outageUntil).
func runMultiTenant(scale Scale, label string, usePool bool, outageUntil float64) (*mtRun, error) {
	section("multi-tenant/" + label)
	l := newLab()
	input, store, err := l.genSyn(scale, 1024)
	if err != nil {
		return nil, err
	}
	tenants := []jobsvc.TenantConfig{
		{Name: "alpha", Weight: 2, MaxInFlight: 2, QueueCap: 2 * mtPerTenant},
		{Name: "beta", Weight: 1, MaxInFlight: 2, QueueCap: 2 * mtPerTenant},
	}
	var opts jobsvc.Options
	if usePool {
		opts.SharedCache = ixclient.NewPool(0)
	}
	if outageUntil > 0 {
		opts.Chaos = chaos.MustNew(chaos.Config{
			Seed:    ChaosSeed,
			Outages: []chaos.Outage{{Index: synIndexName, Partition: -1, From: 0, Until: outageUntil}},
		}, sim.DefaultConfig().Nodes)
	}
	at := func(i int) float64 { return 0.05 * float64(i) }
	subs := synSubs("mt-"+label, tenants, mtPerTenant, at, outageUntil > 0, input, store)
	return runTrace("multi-tenant/"+label, l, tenants, subs, opts, false)
}

// MultiTenant drives the job service end to end: two tenants push the
// Fig. 11(f) synthetic query family through one shared cluster, cold,
// then with the cross-job cache pool, then with the pool under a
// cross-tenant index outage. The pooled row must issue fewer index
// lookups than the cold row (the warm-cache uplift); the outage row
// shows one shared fault window inflating both tenants' makespans.
func MultiTenant(scale Scale) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Multi-tenant service: 2 tenants x %d jobs — makespan (virtual s), lookups, pool hit ratio", mtPerTenant),
		Columns: []string{"alpha_span", "beta_span", "lookups", "hit_ratio", "ixerrs"},
	}
	addRow := func(label string, r *mtRun) {
		ratio := 0.0
		if r.pool != nil {
			ratio = r.pool.HitRatio()
		}
		t.Add(label, r.span("alpha"), r.span("beta"),
			float64(r.lookups()), ratio, float64(r.indexErrors()))
	}

	cold, err := runMultiTenant(scale, "cold", false, 0)
	if err != nil {
		return nil, err
	}
	addRow("cold", cold)

	pooled, err := runMultiTenant(scale, "pooled", true, 0)
	if err != nil {
		return nil, err
	}
	addRow("pooled", pooled)

	// The outage covers the early fraction of the trace: jobs whose first
	// index access lands inside the window fail that attempt and re-run
	// demoted to baseline; late arrivals clear it untouched.
	outage, err := runMultiTenant(scale, "outage", true, 0.4*cold.span("alpha"))
	if err != nil {
		return nil, err
	}
	addRow("pooled+outage", outage)
	coldLookups, pooledLookups := t.at("cold", "lookups"), t.at("pooled", "lookups")
	t.claim(pooledLookups < coldLookups, "shared cache gave no lookup uplift: pooled %g vs cold %g", pooledLookups, coldLookups)
	t.claim(t.at("pooled+outage", "ixerrs") > 0, "outage window hit no lookups; the cross-tenant row is vacuous")

	t.Note("pooled lookup uplift: %d -> %d index lookups (%.0f%% served by the cross-job pool)",
		cold.lookups(), pooled.lookups(), 100*pooled.pool.HitRatio())
	t.Note("per-job shadow caches keep each optimizer's miss ratio R at its isolated value")
	return t, t.err
}
