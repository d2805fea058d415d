package experiments

import (
	"fmt"

	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/ixclient"
	"efind/internal/jobsvc"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/obs"
	"efind/internal/sim"
	"efind/internal/workloads"
)

// lab is one fresh simulated environment and what a leg ran in it: the
// job's result, or the service trace's statuses in submission order with
// the service's shared cache pool, journal length and recovery report.
// Every leg gets its own lab so caches, catalogs, and index statistics
// cannot leak between legs.
type lab struct {
	cluster *sim.Cluster
	fs      *dfs.FS
	engine  *mapreduce.Engine
	rt      *core.Runtime

	res      *core.JobResult
	statuses []jobsvc.JobStatus
	pool     *ixclient.Pool
	journal  int
	recovery *jobsvc.RecoveryReport
}

// newLab builds the paper's 12-node cluster, reshaped by shape when set,
// its engine recording into tr. Task startup is scaled like everything
// else: the paper's jobs run for hundreds to thousands of seconds against
// ~1 s task launches; the simulated jobs run for ~1 s, so startup scales
// to milliseconds.
func newLab(tr *obs.Trace, shape func(*sim.Config)) *lab {
	cfg := sim.DefaultConfig()
	cfg.TaskStartup = 0.005
	if shape != nil {
		shape(&cfg)
	}
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	engine := mapreduce.New(cluster, fs)
	engine.Trace = tr
	return &lab{cluster: cluster, fs: fs, engine: engine, rt: core.NewRuntime(engine)}
}

// genSyn writes the synthetic workload of §5.1 into the lab — records
// with a 256 B payload and an index whose values are size bytes — in
// chunks sized for ~2.5 map waves.
func (l *lab) genSyn(scale Scale, size int) (*dfs.File, *kvstore.Store, error) {
	cfg := workloads.DefaultSyntheticConfig()
	cfg.Records = scale.SynRecords
	cfg.KeyDomain = scale.SynKeyDomain
	cfg.IndexValueSize = size
	cfg.ValueSize = 256
	l.fs.ChunkTarget = chunkTargetFor(scale.SynRecords * (cfg.ValueSize + 30))
	return workloads.GenerateSynthetic(l.fs, "syn", cfg)
}

// strategyColumns is the experiment matrix of §5.1: the four fixed
// strategies plus the two optimizer modes.
var strategyColumns = []string{"base", "cache", "repart", "idxloc", "optimized", "dynamic"}

// experimentVarianceThreshold loosens Algorithm 1's variance gate for
// simulation scale: the paper's 0.05 was calibrated for 64 MB splits
// holding ~10^6 rows, where per-task sampling noise is negligible; our
// splits hold ~10^3 rows, so the per-task relative standard deviation is
// inherently ~√1000 larger for the same underlying distribution.
const experimentVarianceThreshold = 0.35

// leg is one run of an experiment in a lab of its own: a strategy column
// of a figure, a parameter row of an ablation, a trace through the job
// service.
type leg struct {
	// trace is what the lab records into (nil: nothing): the experiment's,
	// or a private one whose counters the leg reads in isolation. section,
	// when set, labels its records from here on (e.g. "11f/l=10/base").
	trace   *obs.Trace
	section string
	// shape reshapes the lab's cluster: a straggler's node speeds, the
	// chaos experiment's node count.
	shape func(*sim.Config)
	// column is the strategy column the job runs under, job its name;
	// under "optimized" the statistics job named stats runs first — the
	// paper's offline statistics run —, every other column starts cold.
	// tune, when set, adjusts the measured job once it is composed.
	column, job, stats string
	tune               func(*core.IndexJobConf)
}

// columnLegs gives the leg of each strategy column of a figure, its jobs
// named <prefix>-stats and <prefix>-<column>.
func columnLegs(tr *obs.Trace, prefix string) func(column string) leg {
	return func(c string) leg { return leg{trace: tr, column: c, job: prefix + "-" + c, stats: prefix + "-stats"} }
}

// strategyJob is what setup hands its leg to run: build composes the job
// under a name, and op and ix name the index the repart and idxloc
// columns force. A service leg sets subs instead: the tenants'
// submissions through a job service with opts, which with recovered
// first restores the crash image in opts.Durable.Dir.
type strategyJob struct {
	build     func(name string) *core.IndexJobConf
	op, ix    string
	tenants   []jobsvc.TenantConfig
	subs      []jobsvc.Submission
	opts      jobsvc.Options
	recovered bool
}

// columnModes is the runtime mode of each strategy column; repart and
// idxloc also force their strategy on the leg's index.
var columnModes = map[string]core.Mode{
	"base": core.ModeBaseline, "cache": core.ModeCache, "repart": core.ModeCustom,
	"idxloc": core.ModeCustom, "optimized": core.ModeOptimized, "dynamic": core.ModeDynamic,
}

// runLeg runs one leg: it builds the lab, labels the section, lets setup
// generate the workload into the lab and say what to run, and runs it —
// the job under the leg's column, or the service trace, whose jobs must
// all complete without the journal degrading.
func runLeg(lg leg, setup func(*lab) (strategyJob, error)) (*lab, error) {
	r := newLab(lg.trace, lg.shape)
	if lg.section != "" && lg.trace != nil {
		lg.trace.SetSection(lg.section)
	}
	job, err := setup(r)
	if err != nil {
		return nil, err
	}
	if job.subs != nil {
		return r, r.serve(lg.section, job)
	}
	mode, ok := columnModes[lg.column]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown strategy column %q", lg.column)
	}
	if lg.column == "optimized" {
		if err := r.rt.CollectStats(job.build(lg.stats)); err != nil {
			return nil, err
		}
	}
	conf := job.build(lg.job)
	if lg.tune != nil {
		lg.tune(conf)
	}
	if conf.VarianceThreshold == 0 {
		conf.VarianceThreshold = experimentVarianceThreshold
	}
	conf.Mode = mode
	switch lg.column {
	case "repart":
		conf.ForceStrategy(job.op, job.ix, core.Repartition)
	case "idxloc":
		conf.ForceStrategy(job.op, job.ix, core.IndexLocality)
	}
	r.res, err = r.rt.Submit(conf)
	return r, err
}

// serve pushes a service leg's trace through a job service on the lab's
// runtime; label names the leg in the errors.
func (r *lab) serve(label string, job strategyJob) error {
	r.pool = job.opts.SharedCache
	var svc *jobsvc.Service
	var err error
	if job.recovered {
		svc, r.recovery, err = jobsvc.Recover(r.rt, job.tenants, job.opts)
	} else {
		svc, err = jobsvc.New(r.rt, job.tenants, job.opts)
	}
	if err != nil {
		return err
	}
	r.statuses = svc.Run(job.subs)
	for _, st := range r.statuses {
		if st.State != jobsvc.JobCompleted {
			return fmt.Errorf("%s: job %s/%s %s: %s%v", label, st.Tenant, st.Name, st.State, st.Reason, st.Err)
		}
	}
	if err := svc.DurableErr(); err != nil {
		return fmt.Errorf("%s: durability degraded: %w", label, err)
	}
	r.journal = svc.JournalRecords()
	return nil
}

// strategyCells runs one figure row: each column runs as the leg lg
// gives it, on setup's workload, and cell reads the column's value off
// the run. It returns the row's cells, noting the optimized column's plan
// behind planTag unless that is empty.
func strategyCells(t *Table, cols []string, planTag string, lg func(column string) leg, setup func(*lab) (strategyJob, error), cell func(column string, r *lab) (float64, error)) ([]float64, error) {
	cells := make([]float64, 0, len(cols))
	for _, c := range cols {
		r, err := runLeg(lg(c), setup)
		var v float64
		if err == nil {
			v, err = cell(c, r)
		}
		if err != nil {
			return nil, fmt.Errorf("%s, column %s: %w", t.Title, c, err)
		}
		cells = append(cells, v)
		if c == "optimized" && planTag != "" {
			t.Note("%s%v", planTag, r.res.Plan)
		}
	}
	return cells, nil
}
