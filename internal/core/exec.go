package core

import (
	"fmt"
	"sort"

	"efind/internal/chaos"
	"efind/internal/dfs"
	"efind/internal/index"
	"efind/internal/ixclient"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// DefaultCacheCapacity is the paper's lookup cache size (1024 index
// key-value entries).
const DefaultCacheCapacity = ixclient.DefaultCacheCapacity

// ErrorPolicy and RetryPolicy configure the index client pipeline; they
// are re-exported here so job configurations don't import ixclient.
type (
	// ErrorPolicy decides what an index error does to the running job.
	ErrorPolicy = ixclient.ErrorPolicy
	// RetryPolicy configures transient-error retries.
	RetryPolicy = ixclient.RetryPolicy
)

// Error policies.
const (
	// ErrorCount counts index errors and continues with empty results
	// (the paper's behaviour, and the default).
	ErrorCount = ixclient.ErrorCount
	// ErrorFailJob fails the job on the first index error, reporting the
	// index name and the lookup key.
	ErrorFailJob = ixclient.ErrorFailJob
)

// Mode selects how the runtime chooses index access strategies.
type Mode int

// Execution modes.
const (
	// ModeBaseline runs every index with the baseline strategy.
	ModeBaseline Mode = iota
	// ModeCache runs every index with the lookup-cache strategy.
	ModeCache
	// ModeCustom uses per-index forced strategies (ForceStrategy), with
	// the lookup cache as the default for unforced indices — the paper's
	// hand-picked Repart/Idxloc experiment configurations.
	ModeCustom
	// ModeOptimized plans from catalog statistics (the paper's
	// "optimized": static optimization with sufficient statistics).
	ModeOptimized
	// ModeDynamic starts with the baseline plan, collects statistics
	// during the first wave, and re-optimizes the running job at most
	// once (§4, Algorithm 1).
	ModeDynamic
)

func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeCache:
		return "cache"
	case ModeCustom:
		return "custom"
	case ModeOptimized:
		return "optimized"
	case ModeDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// IndexJobConf is the paper's extension of a MapReduce job configuration
// with index operators: head operators run before Map, body operators
// between Map and Reduce, tail operators after Reduce.
type IndexJobConf struct {
	// Name labels the job.
	Name string
	// Input is the main MapReduce input.
	Input *dfs.File
	// Mapper is the original Map function (nil = identity).
	Mapper mapreduce.MapFunc
	// Reducer is the original Reduce function (nil = map-only job; body
	// and tail operators then cannot be used).
	Reducer mapreduce.ReduceFunc
	// Combiner optionally pre-aggregates the main job's map output per
	// reducer bucket before the shuffle (Hadoop's combiner); it must be
	// algebraically compatible with Reducer.
	Combiner mapreduce.ReduceFunc
	// NumReduce is the reducer count of the main job (0 =
	// mapreduce.DefaultNumReduce: all reduce slots on small clusters,
	// capped near the input's map parallelism on large ones).
	NumReduce int
	// OutputName names the final output file ("" = generated).
	OutputName string

	// Mode picks the strategy selection policy.
	Mode Mode
	// CacheCapacity bounds the per-machine lookup cache (0 = the paper's
	// 1024 entries).
	CacheCapacity int
	// VarianceThreshold gates re-optimization: the largest stddev/mean of
	// collected statistics must be below it (0 = 0.05, §4.2).
	VarianceThreshold float64

	// ErrorPolicy decides what an index error does to the job: count and
	// continue with an empty result (default, paper-faithful) or fail the
	// job naming the index and key.
	ErrorPolicy ErrorPolicy
	// Retry configures transient-error retries (zero value: a failed
	// lookup is not retried).
	Retry RetryPolicy

	// Chaos subjects the job to a deterministic failure schedule: node
	// crash/recovery windows and injected stragglers are enforced by the
	// MapReduce engine, index partition outages by the index clients'
	// availability check. Nil (the default) runs fault-free.
	Chaos *chaos.Plan
	// FaultInjector forwards to mapreduce.Job.FaultInjector on every job
	// the plan compiles into: returning true fails that task attempt and
	// re-executes it (classic MapReduce fault tolerance, per-attempt).
	FaultInjector func(kind mapreduce.TaskKind, task, attempt int) bool
	// SharedCache attaches every LookupCache-strategy client of this job
	// to a cross-job cache pool (the job service's persistent per-machine
	// soft state). Nil keeps caches private to the submission.
	SharedCache *ixclient.Pool

	head, body, tail []*Operator
	forced           map[string]map[string]Strategy
	forcedBoundary   map[string]map[string]Boundary
}

// AddHeadIndexOperator places an operator before Map.
func (c *IndexJobConf) AddHeadIndexOperator(op *Operator) { c.head = append(c.head, op) }

// AddBodyIndexOperator places an operator between Map and Reduce.
func (c *IndexJobConf) AddBodyIndexOperator(op *Operator) { c.body = append(c.body, op) }

// AddTailIndexOperator places an operator after Reduce.
func (c *IndexJobConf) AddTailIndexOperator(op *Operator) { c.tail = append(c.tail, op) }

// Operators returns all operators in data-flow order with positions.
func (c *IndexJobConf) Operators() ([]*Operator, []OpPosition) {
	var ops []*Operator
	var pos []OpPosition
	for _, o := range c.head {
		ops, pos = append(ops, o), append(pos, HeadOp)
	}
	for _, o := range c.body {
		ops, pos = append(ops, o), append(pos, BodyOp)
	}
	for _, o := range c.tail {
		ops, pos = append(ops, o), append(pos, TailOp)
	}
	return ops, pos
}

// ForceStrategy pins a strategy for one index of one operator (ModeCustom).
func (c *IndexJobConf) ForceStrategy(op, ix string, s Strategy) {
	if c.forced == nil {
		c.forced = make(map[string]map[string]Strategy)
	}
	if c.forced[op] == nil {
		c.forced[op] = make(map[string]Strategy)
	}
	c.forced[op][ix] = s
}

// ForceBoundary pins the re-partitioning boundary for one index
// (ModeCustom; default BoundaryPre).
func (c *IndexJobConf) ForceBoundary(op, ix string, b Boundary) {
	if c.forcedBoundary == nil {
		c.forcedBoundary = make(map[string]map[string]Boundary)
	}
	if c.forcedBoundary[op] == nil {
		c.forcedBoundary[op] = make(map[string]Boundary)
	}
	c.forcedBoundary[op][ix] = b
}

// validate checks the configuration and fills defaults.
func (c *IndexJobConf) validate(rt *Runtime) error {
	if c.Input == nil {
		return fmt.Errorf("efind: job %q has no input", c.Name)
	}
	if c.Name == "" {
		c.Name = "efind-job"
	}
	if c.Reducer == nil && (len(c.body) > 0 || len(c.tail) > 0) {
		return fmt.Errorf("efind: job %q has body/tail operators but no Reducer", c.Name)
	}
	if c.Reducer != nil && c.NumReduce <= 0 {
		c.NumReduce = mapreduce.DefaultNumReduce(rt.Engine.Cluster, len(c.Input.Chunks))
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = DefaultCacheCapacity
	}
	if c.VarianceThreshold <= 0 {
		c.VarianceThreshold = 0.05
	}
	ops, _ := c.Operators()
	seen := map[string]bool{}
	for _, o := range ops {
		if err := o.validate(); err != nil {
			return err
		}
		if seen[o.Name()] {
			return fmt.Errorf("efind: job %q uses operator name %q twice", c.Name, o.Name())
		}
		seen[o.Name()] = true
	}
	return nil
}

// JobResult reports an EFind job's outcome.
type JobResult struct {
	// Output is the final output file.
	Output *dfs.File
	// VTime is the total virtual running time across all MapReduce jobs
	// the plan compiled into.
	VTime float64
	// Plan is the plan that produced the final output (post-change for
	// dynamic jobs).
	Plan *JobPlan
	// Replanned reports whether a dynamic job switched plans.
	Replanned bool
	// ReplanPhase is "map" or "reduce" when Replanned.
	ReplanPhase string
	// JobsRun counts the MapReduce jobs executed.
	JobsRun int
	// Counters aggregates all task counters.
	Counters map[string]int64
	// IndexErrors reports, for every (operator, index) pair of the plan,
	// how many index accesses failed, keyed "operator/index". It is always
	// populated — zero entries included — so callers can tell "no errors"
	// from "errors silently swallowed".
	IndexErrors map[string]int64

	raw []*mapreduce.Result
}

// Runtime executes EFind jobs: it owns the plan optimizer, the statistics
// catalog, and the plan implementer (Figure 8).
type Runtime struct {
	Engine  *mapreduce.Engine
	Catalog *Catalog
	Env     Env
}

// NewRuntime builds a runtime on the engine with a fresh catalog.
func NewRuntime(e *mapreduce.Engine) *Runtime {
	return &Runtime{Engine: e, Catalog: NewCatalog(), Env: EnvFromCluster(e.Cluster)}
}

// Submit runs the job under its configured mode and returns the result.
// Index outages that exhaust the retry ladder trigger failure-driven
// re-optimization (see degrade.go) before the job is allowed to fail.
// Each submission runs on a fresh per-job clock.
func (rt *Runtime) Submit(conf *IndexJobConf) (*JobResult, error) {
	return rt.SubmitOn(rt.Engine.NewRun(), conf)
}

// SubmitOn is Submit on an explicit job handle: the multi-tenant job
// service uses it to execute each admitted job on a service-mode run
// (admission-time clock, slot-lease arbitration, namespaced tracing).
// Everything that belongs to the submission lives on its planRun, so one
// tenant's runtime can serve concurrent submissions.
func (rt *Runtime) SubmitOn(run *mapreduce.JobRun, conf *IndexJobConf) (*JobResult, error) {
	if err := conf.validate(rt); err != nil {
		return nil, err
	}
	pr := &planRun{rt: rt, run: run, conf: conf}
	if err := pr.submit(); err != nil {
		// A failed job's scans may be incomplete: abandon anything its
		// build stages staged rather than committing half-built splits.
		for _, b := range confBuildables(conf) {
			b.Abandon()
		}
		return nil, err
	}
	res := pr.res
	// The serial point between jobs: commit the splits the piggyback
	// build stages staged. SubmitOn returns before the job service
	// unparks the next job goroutine, so cross-job commit order is the
	// deterministic job completion order.
	committed := 0
	for _, b := range confBuildables(conf) {
		committed += b.Commit()
	}
	if committed > 0 {
		res.Counters[CtrBuildCommitted] += int64(committed)
		run.Instant(fmt.Sprintf("adaptive: committed %d built split(s)", committed), "adaptive")
	}
	fillIndexErrors(conf, res)
	if t := rt.Engine.Trace; t != nil {
		for _, ip := range IndexProfiles(res) {
			ip.Key = t.Qualify(ip.Key)
			t.AddIndexProfile(ip)
		}
	}
	return res, nil
}

// confBuildables returns the distinct buildable accessors among the
// job's operators (regardless of which plan ran — a dynamic job may have
// executed two plans, and commit/abandon must cover both).
func confBuildables(conf *IndexJobConf) []index.Buildable {
	ops, _ := conf.Operators()
	var out []index.Buildable
	seen := map[string]bool{}
	for _, o := range ops {
		for _, a := range o.Indices() {
			if b, ok := a.(index.Buildable); ok && !seen[b.Name()] {
				seen[b.Name()] = true
				out = append(out, b)
			}
		}
	}
	return out
}

// fillIndexErrors reports the per-index error totals on the result, one
// entry per (operator, index) pair of the job — zero entries included, so
// "no errors" is visible rather than silently absent.
func fillIndexErrors(conf *IndexJobConf, res *JobResult) {
	res.IndexErrors = make(map[string]int64)
	ops, _ := conf.Operators()
	for _, o := range ops {
		for _, a := range o.Indices() {
			res.IndexErrors[o.Name()+"/"+a.Name()] = res.Counters[ixclient.CtrErrors(o.Name(), a.Name())]
		}
	}
}

// CollectStats runs the job once under the baseline plan purely to
// populate the catalog (the "sufficient statistics" precondition of the
// paper's optimized mode), discarding the output.
func (rt *Runtime) CollectStats(conf *IndexJobConf) error {
	if err := conf.validate(rt); err != nil {
		return err
	}
	probe := *conf
	probe.Mode = ModeBaseline
	probe.OutputName = rt.Engine.FS.TempName(conf.Name + "-stats")
	pr := &planRun{rt: rt, run: rt.Engine.NewRun(), conf: &probe}
	if err := pr.attempt(nil); err != nil {
		return err
	}
	rt.harvestStats(&probe, pr.res)
	return rt.Engine.FS.Remove(pr.res.Output.Name)
}

// harvestStats folds a finished baseline run's task statistics into the
// catalog: head/body operators from map tasks, tail operators from reduce
// tasks.
func (rt *Runtime) harvestStats(conf *IndexJobConf, res *JobResult) {
	if len(res.raw) == 0 {
		return
	}
	first, last, tab := res.raw[0], res.raw[len(res.raw)-1], rt.Engine.CounterTable()
	for _, o := range conf.head {
		collectStats(rt.Catalog, tab, o, first.MapStats, rt.Env)
	}
	for _, o := range conf.body {
		collectStats(rt.Catalog, tab, o, first.MapStats, rt.Env)
	}
	for _, o := range conf.tail {
		collectStats(rt.Catalog, tab, o, last.ReduceStats, rt.Env)
	}
}

// planFor builds the job plan the given non-dynamic mode prescribes, with
// the submission's demoted indices held at baseline.
func (pr *planRun) planFor(mode Mode) (*JobPlan, error) {
	rt, conf := pr.rt, pr.conf
	plan := &JobPlan{}
	ops, positions := conf.Operators()
	for i, o := range ops {
		pos := positions[i]
		var p OperatorPlan
		var st *OperatorStats // what the plan was priced from, if it was
		switch mode {
		case ModeBaseline:
			p = uniformPlan(o, pos, Baseline)
		case ModeCache:
			p = uniformPlan(o, pos, LookupCache)
		case ModeCustom:
			var err error
			p, err = rt.customPlan(conf, o, pos)
			if err != nil {
				return nil, err
			}
		case ModeOptimized:
			st = rt.Catalog.Get(o.Name())
			p = OptimizeOperator(o, pos, st, rt.Env, DefaultPlannerOptions())
		default:
			return nil, fmt.Errorf("efind: unsupported mode %v", mode)
		}
		pr.applyDegrades(&p, st)
		switch pos {
		case HeadOp:
			plan.Head = append(plan.Head, p)
		case BodyOp:
			plan.Body = append(plan.Body, p)
		default:
			plan.Tail = append(plan.Tail, p)
		}
		plan.Cost += p.Cost
	}
	return plan, nil
}

// customPlan applies forced strategies: shuffle-strategy indices first
// (Property 4), lookup cache by default for the rest.
func (rt *Runtime) customPlan(conf *IndexJobConf, o *Operator, pos OpPosition) (OperatorPlan, error) {
	p := OperatorPlan{Op: o, Pos: pos}
	var shuffles, others []Decision
	for i, a := range o.Indices() {
		s, ok := conf.forced[o.Name()][a.Name()]
		if !ok {
			s = LookupCache
		}
		d := Decision{Index: i, Strategy: s, Boundary: BoundaryPre}
		if b, ok := conf.forcedBoundary[o.Name()][a.Name()]; ok {
			d.Boundary = b
		}
		switch s {
		case Repartition, IndexLocality:
			if s == IndexLocality {
				if _, ok := a.(index.Partitioned); !ok {
					return p, fmt.Errorf("efind: index %q of operator %q does not expose a partition scheme; index locality is not applicable", a.Name(), o.Name())
				}
				d.Boundary = BoundaryPre
			}
			shuffles = append(shuffles, d)
		default:
			others = append(others, d)
		}
	}
	p.Decisions = append(shuffles, others...)
	return p, nil
}

// cjob is one compiled MapReduce job of an EFind plan.
type cjob struct {
	name         string
	mapStages    []mapreduce.StageFactory
	partition    func(string, int) int
	numReduce    int
	shuffle      *shuffleSpec
	userReduce   bool
	reduceStages []mapreduce.StageFactory
	mapPlacement func(int, *dfs.Chunk) []sim.NodeID
	// stagesRanUpstream marks jobs whose map stages already executed
	// inside the previous job's BoundaryLate reduce.
	stagesRanUpstream bool
}

// shuffleSpec describes a shuffle job's group-lookup reduce.
type shuffleSpec struct {
	x           *opExec
	pos         int
	boundary    Boundary
	emitNextPos int
}

// buildTarget is one buildable index the compiled plan piggybacks a
// build stage for: the accessor plus the frozen offer set — which splits
// this run builds. The set is frozen at compile time (and re-frozen by
// restrictBuilds for subset phases) so every task of a job agrees on it
// regardless of executor parallelism.
type buildTarget struct {
	b     index.Buildable
	op    string
	quota int
	offer map[int]bool
}

// restrict re-freezes the target's offer set to the lowest-numbered
// still-uncovered splits among those the job will actually scan, keeping
// the original per-run quota. The adaptive runtime calls it before
// running a plan-change phase over a split subset — the LIAH rule of
// building only what the job reads anyway.
func (bt *buildTarget) restrict(splits []int) {
	sorted := append([]int(nil), splits...)
	sort.Ints(sorted)
	_, total := bt.b.BuildProgress()
	offer := make(map[int]bool, bt.quota)
	for _, s := range sorted {
		if len(offer) >= bt.quota {
			break
		}
		if s >= 0 && s < total && !bt.b.IsBuilt(s) {
			offer[s] = true
		}
	}
	bt.offer = offer
}

// compiled is a full plan lowered to a job sequence.
type compiled struct {
	jobs  []*cjob
	execs map[string]*opExec
	// builds are the plan's piggyback build targets (Build-strategy
	// decisions of head operators whose accessor is buildable).
	builds []*buildTarget
	// state is the plan's per-node soft state in compile order: every
	// operator client's private caches, every build target's staging,
	// then the shared pool, whose caches are guarded once, not per client.
	state []mapreduce.NodeState
}

// restrictBuilds re-freezes every build target's offer set to the given
// split subset (see buildTarget.restrict).
func (co *compiled) restrictBuilds(splits []int) {
	for _, bt := range co.builds {
		bt.restrict(splits)
	}
}

// SnapshotNode guards every piece of the plan's node state ahead of a
// task attempt (mapreduce.Job.NodeState); the rollback rewinds them all,
// so a re-executed task re-measures its cache misses from the same state
// — the miss ratio R stays unskewed — and a commit sees each staged split
// once.
func (co *compiled) SnapshotNode(node sim.NodeID) func() {
	rollbacks := make([]func(), len(co.state))
	for i, s := range co.state {
		rollbacks[i] = s.SnapshotNode(node)
	}
	return func() {
		for _, rb := range rollbacks {
			rb()
		}
	}
}

// ResetNode drops every piece of the plan's node state on a crashed node.
func (co *compiled) ResetNode(node sim.NodeID) {
	for _, s := range co.state {
		s.ResetNode(node)
	}
}

// compilePlan lowers a job plan into the MapReduce job chain the plan
// implementer will run (Figure 7's layouts generalized to whole jobs).
func compilePlan(rt *Runtime, conf *IndexJobConf, plan *JobPlan) (*compiled, error) {
	co := &compiled{execs: make(map[string]*opExec)}
	tab := rt.Engine.CounterTable()
	for _, p := range plan.All() {
		x := newOpExec(p.Op, p, conf, tab)
		co.execs[p.Op.Name()] = x
		for _, c := range x.clients {
			co.state = append(co.state, c)
		}
	}

	cur := &cjob{name: fmt.Sprintf("%s-j0", conf.Name)}
	co.jobs = append(co.jobs, cur)
	reduceSide := false

	appendStage := func(f mapreduce.StageFactory) {
		if reduceSide {
			cur.reduceStages = append(cur.reduceStages, f)
		} else {
			cur.mapStages = append(cur.mapStages, f)
		}
	}
	newJob := func() *cjob {
		j := &cjob{name: fmt.Sprintf("%s-j%d", conf.Name, len(co.jobs))}
		co.jobs = append(co.jobs, j)
		return j
	}

	compileOp := func(p OperatorPlan) error {
		x := co.execs[p.Op.Name()]
		s := p.shuffleCount()
		if s == 0 {
			appendStage(x.inlineStage())
			return nil
		}
		for i := 0; i < s; i++ {
			if st := p.Decisions[i].Strategy; st != Repartition && st != IndexLocality {
				return fmt.Errorf("efind: operator %q plan has shuffle strategies after inline ones (violates Property 4)", p.Op.Name())
			}
		}
		appendStage(x.shuffleEmitStage(0))
		for i := 0; i < s; i++ {
			d := p.Decisions[i]
			spec := &shuffleSpec{x: x, pos: i, emitNextPos: -1}
			if i < s-1 {
				spec.boundary = BoundaryIdx
				spec.emitNextPos = i + 1
			} else {
				spec.boundary = d.Boundary
				if d.Strategy == IndexLocality {
					spec.boundary = BoundaryPre
				}
			}
			if cur.userReduce || cur.shuffle != nil {
				// The current job's reduce slot is taken (the user reduce
				// of a tail-operator flow): host this group-by in a fresh
				// job whose map is the identity over (ik, carrier) pairs.
				cur = newJob()
				reduceSide = false
			}
			cur.shuffle = spec
			// Partitioning of the shuffle job: co-partition with the index
			// for locality, hash otherwise.
			if d.Strategy == IndexLocality {
				sch := p.Op.Indices()[d.Index].(index.Partitioned).Scheme()
				cur.partition = func(key string, _ int) int { return sch.Fn(key) }
				cur.numReduce = sch.Partitions
			} else {
				cur.partition = nil
				// The shuffle job re-groups the main input's records, so
				// its parallelism is bounded by the same map-side width.
				cur.numReduce = mapreduce.DefaultNumReduce(rt.Engine.Cluster, len(conf.Input.Chunks))
			}

			next := newJob()
			if i == s-1 {
				switch spec.boundary {
				case BoundaryPre:
					next.mapStages = append(next.mapStages, x.resumeStage(i, true))
					if d.Strategy == IndexLocality {
						sch := p.Op.Indices()[d.Index].(index.Partitioned).Scheme()
						next.mapPlacement = func(_ int, ch *dfs.Chunk) []sim.NodeID {
							// The shuffling job co-partitioned the keys
							// with the index: chunk shard = partition.
							if ch != nil && ch.Shard >= 0 && ch.Shard < len(sch.Hosts) {
								return sch.Hosts[ch.Shard]
							}
							return nil
						}
					}
				case BoundaryIdx, BoundaryLate:
					next.mapStages = append(next.mapStages, x.resumeStage(i+1, false))
					if spec.boundary == BoundaryLate {
						next.stagesRanUpstream = true
					}
				}
			}
			cur = next
			reduceSide = false
		}
		return nil
	}

	for _, p := range plan.Head {
		if err := compileOp(p); err != nil {
			return nil, err
		}
	}
	if conf.Mapper != nil {
		appendStage(mapperStage(conf.Mapper, tab))
	}
	for _, p := range plan.Body {
		if err := compileOp(p); err != nil {
			return nil, err
		}
	}
	if conf.Reducer != nil {
		cur.userReduce = true
		cur.numReduce = conf.NumReduce
		reduceSide = true
		for _, p := range plan.Tail {
			if err := compileOp(p); err != nil {
				return nil, err
			}
		}
	}
	co.attachBuildStages(conf, plan, tab)
	if conf.SharedCache != nil {
		co.state = append(co.state, conf.SharedCache)
	}
	return co, nil
}

// buildSourced is implemented by buildable accessors that can name the
// file their build units are splits of (adaptix.Buildable does); the
// compiler uses it to refuse piggybacking onto a job that scans a
// different file, where extracted entries would index the wrong records.
type buildSourced interface {
	Source() *dfs.File
}

// attachBuildStages prepends the piggyback build stage of every
// Build-strategy decision to the first job's map pipeline — ahead of all
// operator stages, so the builder sees the raw input records the map
// task scans. Only head operators qualify (their records are the job
// input), and an accessor that declares its source file must match the
// job input. The offer set is frozen here, once per compiled plan, so
// every task — serial or parallel executor — agrees on which splits
// build.
func (co *compiled) attachBuildStages(conf *IndexJobConf, plan *JobPlan, tab *mapreduce.CounterTable) {
	var stages []mapreduce.StageFactory
	for _, p := range plan.Head {
		for _, d := range p.Decisions {
			if d.Strategy != Build {
				continue
			}
			a := p.Op.Indices()[d.Index]
			b, ok := a.(index.Buildable)
			if !ok {
				continue
			}
			if src, ok := a.(buildSourced); ok && src.Source() != conf.Input {
				continue
			}
			offered := b.OfferSplits()
			offer := make(map[int]bool, len(offered))
			for _, s := range offered {
				offer[s] = true
			}
			bt := &buildTarget{b: b, op: p.Op.Name(), quota: len(offered), offer: offer}
			co.builds = append(co.builds, bt)
			co.state = append(co.state, b)
			stages = append(stages, buildStage(bt, tab))
		}
	}
	if len(stages) > 0 {
		co.jobs[0].mapStages = append(stages, co.jobs[0].mapStages...)
	}
}

// engineJob materializes a compiled job into a runnable mapreduce.Job.
// lateCont supplies the continuation stages for BoundaryLate shuffles
// (the next job's map stages).
func (co *compiled) engineJob(conf *IndexJobConf, k int, input *dfs.File) *mapreduce.Job {
	cj := co.jobs[k]
	job := &mapreduce.Job{
		Name:          cj.name,
		Input:         input,
		Partition:     cj.partition,
		NumReduce:     cj.numReduce,
		MapPlacement:  cj.mapPlacement,
		NodeState:     co,
		FaultInjector: conf.FaultInjector,
		Chaos:         conf.Chaos,
	}
	if !cj.stagesRanUpstream {
		job.MapStagesBefore = cj.mapStages
	}
	switch {
	case cj.shuffle != nil && cj.shuffle.boundary == BoundaryPre:
		// The last shuffle of an operator that looks up in the next job:
		// the group-by is the sort itself, and the carriers go on as they
		// came. The next job's resume stage decodes, and so checks, each.
		job.Reduce = forwardGroup
	case cj.shuffle != nil:
		var cont []mapreduce.StageFactory
		if cj.shuffle.boundary == BoundaryLate && k+1 < len(co.jobs) {
			// The next job's first map stage is this operator's resume
			// step (compilePlan put it there); the group stage runs that
			// itself, on the carrier it holds, and then the rest.
			cont = co.jobs[k+1].mapStages[1:]
		}
		job.Reduce = forwardGroup
		job.ReduceStagesAfter = []mapreduce.StageFactory{cj.shuffle.x.groupStage(cj.shuffle.pos, cj.shuffle.boundary, cj.shuffle.emitNextPos, cont)}
	case cj.userReduce:
		job.Reduce = conf.Reducer
		job.Combine = conf.Combiner
		job.ReduceStagesAfter = cj.reduceStages
	}
	return job
}

// planRun executes one submission. It owns everything that belongs to the
// submission rather than to the runtime or the caller's configuration:
// the job handle, the result being accumulated, the indices demoted by the
// degrade ladder, the intermediate file of the job chain, and how far a
// dynamic job may still adapt. Static runs, cost-triggered plan changes
// (Figure 10) and failure-triggered resumes all run through runJobs.
type planRun struct {
	rt   *Runtime
	run  *mapreduce.JobRun
	conf *IndexJobConf
	res  *JobResult

	// degraded holds the (operator, index) pairs demoted to the baseline
	// strategy; planFor and reoptimize apply it to every plan they build.
	degraded map[[2]string]bool
	// temp is the intermediate file the submission currently owns; drop
	// removes it.
	temp *dfs.File
	// cold marks a dynamic job started without statistics: what its final
	// reduce measures goes to the catalog. mayChange says it is still
	// allowed its one plan change.
	cold, mayChange bool
}

// attempt runs the job once, from a fresh result. failed, when non-nil, is
// the map phase an earlier attempt died in: if the plan — re-planned, now
// with the offending index demoted — is still a single inline job, the
// splits that phase completed are kept (their outputs are final records,
// the same under every inline plan) and only the rest run again.
func (pr *planRun) attempt(failed *mapreduce.MapPhaseResult) error {
	pr.res = &JobResult{Counters: make(map[string]int64)}
	pr.cold, pr.mayChange = false, false
	defer pr.drop()
	if pr.conf.Mode == ModeDynamic {
		return pr.runDynamic()
	}
	plan, err := pr.planFor(pr.conf.Mode)
	if err != nil {
		return err
	}
	co, err := pr.compile(plan)
	if err != nil {
		return err
	}
	if failed == nil || len(co.jobs) != 1 {
		return pr.runJobs(co, 0, pr.conf.Input, nil, nil)
	}
	// The failed phase reports no VTime and never folded its tasks'
	// counters: account its makespan and the completed tasks here, in the
	// fold a phase's totals get.
	pr.add(failed.Phase.Makespan, nil)
	done, todo := &mapreduce.MapPhaseResult{}, []int{}
	for split, out := range failed.Outputs {
		if out == nil {
			todo = append(todo, split)
			continue
		}
		done.Outputs = append(done.Outputs, out)
		done.Stats = append(done.Stats, failed.Stats[split])
	}
	for _, c := range pr.rt.Engine.FoldCounters(done.Stats) {
		pr.res.Counters[c.Name] += c.Value
	}
	return pr.runJobs(co, 0, pr.conf.Input, todo, done)
}

// compile lowers plan to its job chain and makes it the result's plan.
func (pr *planRun) compile(plan *JobPlan) (*compiled, error) {
	co, err := compilePlan(pr.rt, pr.conf, plan)
	if err == nil {
		pr.res.Plan = plan
	}
	return co, err
}

// add folds one phase's or one whole job's virtual time and counters into
// the result. Callers choose the grouping, because float addition order
// decides VTime's bits: a whole job is one (map + reduce) term, while map
// work continued from an earlier plan adds phase by phase.
func (pr *planRun) add(vtime float64, counters map[string]int64) {
	pr.res.VTime += vtime
	mapreduce.MergeCounters(pr.res.Counters, counters)
}

// drop removes the intermediate file the submission owns, if any.
func (pr *planRun) drop() error {
	if pr.temp == nil {
		return nil
	}
	name := pr.temp.Name
	pr.temp = nil
	return pr.rt.Engine.FS.Remove(name)
}

// runJobs is the one loop over a compiled plan's jobs, from job `from` on:
// map phase, then reduce or map-only finish; the previous intermediate is
// dropped and the output fed forward. input feeds the first job run; when
// that is not conf.Input it is an intermediate the caller put in pr.temp.
//
// done is map work over conf.Input completed under an earlier plan — the
// first wave of a dynamic job, or what a failed phase finished — already
// accounted by the caller; todo then lists the splits still to run (nil
// without done: all of them). The first job runs only todo, build targets
// offer only from todo, and the last job's reducers pull from done and
// from its own map tasks.
func (pr *planRun) runJobs(co *compiled, from int, input *dfs.File, todo []int, done *mapreduce.MapPhaseResult) error {
	if done != nil {
		co.restrictBuilds(todo)
	}
	last := len(co.jobs) - 1
	for k := from; k <= last; k++ {
		job := co.engineJob(pr.conf, k, input)
		if k == last && from == 0 {
			// A chain entered past its first job yields only part of the
			// output (Figure 10(b)); its caller merges and names the whole.
			job.OutputName = pr.conf.OutputName
		}
		var splits []int // nil: every split of the job's input
		if k == 0 {
			splits = todo
		}
		mp := &mapreduce.MapPhaseResult{}
		if splits == nil || len(splits) > 0 {
			var err error
			if mp, err = pr.run.RunMapPhase(job, splits); err != nil {
				mf := &mapPhaseFailure{jobName: job.Name, err: err}
				if done == nil && last == 0 {
					// Only a whole single-job map phase is resumable: its
					// outputs are final records. A resumed phase is not
					// resumed again.
					mf.resumable = mp
				}
				return mf
			}
		}
		if k == last && done != nil {
			pr.add(mp.VTime, mp.Counters)
			mp = mergeMapWork(done, mp, k == 0)
		}
		out, err := pr.finishJob(job, mp)
		if err != nil {
			return err
		}
		if err := pr.drop(); err != nil {
			return err
		}
		input = out
		if k < last {
			pr.temp = out
		}
	}
	pr.res.Output = input
	return nil
}

// mergeMapWork joins map work done under an earlier plan with the phase
// that covered the rest, in reduce-input order — which decides the output
// bytes. When both ran over the same input (a single-job chain) outputs
// interleave by split number, as if one phase had run them all; the map
// tasks of a multi-job chain's last job read a different file, so the
// earlier plan's outputs simply come first. The result carries no time
// or counters: both sides were accounted when they ran.
func mergeMapWork(done, rest *mapreduce.MapPhaseResult, bySplit bool) *mapreduce.MapPhaseResult {
	m := &mapreduce.MapPhaseResult{}
	i, j := 0, 0
	for i < len(done.Outputs) || j < len(rest.Outputs) {
		src, at := rest, &j
		if j == len(rest.Outputs) || i < len(done.Outputs) && (!bySplit || done.Outputs[i].Split < rest.Outputs[j].Split) {
			src, at = done, &i
		}
		m.Outputs, m.Stats = append(m.Outputs, src.Outputs[*at]), append(m.Stats, src.Stats[*at])
		*at++
	}
	return m
}

// finishJob turns a job's map work into the job's output and folds the job
// into the result.
func (pr *planRun) finishJob(job *mapreduce.Job, mp *mapreduce.MapPhaseResult) (*dfs.File, error) {
	if pr.mayChange && len(pr.conf.tail) > 0 {
		return pr.reduceInWaves(job, mp.Outputs)
	}
	var r *mapreduce.Result
	var err error
	if job.Reduce == nil {
		r, err = pr.run.FinishMapOnly(job, mp)
	} else {
		r, err = pr.run.RunReducePhase(job, mp)
	}
	if err != nil {
		return nil, err
	}
	pr.add(r.VTime, r.Counters)
	pr.res.JobsRun++
	pr.res.raw = append(pr.res.raw, r)
	if pr.cold {
		// Tail operators ran under the baseline plan throughout: fold their
		// statistics so later optimized runs can plan them.
		for _, o := range pr.conf.tail {
			collectStats(pr.rt.Catalog, pr.rt.Engine.CounterTable(), o, r.ReduceStats, pr.rt.Env)
		}
	}
	return r.Output, nil
}
