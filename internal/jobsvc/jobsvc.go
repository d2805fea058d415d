// Package jobsvc turns the one-shot EFind runtime into a long-running,
// multi-tenant index-access service: a deterministic scheduler that
// admits streams of concurrent jobs from multiple tenants onto one
// shared simulated cluster. It layers three service concerns on top of
// the per-job engine:
//
//   - admission control — per-tenant in-flight limits, bounded waiting
//     queues, and cost budgets charged from the jobs' index serve time;
//   - weighted fair slot sharing — concurrently running jobs receive
//     phase-granular slot leases (sim.Lease) sized by tenant weight, so
//     one tenant's scan cannot starve another's lookups; a job running
//     alone is granted the full cluster and places tasks exactly like
//     the one-shot path;
//   - cache persistence — an optional cross-job ixclient.Pool carries
//     warm per-machine lookup caches from job to job while each job's
//     optimizer still observes its own isolated miss ratio R.
//
// Determinism contract: given an admission trace (tenants, submission
// times, job configs) and the seeds inside those configs, the service
// produces bit-identical per-job results and counters whether the
// engine's serial or parallel executor runs underneath, and across
// repeated runs. The scheduler achieves this by ordering every decision
// on virtual time: job goroutines are unblocked strictly one at a time,
// and the next decision is always the minimum-virtual-time event among
// pending admissions and grantable phase requests (ties broken by
// submission order). Phase leases are non-preemptive — a granted phase
// holds its slots for its whole makespan — so sharing is phase-granular,
// like a Hadoop FairScheduler operating at wave boundaries.
package jobsvc

import (
	"fmt"
	"sort"
	"strings"

	"efind/internal/chaos"
	"efind/internal/core"
	"efind/internal/ixclient"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// TenantConfig declares one tenant of the service.
type TenantConfig struct {
	// Name identifies the tenant; it prefixes the trace namespace of
	// every job the tenant runs.
	Name string
	// Weight is the tenant's fair-share weight (0 = 1): with tenants A
	// and B active at weights 2 and 1, A's jobs share 2/3 of the slots.
	Weight int
	// MaxInFlight bounds the tenant's concurrently admitted jobs
	// (0 = 1); submissions beyond it wait in the tenant's queue.
	MaxInFlight int
	// QueueCap bounds the tenant's waiting queue (0 = unbounded);
	// submissions that find the queue full are rejected.
	QueueCap int
	// Budget is the tenant's total allowance of charged index serve
	// time, in virtual seconds (0 = unlimited). A submission arriving
	// or dequeuing after the budget is spent is rejected.
	Budget float64
}

func (t TenantConfig) weight() int {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

func (t TenantConfig) maxInFlight() int {
	if t.MaxInFlight <= 0 {
		return 1
	}
	return t.MaxInFlight
}

// Submission is one job arriving at the service.
type Submission struct {
	// Tenant names the submitting tenant (must be configured).
	Tenant string
	// At is the arrival time on the service's virtual clock.
	At float64
	// Conf is the job to run. The service shallow-copies it to attach
	// the shared cache pool and service-wide chaos plan, so one conf
	// value may be reused across submissions.
	Conf *core.IndexJobConf
}

// JobState is the terminal state of one submission.
type JobState int

// Job states.
const (
	// JobRejected: admission control refused the job (see Reason).
	JobRejected JobState = iota
	// JobCompleted: the job ran and produced a result.
	JobCompleted
	// JobFailed: the job ran and returned an error.
	JobFailed
)

func (s JobState) String() string {
	switch s {
	case JobRejected:
		return "rejected"
	case JobCompleted:
		return "completed"
	case JobFailed:
		return "failed"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// JobStatus is the service's record of one submission, returned in
// submission order.
type JobStatus struct {
	// Tenant and Name identify the submission; ID is the trace
	// namespace "tenant/name#k" assigned at admission ("" if rejected).
	Tenant, Name, ID string
	// State is the terminal state.
	State JobState
	// Reason explains a rejection.
	Reason string
	// Submitted, Admitted, and Finished are virtual times; Admitted -
	// Submitted is the admission queue wait.
	Submitted, Admitted, Finished float64
	// Result and Err are the job's outcome (nil/nil when rejected).
	Result *core.JobResult
	Err    error
	// ServeSeconds is the index serve time the job charged, in virtual
	// seconds — the quantity deducted from the tenant's budget.
	ServeSeconds float64
	// OutputFP fingerprints the multiset of the job's output records (0
	// when the job produced no output or the service is not durable). It
	// is what a recovered coordinator compares instead of the output file.
	OutputFP uint64
	// Recovered marks a status restored from a durable checkpoint: the
	// job did not re-run; Result carries the journaled scalars and
	// counters but no Output file.
	Recovered bool
}

// Makespan returns the job's admitted-to-finished virtual time.
func (st *JobStatus) Makespan() float64 { return st.Finished - st.Admitted }

// Options configures service-wide behaviour.
type Options struct {
	// SharedCache, when set, attaches every job to the cross-job cache
	// pool: per-(index, node) lookup caches persist across jobs, so a
	// tenant's repeated query family finds them warm.
	SharedCache *ixclient.Pool
	// Chaos, when set, is attached to every submission that carries no
	// plan of its own. Its windows are absolute on the service clock,
	// which is what makes cross-tenant experiments meaningful: an index
	// outage window hits whichever tenants' phases overlap it.
	Chaos *chaos.Plan
	// Durable, when set, journals every scheduling decision to a
	// write-ahead log and folds decided state into checkpoint snapshots
	// at quiescent points, so a crashed coordinator can Recover.
	Durable *Durability
}

// Service is the multi-tenant job service over one runtime. Build it
// with New, then drive it with Run; a Service is single-use.
type Service struct {
	rt      *core.Runtime
	opts    Options
	tenants map[string]*tenant
	order   []*tenant // deterministic iteration order

	mapLedger    *slotLedger
	reduceLedger *slotLedger

	events  chan event
	pending []event // parked phase requests (evReq events)
	admits  []admit // queued-admission events released by job completions
	active  int     // admitted, unfinished jobs across all tenants

	jobs []*jobState // the Run trace's jobs, in submission order
	jl   *journal    // durability state (nil without Options.Durable)
}

type tenant struct {
	cfg      TenantConfig
	inflight int
	active   int
	queue    []*jobState
	spent    float64
	seq      int
}

type jobState struct {
	idx     int // submission index; statuses are returned in this order
	tenant  *tenant
	sub     Submission
	status  JobStatus
	decided bool // terminal status reached (or restored from a checkpoint)
}

// admit is a deferred admission: a queued job released at virtual time at.
type admit struct {
	at  float64
	job *jobState
}

type evKind int

const (
	evReq evKind = iota
	evEnd
	evDone
)

// event is one message from a job goroutine to the scheduler loop.
type event struct {
	kind evKind
	job  *jobState

	// evReq
	taskKind mapreduce.TaskKind
	tasks    int
	ready    float64
	reply    chan mapreduce.PhaseGrant

	// evEnd
	lease      *sim.Lease
	start, end float64

	// evDone
	res    *core.JobResult
	err    error
	finish float64
}

// New builds a service over the runtime for the given tenants. The
// runtime's catalog (registered statistics) is shared by every job, and
// its engine's cluster provides the slots the service arbitrates. With
// Options.Durable set, the journal directory is created and a fresh
// journal segment opened.
func New(rt *core.Runtime, tenants []TenantConfig, opts Options) (*Service, error) {
	s, err := newService(rt, tenants, opts)
	if err != nil {
		return nil, err
	}
	if opts.Durable != nil {
		jl, err := openJournal(opts.Durable)
		if err != nil {
			return nil, err
		}
		s.jl = jl
		jl.appendHello(tenantHash(tenants))
	}
	return s, nil
}

// newService builds the service without touching durable state; New and
// Recover wrap it.
func newService(rt *core.Runtime, tenants []TenantConfig, opts Options) (*Service, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("jobsvc: at least one tenant required")
	}
	cfg := rt.Engine.Cluster.Config()
	s := &Service{
		rt:           rt,
		opts:         opts,
		tenants:      make(map[string]*tenant, len(tenants)),
		mapLedger:    newSlotLedger(cfg.Nodes, cfg.MapSlotsPerNode),
		reduceLedger: newSlotLedger(cfg.Nodes, cfg.ReduceSlotsPerNode),
		events:       make(chan event),
	}
	for _, tc := range tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("jobsvc: tenant with empty name")
		}
		if _, dup := s.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("jobsvc: duplicate tenant %q", tc.Name)
		}
		t := &tenant{cfg: tc}
		s.tenants[tc.Name] = t
		s.order = append(s.order, t)
	}
	return s, nil
}

// Run executes an admission trace to completion and returns one status
// per submission, in submission order. Submissions may be given in any
// order; the service processes them by (At, position).
func (s *Service) Run(subs []Submission) []JobStatus {
	jobs := make([]*jobState, len(subs))
	for i, sub := range subs {
		jobs[i] = &jobState{idx: i, sub: sub}
		jobs[i].status = JobStatus{Tenant: sub.Tenant, Name: sub.Conf.Name, Submitted: sub.At}
	}
	s.jobs = jobs
	if s.jl != nil {
		s.jl.appendTrace(subsHash(subs), len(subs))
		// Checkpoint-decided submissions report their cached status and
		// never arrive: their effect on tenants, ledgers, pool, and
		// registry was restored wholesale from the checkpoint.
		for idx, st := range s.jl.decided {
			if idx < len(jobs) {
				jobs[idx].status = st
				jobs[idx].decided = true
			}
		}
	}
	arrivals := make([]*jobState, 0, len(jobs))
	for _, j := range jobs {
		if !j.decided {
			arrivals = append(arrivals, j)
		}
	}
	sort.SliceStable(arrivals, func(a, b int) bool { return arrivals[a].sub.At < arrivals[b].sub.At })

	next := 0
	for {
		// Checkpoints happen only at quiescent points: no admitted job
		// in flight, no parked phase, no deferred admission. At such a
		// point every tenant queue is provably empty and all shared soft
		// state (cache pool, registry, ledgers) sits exactly at a serial
		// boundary, so the snapshot is a prefix any deterministic re-run
		// extends bit-identically.
		if s.jl != nil && s.quiescent() && s.jl.newlyDecided >= s.jl.d.every() {
			s.writeCheckpoint()
		}
		// Candidate events, least virtual time first; admissions beat
		// grants on ties (an arriving job changes the active set the
		// grant's fair share is computed from), submission order breaks
		// the rest.
		const (
			pickNone = iota
			pickArrival
			pickAdmit
			pickGrant
		)
		pick, pickAt, pickIdx, pickPos := pickNone, 0.0, 0, 0
		better := func(at float64, class, idx int) bool {
			if pick == pickNone {
				return true
			}
			if at != pickAt {
				return at < pickAt
			}
			admissionA, admissionB := class != pickGrant, pick != pickGrant
			if admissionA != admissionB {
				return admissionA
			}
			return idx < pickIdx
		}
		if next < len(arrivals) {
			j := arrivals[next]
			if better(j.sub.At, pickArrival, j.idx) {
				pick, pickAt, pickIdx = pickArrival, j.sub.At, j.idx
			}
		}
		for i, a := range s.admits {
			if better(a.at, pickAdmit, a.job.idx) {
				pick, pickAt, pickIdx, pickPos = pickAdmit, a.at, a.job.idx, i
			}
		}
		for i, req := range s.pending {
			led := s.ledger(req.taskKind)
			g := led.grantTime(req.ready, s.wantSlots(req.job, led, req.tasks))
			if better(g, pickGrant, req.job.idx) {
				pick, pickAt, pickIdx, pickPos = pickGrant, g, req.job.idx, i
			}
		}

		switch pick {
		case pickNone:
			if s.jl != nil {
				if s.jl.newlyDecided > 0 {
					s.writeCheckpoint()
				}
				s.jl.close()
			}
			return s.statuses(jobs)
		case pickArrival:
			j := arrivals[next]
			next++
			s.arrive(j)
		case pickAdmit:
			a := s.admits[pickPos]
			s.admits = append(s.admits[:pickPos], s.admits[pickPos+1:]...)
			s.start(a.job, a.at)
		case pickGrant:
			req := s.pending[pickPos]
			s.pending = append(s.pending[:pickPos], s.pending[pickPos+1:]...)
			led := s.ledger(req.taskKind)
			want := s.wantSlots(req.job, led, req.tasks)
			start := led.grantTime(req.ready, want)
			if s.jl != nil {
				s.jl.appendGrant(req.job.idx, int(req.taskKind), want, req.ready, start)
			}
			lease := led.take(want)
			req.reply <- mapreduce.PhaseGrant{Lease: lease, Start: start}
			s.drain()
		}
	}
}

// quiescent reports whether the service sits at a global serial point:
// nothing admitted and unfinished, nothing parked, nothing deferred.
func (s *Service) quiescent() bool {
	return s.active == 0 && len(s.pending) == 0 && len(s.admits) == 0
}

// DurableErr returns the first durability failure (journal append or
// checkpoint write), or nil. Durability failures never fail the run —
// the scheduler's decisions stand, they just stop being durable — so
// callers that care must check this after Run.
func (s *Service) DurableErr() error {
	if s.jl == nil {
		return nil
	}
	return s.jl.err
}

// JournalRecords returns how many records this service appended to its
// journal (0 without durability).
func (s *Service) JournalRecords() int {
	if s.jl == nil || s.jl.log == nil {
		return 0
	}
	return s.jl.log.Records()
}

func (s *Service) statuses(jobs []*jobState) []JobStatus {
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status
	}
	return out
}

func (s *Service) ledger(kind mapreduce.TaskKind) *slotLedger {
	if kind == mapreduce.ReduceTask {
		return s.reduceLedger
	}
	return s.mapLedger
}

// wantSlots sizes a phase's lease: the full cluster when the job runs
// alone (preserving one-shot placement identity), otherwise the job's
// weighted fair share — the tenant's weighted fraction of the slots,
// split across the tenant's active jobs, floored at one slot and capped
// by the phase's task count so unusable slots stay grantable to others.
func (s *Service) wantSlots(j *jobState, led *slotLedger, tasks int) int {
	if s.active <= 1 {
		return led.total()
	}
	sumW := 0
	for _, t := range s.order {
		if t.active > 0 {
			sumW += t.cfg.weight()
		}
	}
	t := j.tenant
	share := led.total() * t.cfg.weight() / (sumW * t.active)
	if share < 1 {
		share = 1
	}
	if tasks >= 0 && tasks < share {
		share = tasks
	}
	return share
}

// arrive applies admission control to a freshly arrived submission.
func (s *Service) arrive(j *jobState) {
	t, ok := s.tenants[j.sub.Tenant]
	if !ok {
		s.reject(j, fmt.Sprintf("unknown tenant %q", j.sub.Tenant))
		return
	}
	j.tenant = t
	if s.overBudget(t) {
		s.reject(j, fmt.Sprintf("tenant budget exhausted (%.3fs of %.3fs spent)", t.spent, t.cfg.Budget))
		return
	}
	if t.inflight+s.pendingAdmits(t) < t.cfg.maxInFlight() && len(t.queue) == 0 {
		s.start(j, j.sub.At)
		return
	}
	if qcap := t.cfg.QueueCap; qcap > 0 && len(t.queue) >= qcap {
		s.reject(j, fmt.Sprintf("queue full (%d waiting, cap %d)", len(t.queue), qcap))
		return
	}
	t.queue = append(t.queue, j)
}

func (s *Service) overBudget(t *tenant) bool {
	return t.cfg.Budget > 0 && t.spent >= t.cfg.Budget
}

// pendingAdmits counts the tenant's deferred admissions not yet started.
func (s *Service) pendingAdmits(t *tenant) int {
	n := 0
	for _, a := range s.admits {
		if a.job.tenant == t {
			n++
		}
	}
	return n
}

func (s *Service) reject(j *jobState, reason string) {
	j.status.State = JobRejected
	j.status.Reason = reason
	j.decided = true
	if s.jl != nil {
		s.jl.appendReject(j.idx, reason)
		s.jl.newlyDecided++
	}
}

// start admits a job at virtual time at: it runs the submission on a
// service-mode engine run in its own goroutine, then blocks until that
// goroutine parks in its first phase request (or finishes), preserving
// the one-unblocked-goroutine discipline.
func (s *Service) start(j *jobState, at float64) {
	t := j.tenant
	t.inflight++
	t.active++
	s.active++
	t.seq++
	ns := fmt.Sprintf("%s/%s#%d", t.cfg.Name, j.sub.Conf.Name, t.seq)
	j.status.ID = ns
	j.status.Admitted = at

	// Always run on a shallow copy: one conf value may back many
	// submissions, and validation writes defaults into it.
	cc := *j.sub.Conf
	if cc.SharedCache == nil {
		cc.SharedCache = s.opts.SharedCache
	}
	if cc.Chaos == nil {
		cc.Chaos = s.opts.Chaos
	}
	if s.jl != nil {
		// Durable runs pin the retry-jitter ladder: a conf without its
		// own seed gets one derived from (BackoffSalt, submission
		// index), journaled at admission. A recovered run replays the
		// journaled seed — even under a different salt — so its backoff
		// waits are bit-identical to the original's.
		seed := cc.Retry.Seed
		if seed == 0 {
			if js, ok := s.jl.seeds[j.idx]; ok {
				seed = js
			} else {
				seed = chaos.Mix(s.jl.d.BackoffSalt, int64(j.idx)+1)
			}
		}
		cc.Retry.Seed = seed
		s.jl.appendAdmit(j.idx, t.seq, ns, at, seed)
	}
	conf := &cc

	run := s.rt.Engine.NewServiceRun(mapreduce.RunConfig{
		Start:     at,
		Arbiter:   &jobArbiter{s: s, j: j},
		Namespace: ns,
	})
	go func() {
		res, err := s.rt.SubmitOn(run, conf)
		s.events <- event{kind: evDone, job: j, res: res, err: err, finish: run.Now()}
	}()
	s.drain()
}

// drain consumes events from the single unparked job goroutine until it
// parks in a phase request or finishes. Phase-end events release leases
// along the way, so by the time the loop selects again every slot has a
// finite free time.
func (s *Service) drain() {
	for {
		ev := <-s.events
		switch ev.kind {
		case evEnd:
			if s.jl != nil {
				s.jl.appendEnd(ev.job.idx, int(ev.taskKind), ev.start, ev.end)
			}
			s.ledger(ev.taskKind).release(ev.lease, ev.end)
		case evReq:
			s.pending = append(s.pending, ev)
			return
		case evDone:
			s.finish(ev)
			return
		}
	}
}

// finish records a completed or failed job, charges its serve time to
// the tenant's budget, and releases the tenant's next queued job (or
// rejects it, if the budget is now spent).
func (s *Service) finish(ev event) {
	j := ev.job
	t := j.tenant
	t.inflight--
	t.active--
	s.active--
	j.status.Finished = ev.finish
	j.status.Result = ev.res
	j.status.Err = ev.err
	if ev.err != nil {
		j.status.State = JobFailed
	} else {
		j.status.State = JobCompleted
	}
	if ev.res != nil {
		j.status.ServeSeconds = serveSeconds(ev.res.Counters)
		t.spent += j.status.ServeSeconds
	}
	if s.jl != nil {
		// An unreadable output is a failed job, not a job without output.
		var fp uint64
		var err error
		if ev.res != nil {
			fp, err = ev.res.Output.Fingerprint()
		}
		if err != nil && j.status.Err == nil {
			j.status.State, j.status.Err = JobFailed, err
		}
		j.status.OutputFP = fp
		j.decided = true
		s.jl.appendDone(j.idx, s.jl.regFingerprint(), &j.status)
		s.jl.newlyDecided++
	}
	for len(t.queue) > 0 && s.overBudget(t) {
		queued := t.queue[0]
		t.queue = t.queue[1:]
		s.reject(queued, fmt.Sprintf("tenant budget exhausted (%.3fs of %.3fs spent)", t.spent, t.cfg.Budget))
	}
	if len(t.queue) > 0 && t.inflight+s.pendingAdmits(t) < t.cfg.maxInFlight() {
		queued := t.queue[0]
		t.queue = t.queue[1:]
		at := ev.finish
		if queued.sub.At > at {
			at = queued.sub.At
		}
		s.admits = append(s.admits, admit{at: at, job: queued})
	}
}

// serveSeconds sums the job's charged index serve time across every
// (operator, index) pair — the budget currency.
func serveSeconds(counters map[string]int64) float64 {
	var ns int64
	for name, v := range counters {
		if strings.HasSuffix(name, ".serve.ns") {
			ns += v
		}
	}
	return float64(ns) / 1e9
}

// jobArbiter adapts one job's phase lifecycle to the scheduler loop: the
// engine's JobRun calls BeginPhase before scheduling each phase (parking
// the job's goroutine until the loop grants slots) and EndPhase when the
// phase's makespan is known.
type jobArbiter struct {
	s *Service
	j *jobState
}

func (a *jobArbiter) BeginPhase(kind mapreduce.TaskKind, tasks int, ready float64) mapreduce.PhaseGrant {
	reply := make(chan mapreduce.PhaseGrant)
	a.s.events <- event{kind: evReq, job: a.j, taskKind: kind, tasks: tasks, ready: ready, reply: reply}
	return <-reply
}

func (a *jobArbiter) EndPhase(kind mapreduce.TaskKind, lease *sim.Lease, start, end float64) {
	a.s.events <- event{kind: evEnd, job: a.j, taskKind: kind, lease: lease, start: start, end: end}
}
