package mapreduce

import "efind/internal/sim"

// JobRun is the per-job execution handle: it owns every piece of mutable
// state one job's execution needs — the virtual clock, the phase sequence
// counter chaos draws key off, the slot lease of the phase in flight, and
// the trace namespace — while the Engine it wraps stays stateless and
// shared. Two sequential (or, under the job service, interleaved) runs on
// one Engine therefore never leak clock or sequence state into each
// other; that leak was the old Engine-level clock's failure mode.
//
// A JobRun executes one phase at a time: the phase-level methods
// (RunMapPhase, RunReduceSubset, ...) are not safe for concurrent use on
// one run. Parallel task bodies never touch the run — they carry the
// phase base captured at schedule time.
type JobRun struct {
	*Engine

	// vclock is the job's virtual clock: the end of its last completed
	// phase, including any wait the arbiter imposed before granting a
	// phase's slots. Chaos windows (crashes, index outages) are absolute
	// times on this clock.
	vclock   float64
	phaseSeq int

	// arbiter, when set, is consulted before every phase: the job asks
	// for slots at its ready time and runs the phase on the granted lease
	// at the granted start. Nil (the one-shot path) schedules every phase
	// immediately on the full cluster.
	arbiter PhaseArbiter
	// lease is the slot lease of the phase currently executing; chaos
	// recovery waves reschedule lost tasks inside it.
	lease *sim.Lease
	// ns is the (tenant, job) namespace prefixed onto span, stage, and
	// counter names so interleaved jobs stay separable in one trace.
	ns string
	// svc marks a service-mode run: trace spans are emitted at absolute
	// virtual times (the run's own clock) instead of advancing the
	// trace's global sequential clock.
	svc bool
}

// PhaseGrant is the arbiter's answer to a phase request: run on Lease
// starting at Start (>= the requested ready time; the difference is queue
// wait under contention).
type PhaseGrant struct {
	Lease *sim.Lease
	Start float64
}

// PhaseArbiter arbitrates cluster slots among concurrently running jobs.
// BeginPhase blocks until the scheduler grants slots; EndPhase returns
// them at the phase's end time. The job service implements this with a
// weighted-fair slot ledger; the contract that keeps results reproducible
// is that grants depend only on virtual times, never on wall-clock
// interleaving.
type PhaseArbiter interface {
	BeginPhase(kind TaskKind, tasks int, ready float64) PhaseGrant
	EndPhase(kind TaskKind, lease *sim.Lease, start, end float64)
}

// NewRun returns a fresh per-job handle: clock at zero, full-cluster
// scheduling, no namespace. Engine.Run allocates one per call.
func (e *Engine) NewRun() *JobRun {
	return &JobRun{Engine: e}
}

// RunConfig configures a service-mode JobRun.
type RunConfig struct {
	// Start is the job's admission time on the service's virtual clock.
	Start float64
	// Arbiter grants slot leases per phase (required for fair sharing;
	// nil schedules on the full cluster with no waits).
	Arbiter PhaseArbiter
	// Namespace prefixes trace spans, stages, and counters, conventionally
	// "tenant/job#n".
	Namespace string
}

// NewServiceRun returns a job handle for service execution: the clock
// starts at the admission time, phases go through the arbiter, and trace
// output is namespaced and emitted at absolute virtual times.
func (e *Engine) NewServiceRun(cfg RunConfig) *JobRun {
	return &JobRun{Engine: e, vclock: cfg.Start, arbiter: cfg.Arbiter, ns: cfg.Namespace, svc: true}
}

// Now returns the run's virtual clock: admission time plus waits and
// makespans of the phases completed so far.
func (r *JobRun) Now() float64 { return r.vclock }

// beginPhase reads the clock and claims the next phase sequence number
// (the deterministic key for per-phase chaos draws).
func (r *JobRun) beginPhase() (base float64, seq int) {
	seq = r.phaseSeq
	r.phaseSeq++
	return r.vclock, seq
}

// grantPhase asks the arbiter (if any) for this phase's slots: it returns
// the possibly-delayed phase base, to which the clock jumps, and the lease
// to schedule on, and records the lease for chaos recovery. Without an
// arbiter the phase starts at ready on the full cluster.
func (r *JobRun) grantPhase(kind TaskKind, tasks int, ready float64) (base float64, lease *sim.Lease) {
	base, lease = ready, nil
	if r.arbiter != nil {
		g := r.arbiter.BeginPhase(kind, tasks, ready)
		base, lease = g.Start, g.Lease
		if base > r.vclock {
			r.vclock = base
		}
	}
	r.lease = lease
	return base, lease
}

// qual prefixes a span/stage name with the run's namespace.
func (r *JobRun) qual(name string) string {
	if r.ns == "" {
		return name
	}
	return r.ns + "/" + name
}

// Instant marks an event of the job on the trace, at the run's clock
// (Now) in service mode, qualified by its namespace.
func (r *JobRun) Instant(name, cat string) { r.instant(name, cat, r.vclock) }

// instant emits a trace instant, at the given absolute virtual time in
// service mode and at the trace's sequential clock otherwise.
func (r *JobRun) instant(name, cat string, at float64) {
	if r.Trace == nil {
		return
	}
	if r.svc {
		r.Trace.AddInstantAt(r.qual(name), cat, at)
		return
	}
	r.Trace.AddInstant(r.qual(name), cat)
}
