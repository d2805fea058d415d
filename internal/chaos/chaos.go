// Package chaos is the failure model of the simulated cluster: a seeded,
// fully deterministic schedule of node crashes, injected stragglers
// (candidates for speculative execution), and index partition outages,
// all expressed in VIRTUAL time. Nothing here touches the wall clock;
// the same seed always produces the same fault schedule, and the engine
// applies it in a fixed order, so chaos runs are as reproducible as
// fault-free ones — serial and parallel executions of one seed yield
// bit-identical outputs, counters, and traces.
//
// The package is deliberately passive: it answers questions ("is node 3
// down at t=1.2?", "is partition 7 of index kv reachable now?", "how
// long should attempt 4 back off?") and owns the counter names; the
// mapreduce engine, the ixclient availability check, and the core
// runtime's failure-triggered re-optimization do the acting.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"efind/internal/index"
	"efind/internal/sim"
)

// Typed counter names emitted by the chaos machinery. They ride on the
// ordinary task-counter pipeline, so they show up in JobResult.Counters,
// the obs metrics registry, and exported profiles like any other counter.
const (
	// CtrNodeCrashes counts node crash events applied to a job's phases.
	CtrNodeCrashes = "chaos.node.crashes"
	// CtrTasksLost counts task attempts lost to node crashes and
	// re-executed on surviving nodes.
	CtrTasksLost = "chaos.tasks.lost"
	// CtrSpecLaunched counts speculative backup attempts launched.
	CtrSpecLaunched = "task.speculative.launched"
	// CtrSpecWon counts speculative backups that finished before the
	// original attempt (the backup's placement and timing are committed).
	CtrSpecWon = "task.speculative.won"
	// CtrSpecLost counts speculative backups that lost the race (the
	// backup's side effects are rolled back and its attempt discarded).
	CtrSpecLost = "task.speculative.lost"
	// CtrUnavailable counts index accesses that found their partition
	// down (each failed attempt, before backoff and retry).
	CtrUnavailable = "ix.partition.unavailable"
	// CtrReoptFailure counts failure-triggered re-optimizations: plan
	// changes forced by an exhausted index outage rather than by cost.
	CtrReoptFailure = "plan.reopt.failure_triggered"
)

// ErrUnavailable marks an index access that failed because every replica
// of the key's partition is inside an outage window. It wraps
// index.ErrTransient so the ixclient retry ladder backs off and re-attempts
// (the outage may end within the backoff budget); when retries are
// exhausted it surfaces to the core runtime, which degrades the
// operator's strategy before giving up.
var ErrUnavailable = fmt.Errorf("index partition unavailable: %w", index.ErrTransient)

// Crash is one node failure event in virtual time: the node goes down at
// At (losing its in-flight tasks and its completed-but-unfetched map
// outputs, as a Hadoop TaskTracker death does) and rejoins the cluster
// at Recover. A crashed node also loses node-local soft state — the
// per-machine lookup caches restart cold.
type Crash struct {
	Node    sim.NodeID
	At      float64
	Recover float64
}

// Outage is one index partition outage window: partition Partition of
// the index named Index cannot serve lookups during [From, Until).
// Partition -1 takes the whole index down. Until = +Inf makes the
// outage permanent (the degradation ladder then exhausts and the job
// fails).
type Outage struct {
	Index     string
	Partition int
	From      float64
	Until     float64
}

// Speculation configures Hadoop-style speculative execution: once a
// phase's median task duration is known, any task still running past
// SpecThreshold× the median gets a backup attempt on the earliest-free
// surviving node; the first finisher wins, and the loser's side effects
// are rolled back so output and cost accounting stay bit-identical to a
// fault-free run.
type Speculation struct {
	// Enabled turns speculative execution on.
	Enabled bool
	// MaxPerPhase bounds backups per phase (0 = unlimited).
	MaxPerPhase int
}

// SpecThreshold is the straggler multiple of the median task duration
// past which speculation launches a backup: 2.0, Hadoop's conservative
// default.
const SpecThreshold = 2.0

// Config describes a chaos schedule: explicit crashes and outages, and
// seeded random slowdowns (StragglerRate), so a bench can ask for "some
// stragglers, seed 7" without listing the slowed tasks.
type Config struct {
	// Seed drives the straggler draws. Two Plans built from equal Configs
	// are identical.
	Seed int64

	// Crashes are the node crash events.
	Crashes []Crash

	// Spec configures speculative execution.
	Spec Speculation
	// StragglerRate injects slowdowns: each task of each phase is slowed
	// by StragglerFactor with this probability (seeded per phase/task,
	// independent of execution order). These are the stragglers
	// speculation races against.
	StragglerRate   float64
	StragglerFactor float64

	// Outages are explicit index partition outages.
	Outages []Outage
}

// Validate rejects schedules the engine cannot apply deterministically.
func (c Config) Validate() error {
	for _, cr := range c.Crashes {
		if cr.Recover < cr.At {
			return fmt.Errorf("chaos: crash of node %d recovers at %g before it happens at %g", cr.Node, cr.Recover, cr.At)
		}
	}
	for _, o := range c.Outages {
		if o.Until < o.From {
			return fmt.Errorf("chaos: outage of %s[%d] ends at %g before it starts at %g", o.Index, o.Partition, o.Until, o.From)
		}
	}
	if c.StragglerRate < 0 || c.StragglerRate > 1 {
		return fmt.Errorf("chaos: straggler rate %g outside [0,1]", c.StragglerRate)
	}
	return nil
}

// Plan is a resolved, immutable fault schedule. It is safe for
// concurrent use: all state is computed at construction.
type Plan struct {
	cfg     Config
	crashes []Crash // sorted by At
	outages []Outage
}

// New resolves a Config against a cluster of the given node count.
func New(cfg Config, nodes int) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nodes < 1 {
		return nil, fmt.Errorf("chaos: plan needs a positive node count, got %d", nodes)
	}
	p := &Plan{cfg: cfg}
	p.crashes = append(p.crashes, cfg.Crashes...)
	sort.Slice(p.crashes, func(i, j int) bool {
		if p.crashes[i].At != p.crashes[j].At {
			return p.crashes[i].At < p.crashes[j].At
		}
		return p.crashes[i].Node < p.crashes[j].Node
	})
	p.outages = append(p.outages, cfg.Outages...)
	return p, nil
}

// MustNew is New for static schedules known to be valid (tests, benches).
func MustNew(cfg Config, nodes int) *Plan {
	p, err := New(cfg, nodes)
	if err != nil {
		panic(err)
	}
	return p
}

// Spec returns the speculative-execution settings.
func (p *Plan) Spec() Speculation { return p.cfg.Spec }

// NodeDown reports whether the node is inside a crash window at virtual
// time t.
func (p *Plan) NodeDown(n sim.NodeID, t float64) bool {
	for _, c := range p.crashes {
		if c.Node == n && t >= c.At && t < c.Recover {
			return true
		}
	}
	return false
}

// CrashesIn returns the crash events with At inside [t0, t1), in
// deterministic (At, Node) order. The engine calls it once per phase to
// find the crashes that phase must absorb.
func (p *Plan) CrashesIn(t0, t1 float64) []Crash {
	var out []Crash
	for _, c := range p.crashes {
		if c.At >= t0 && c.At < t1 {
			out = append(out, c)
		}
	}
	return out
}

// HasOutages reports whether any partition outage is scheduled, letting
// the index client skip the availability stage entirely on chaos-free
// plans.
func (p *Plan) HasOutages() bool { return len(p.outages) > 0 }

// PartitionDown reports whether the named index's partition is inside an
// outage window at virtual time t.
func (p *Plan) PartitionDown(ix string, partition int, t float64) bool {
	for _, o := range p.outages {
		if o.Index != ix {
			continue
		}
		if o.Partition >= 0 && o.Partition != partition {
			continue
		}
		if t >= o.From && t < o.Until {
			return true
		}
	}
	return false
}

// SlowFactor returns the duration multiplier chaos injects for one task
// of one phase (1 = untouched). The draw is a pure function of (seed,
// phase sequence number, task index), so it does not depend on execution
// order — serial and parallel runs slow the same tasks.
func (p *Plan) SlowFactor(phaseSeq, task int) float64 {
	if p.cfg.StragglerRate <= 0 {
		return 1
	}
	h := mix(p.cfg.Seed, int64(phaseSeq)<<32|int64(uint32(task)))
	u := float64(uint64(h)>>11) / float64(1<<53) // uniform [0,1)
	if u >= p.cfg.StragglerRate {
		return 1
	}
	f := p.cfg.StragglerFactor
	if f <= 1 {
		f = 4
	}
	return f
}

// Backoff is the deterministic capped-exponential backoff policy shared
// by the ixclient retry ladder: attempt k (0-based) waits
// min(Base·Factor^k, Cap) scaled by a seeded jitter in [1-Jitter,
// 1+Jitter]. The jitter is a pure function of (seed, token, attempt), so
// two tasks backing off against the same recovering partition desynchronize
// — no retry storm — yet every run of the same schedule waits identical
// times.
type Backoff struct {
	Base   float64
	Factor float64
	Cap    float64
	Jitter float64
	Seed   int64
}

// Wait returns the virtual seconds to back off before re-attempt number
// attempt (0-based), desynchronized by token (typically the lookup key).
func (b Backoff) Wait(token string, attempt int) float64 {
	base, factor := b.Base, b.Factor
	if base <= 0 {
		return 0
	}
	if factor <= 0 {
		factor = 2
	}
	d := base * math.Pow(factor, float64(attempt))
	if b.Cap > 0 && d > b.Cap {
		d = b.Cap
	}
	if b.Jitter > 0 {
		h := fnv.New64a()
		h.Write([]byte(token))
		u := float64(uint64(mix(b.Seed, int64(h.Sum64())^int64(attempt)))>>11) / float64(1<<53)
		d *= 1 + b.Jitter*(2*u-1)
	}
	return d
}

// Mix derives an independent deterministic stream from seed and salt —
// the exported form of mix, for callers (like the job service's backoff
// seeding) that need the same derivation outside this package.
func Mix(seed, salt int64) int64 {
	return mix(seed, salt)
}

// mix is SplitMix64 over the xor of the two operands — a cheap, well
// distributed way to derive independent deterministic streams from one
// seed.
func mix(seed, salt int64) int64 {
	z := uint64(seed) ^ (uint64(salt) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
