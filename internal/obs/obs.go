// Package obs is the virtual-time observability layer of the EFind
// runtime. It records spans (intervals of virtual time on the lanes of
// the simulated cluster: one process per node, one track per slot),
// instants (point events such as adaptive re-optimizations), per-phase
// stage profiles, and a unified metrics registry that absorbs the loose
// counters previously scattered across the engine, the index client, and
// the adaptive runtime.
//
// Everything in this package is denominated in VIRTUAL seconds — the
// deterministic simulated clock of internal/sim — never wall time. That
// is what makes the exported artifacts reproducible: serial and parallel
// executions of the same seed produce bit-identical trace and profile
// files, so the CI benchmark-regression gate can diff them byte for byte.
//
// With tracing off (a nil *Trace on the engine) the hot path does no
// work and allocates nothing; see TestSpanHotPathAllocs.
package obs

import (
	"sort"
	"sync"
)

// Span is one interval of virtual time attributed to a lane of the
// simulated cluster. Inside a running task, spans are recorded relative
// to the task's own virtual clock; the engine rebases them to absolute
// phase time when the task's placement (node, slot, start) is known.
type Span struct {
	// Name labels the span ("wc-j0/map[3]", "read", "lookup geo/kv", …).
	Name string
	// Cat is the span category ("map", "reduce", "io", "pipeline",
	// "cpu", "lookup"); it becomes the Chrome trace event category.
	Cat string
	// Node is the simulated machine (Chrome trace pid).
	Node int
	// Slot is the execution slot on the node (Chrome trace tid).
	Slot int
	// Start is the span start in virtual seconds (absolute once rebased).
	Start float64
	// Dur is the span length in virtual seconds.
	Dur float64
}

// Instant is a point event on the global timeline (a re-optimization
// decision, a plan change, a warm start).
type Instant struct {
	Name string
	Cat  string
	Time float64
}

// queuedSpan is a queued→scheduled wait, exported as a Chrome async event
// so overlapping waits of one node render on separate tracks.
type queuedSpan struct {
	Name       string
	Node       int
	ID         int
	Start, End float64
}

// StageProfile is the per-phase summary the benchmark-regression gate
// compares: the virtual makespan of one named stage plus its scheduling
// shape. Stages with equal names (e.g. an adaptive job's first-wave and
// remainder map phases) merge by summing.
type StageProfile struct {
	Name       string  `json:"name"`
	Kind       string  `json:"kind"`
	VTime      float64 `json:"vtime"`
	Tasks      int     `json:"tasks"`
	LocalTasks int     `json:"local_tasks"`
	Waves      int     `json:"waves"`
}

// IndexProfile compares, for one (operator, index) pair of one run, the
// cost model's modeled charge against what the index client's accounting
// actually charged.
type IndexProfile struct {
	// Key identifies the run and pair, e.g. "11f/l=10/base syn/kv".
	Key string `json:"key"`
	// Strategy is the plan decision that produced the charges.
	Strategy string `json:"strategy"`
	// ModeledCost is the optimizer's per-machine cost estimate in virtual
	// seconds (0 when the plan was built without statistics).
	ModeledCost float64 `json:"modeled_cost"`
	// ObservedServe is the serve time actually charged, in virtual seconds.
	ObservedServe float64 `json:"observed_serve"`
	// Lookups, CacheProbes, CacheMisses, Errors, Retries and NetRoundTrips
	// are the observed per-index counters.
	Lookups       int64 `json:"lookups"`
	CacheProbes   int64 `json:"cache_probes"`
	CacheMisses   int64 `json:"cache_misses"`
	Errors        int64 `json:"errors"`
	Retries       int64 `json:"retries"`
	NetRoundTrips int64 `json:"net_roundtrips"`
}

// Metric is one named counter value in a snapshot.
type Metric struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Gauge is one named float reading in a snapshot (adaptive statistics,
// FM-sketch estimates, figure measurements).
type Gauge struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Registry is the unified metrics registry: a typed, concurrency-safe
// home for the counters and gauges that used to live in ad-hoc
// map[string]int64 fields. Snapshots are sorted by name, so two runs
// that observed the same values serialize identically.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]int64), gauges: make(map[string]float64)}
}

// Add increments the named counter by delta.
func (r *Registry) Add(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// AddAll folds one phase's counters into the registry under one lock, every
// name prefixed when prefix is not empty — the job service namespaces each
// job's counters by "tenant/job#n/" so interleaved jobs stay separable in
// one registry.
func (r *Registry) AddAll(prefix string, ms []Metric) {
	r.mu.Lock()
	for _, m := range ms {
		r.counters[prefix+m.Name] += m.Value // no copy when prefix is empty
	}
	r.mu.Unlock()
}

// Counter returns the current value of the named counter.
func (r *Registry) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// SetGauge records the latest reading of the named gauge.
func (r *Registry) SetGauge(name string, v float64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Counters returns a deterministic snapshot: every counter, sorted by
// name.
func (r *Registry) Counters() []Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return SortedCounters(r.counters)
}

// Gauges returns a deterministic snapshot: every gauge, sorted by name.
func (r *Registry) Gauges() []Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Gauge, 0, len(r.gauges))
	for k, v := range r.gauges {
		out = append(out, Gauge{Name: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SortedCounters renders any loose counter map as a sorted snapshot —
// the one way counter maps may be turned into report output (map
// iteration order would make run-to-run diffs flaky).
func SortedCounters(m map[string]int64) []Metric {
	out := make([]Metric, 0, len(m))
	for k, v := range m {
		out = append(out, Metric{Name: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Trace accumulates one run's observability record: the virtual clock,
// spans, instants, stage profiles, index profiles, and the metrics
// registry. The engine is the only writer on the hot path (it appends
// between phases, never inside task bodies); the mutex exists so
// auxiliary writers (experiment harness sections, adaptive instants)
// stay safe if they ever race.
type Trace struct {
	// Metrics is the run's unified registry.
	Metrics *Registry

	mu       sync.Mutex
	clock    float64
	section  string
	spans    []Span
	queued   []queuedSpan
	instants []Instant
	stages   []*StageProfile
	stageIdx map[string]*StageProfile
	indexes  []IndexProfile
	nextID   int
}

// NewTrace returns an empty trace with a fresh registry.
func NewTrace() *Trace {
	return &Trace{Metrics: NewRegistry(), stageIdx: make(map[string]*StageProfile)}
}

// Clock returns the current absolute virtual time (the sum of all
// advanced phase makespans).
func (t *Trace) Clock() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clock
}

// Advance moves the virtual clock past a completed phase.
func (t *Trace) Advance(d float64) {
	t.mu.Lock()
	t.clock += d
	t.mu.Unlock()
}

// SetSection labels subsequent stages and instants with a run context
// (e.g. "11f/l=10/base") so stage names stay unique across the sweeps of
// one benchmark invocation.
func (t *Trace) SetSection(s string) {
	t.mu.Lock()
	t.section = s
	t.mu.Unlock()
}

// Qualify prefixes a name with the active section.
func (t *Trace) Qualify(name string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.section == "" {
		return name
	}
	return t.section + " " + name
}

// AddSpan appends one absolute-time span.
func (t *Trace) AddSpan(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// AddQueued records a queued→scheduled wait for one task.
func (t *Trace) AddQueued(name string, node int, start, end float64) {
	t.mu.Lock()
	t.queued = append(t.queued, queuedSpan{Name: name, Node: node, ID: t.nextID, Start: start, End: end})
	t.nextID++
	t.mu.Unlock()
}

// AddInstant records a point event at the current clock, qualified by
// the active section.
func (t *Trace) AddInstant(name, cat string) {
	t.mu.Lock()
	if t.section != "" {
		name = t.section + " " + name
	}
	t.instants = append(t.instants, Instant{Name: name, Cat: cat, Time: t.clock})
	t.mu.Unlock()
}

// AddInstantAt records a point event at an explicit absolute virtual
// time, qualified by the active section. Service-mode job runs use it:
// their events carry the service timeline's absolute times rather than
// the trace's sequential clock.
func (t *Trace) AddInstantAt(name, cat string, at float64) {
	t.mu.Lock()
	if t.section != "" {
		name = t.section + " " + name
	}
	t.instants = append(t.instants, Instant{Name: name, Cat: cat, Time: at})
	t.mu.Unlock()
}

// AddStage folds one phase summary into the trace, merging stages of
// equal name by summing (an adaptive job's split map phases report as
// one stage).
func (t *Trace) AddStage(s StageProfile) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.stageIdx[s.Name]; ok {
		prev.VTime += s.VTime
		prev.Tasks += s.Tasks
		prev.LocalTasks += s.LocalTasks
		prev.Waves += s.Waves
		return
	}
	cp := s
	t.stages = append(t.stages, &cp)
	t.stageIdx[s.Name] = &cp
}

// AddIndexProfile appends one per-index modeled-vs-observed row.
func (t *Trace) AddIndexProfile(ip IndexProfile) {
	t.mu.Lock()
	t.indexes = append(t.indexes, ip)
	t.mu.Unlock()
}

// Stages returns the stage profiles sorted by name.
func (t *Trace) Stages() []StageProfile {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageProfile, 0, len(t.stages))
	for _, s := range t.stages {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// IndexProfiles returns the per-index rows sorted by key; the rows of one
// key — the jobs of one section — keep the order they were recorded in.
func (t *Trace) IndexProfiles() []IndexProfile {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]IndexProfile, len(t.indexes))
	copy(out, t.indexes)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
