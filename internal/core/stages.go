package core

import (
	"fmt"

	"efind/internal/index"
	"efind/internal/ixclient"
	"efind/internal/mapreduce"
)

// opExec is the runtime state of one operator under one plan: one index
// client per plan decision, plus the stage builders that compile the plan
// into chained MapReduce functions. All caching, retry, error-policy, and
// cost-accounting behaviour lives inside the clients (internal/ixclient);
// this file only contains strategy logic — which key is resolved where,
// and how results travel between jobs.
//
// Nothing on the per-record path builds a counter name or hashes one: the
// names are resolved to slots of the engine's counter table here, once per
// opExec, and every stage instance — one per worker frame, reopened for each
// of its tasks — binds them when it opens (opTask).
type opExec struct {
	op   *Operator
	plan OperatorPlan

	// clients is indexed by decision position. Decisions with an inline
	// strategy get a caching client (real for LookupCache, shadow for
	// Baseline); shuffle decisions get a cache-less client, because their
	// group lookups are already deduplicated by the shuffle.
	clients []*ixclient.Client

	// slots are the operator's statistics counters (statSlots).
	slots []mapreduce.Slot
}

// newOpExec builds the operator's runtime state for tasks that count in tab.
func newOpExec(op *Operator, plan OperatorPlan, conf *IndexJobConf, tab *mapreduce.CounterTable) *opExec {
	x := &opExec{
		op:      op,
		plan:    plan,
		clients: make([]*ixclient.Client, len(plan.Decisions)),
		slots:   statSlots(tab, op),
	}
	for pos, d := range plan.Decisions {
		mode := ixclient.CacheOff
		switch d.Strategy {
		case LookupCache, Build:
			// The build strategy's lookups are cache-fronted like the
			// lookup-cache strategy (the price list prices them that way); the
			// piggyback building itself is a separate map stage.
			mode = ixclient.CacheReal
		case Baseline:
			mode = ixclient.CacheShadow
		}
		x.clients[pos] = ixclient.New(op.Indices()[d.Index], ixclient.Options{
			Op:            op.Name(),
			CacheMode:     mode,
			CacheCapacity: conf.CacheCapacity,
			ErrorPolicy:   conf.ErrorPolicy,
			Retry:         conf.Retry,
			Chaos:         conf.Chaos,
			SharedCache:   conf.SharedCache,
		})
		x.clients[pos].Resolve(tab)
	}
	return x
}

// opTask is an operator's state in one task: what a stage instance
// binds when it opens and then uses record after record — the counter
// cells, the clients' bound views, the scratch carrier, and the wrapper
// that counts postProcess output on its way downstream. The stage types
// below embed it. Tasks of different nodes run concurrently, so none of
// this lives on the shared opExec.
type opTask struct {
	x   *opExec
	ctx *mapreduce.TaskContext

	// c is the record in flight: refilled by runPre or decode for every
	// record, and done with when the stage's Process call returns.
	c carrier

	preIn, preInBytes, preOutBytes   mapreduce.Cell
	idxBytes, postRecords, postBytes mapreduce.Cell

	// bound is indexed by decision position; views are bound on first use
	// and rebound, not rebuilt, when the stage reopens for another task.
	bound []*ixclient.Bound

	// down is where the record being processed emits to; post counts a
	// postProcess output and hands it to down. post is built once, so
	// running postProcess costs no closure per record or task.
	down Emit
	post Emit
}

// open binds the operator's cells on the task and rebinds the views an
// earlier task of the instance bound. A bound cell that is never added to
// is not exported, so a stage that sees no record leaves no counter behind.
func (o *opTask) open(ctx *mapreduce.TaskContext) {
	s := o.x.slots
	o.ctx, o.down = ctx, nil
	o.preIn, o.preInBytes, o.preOutBytes = ctx.Cell(s[cPreIn]), ctx.Cell(s[cPreInBytes]), ctx.Cell(s[cPreOutBytes])
	o.idxBytes, o.postRecords, o.postBytes = ctx.Cell(s[cIdxBytes]), ctx.Cell(s[cPostRecords]), ctx.Cell(s[cPostBytes])
	if o.bound == nil {
		o.bound = make([]*ixclient.Bound, len(o.x.clients))
		o.post = func(p Pair) {
			o.postRecords.Add(1)
			o.postBytes.Add(int64(p.Size()))
			o.down(p)
		}
	}
	for _, b := range o.bound {
		if b != nil {
			b.Rebind(ctx)
		}
	}
}

// client returns the task's view of the client for the decision at pos.
func (o *opTask) client(pos int) *ixclient.Bound {
	b := o.bound[pos]
	if b == nil {
		b = o.x.clients[pos].Bind(o.ctx)
		o.bound[pos] = b
	}
	return b
}

// decode refills the task's carrier from a shuffle value. The engine wrote
// that value itself, so one that does not decode is a bug or corrupted
// intermediate data: the task aborts and the job fails by name rather than
// finishing without the record.
func (o *opTask) decode(stage, value string) *carrier {
	if err := o.c.decode(value); err != nil {
		o.ctx.Abort(fmt.Errorf("efind: operator %q %s: %w", o.x.op.Name(), stage, err))
	}
	return &o.c
}

// runPre runs preProcess into c with the N1/S1/Spre counters and flags
// records with more than one key for any index (re-partitioning
// feasibility).
func (o *opTask) runPre(c *carrier, in Pair) {
	op := o.x.op
	o.preIn.Add(1)
	o.preInBytes.Add(int64(in.Size()))
	op.runPre(in, c)
	o.preOutBytes.Add(int64(c.size()))
	for j, ks := range c.Keys {
		if len(ks) > 1 && j < op.NumIndices() {
			o.ctx.Cell(o.x.slots[opCounters+j*ixCounters+xMulti]).Add(1) // bound on first use
		}
	}
}

// finish performs the inline lookups for decisions[startPos:] — via each
// decision's client, which owns the real or shadow cache (§3.2/§4.2),
// recording the key and result statistics — and runs postProcess,
// emitting (k2, v2) pairs. Decisions before startPos must already have
// results attached (by shuffle jobs).
func (o *opTask) finish(c *carrier, startPos int, emit Emit) {
	decisions := o.x.plan.Decisions
	for pos := startPos; pos < len(decisions); pos++ {
		d := decisions[pos]
		if d.Index >= len(c.Keys) {
			continue
		}
		keys := c.Keys[d.Index]
		cl := o.client(pos)
		results := c.keyResults(len(keys))
		for _, ik := range keys {
			cl.CountKey(ik)
			values := cl.Lookup(ik)
			cl.CountValues(values)
			results = append(results, KeyResult{Key: ik, Values: values})
		}
		c.Results[d.Index] = results
	}
	o.emitPost(c, emit)
}

// emitPost charges the carrier's post-lookup size and runs postProcess.
func (o *opTask) emitPost(c *carrier, emit Emit) {
	o.idxBytes.Add(int64(c.size()))
	o.down = emit
	o.x.op.runPost(c.Pair, c.Results, o.post)
}

// inlineStage builds the fully chained stage for an operator whose plan
// has no shuffle strategies: preProcess → lookups → postProcess, all
// within the enclosing task (Figure 6's baseline layout; the lookup-cache
// strategy only changes how lookups resolve).
func (x *opExec) inlineStage() mapreduce.StageFactory {
	return func() mapreduce.Stage { return &inlineStage{opTask{x: x}} }
}

type inlineStage struct{ opTask }

func (s *inlineStage) Open(ctx *mapreduce.TaskContext) { s.open(ctx) }

func (s *inlineStage) Process(_ *mapreduce.TaskContext, in Pair, emit Emit) {
	s.runPre(&s.c, in)
	s.finish(&s.c, 0, emit)
}

func (s *inlineStage) Close(*mapreduce.TaskContext, Emit) {}

// resumeStage builds the map-side stage of the job following a shuffle:
// it decodes carriers and finishes the operator. When memoFirst is true
// (BoundaryPre), the lookup for decisions[pos] runs here with run-length
// memoization — the shuffle sorted equal keys together, so one real index
// access serves all Θ duplicates in the run.
func (x *opExec) resumeStage(pos int, memoFirst bool) mapreduce.StageFactory {
	return func() mapreduce.Stage {
		return &resumeStage{opTask: opTask{x: x}, pos: pos, memoFirst: memoFirst}
	}
}

type resumeStage struct {
	opTask
	pos       int
	memoFirst bool

	memoKey   string
	memoVals  []string
	memoValid bool
}

func (s *resumeStage) Open(ctx *mapreduce.TaskContext) {
	s.open(ctx)
	s.memoKey, s.memoVals, s.memoValid = "", nil, false
}

func (s *resumeStage) Process(_ *mapreduce.TaskContext, in Pair, emit Emit) {
	c := s.decode("resume stage", in.Value)
	next := s.pos
	if s.memoFirst {
		d := s.x.plan.Decisions[s.pos]
		if d.Index < len(c.Keys) && len(c.Keys[d.Index]) > 0 {
			ik := c.Keys[d.Index][0]
			cl := s.client(s.pos)
			cl.CountKey(ik)
			if !s.memoValid || s.memoKey != ik {
				s.memoVals = cl.Access(ik)
				s.memoKey, s.memoValid = ik, true
			}
			cl.CountValues(s.memoVals)
			c.attach(d.Index, ik, s.memoVals)
		}
		next = s.pos + 1
	}
	s.finish(c, next, emit)
}

func (s *resumeStage) Close(*mapreduce.TaskContext, Emit) {}

// shuffleEmitStage builds the map-side stage that starts an operator's
// first shuffle, for the decision at pos: it runs preProcess and emits
// (ik, carrier) keyed by the index key so the group-by collapses
// duplicates. (A later shuffle of the same operator is fed by the group
// stage before it, which re-keys the carriers it emits.)
func (x *opExec) shuffleEmitStage(pos int) mapreduce.StageFactory {
	return func() mapreduce.Stage { return &shuffleEmitStage{opTask: opTask{x: x}, pos: pos} }
}

type shuffleEmitStage struct {
	opTask
	pos int
}

func (s *shuffleEmitStage) Open(ctx *mapreduce.TaskContext) { s.open(ctx) }

func (s *shuffleEmitStage) Process(_ *mapreduce.TaskContext, in Pair, emit Emit) {
	s.runPre(&s.c, in)
	emit(shuffleRecord(&s.c, s.x.plan.Decisions[s.pos].Index))
}

func (s *shuffleEmitStage) Close(*mapreduce.TaskContext, Emit) {}

// shuffleRecord returns the carrier's shuffle record, keyed by the
// routing key for index position ixIdx. An absent key list yields a
// pass-through key, which is built with the encoding in one allocation.
func shuffleRecord(c *carrier, ixIdx int) Pair {
	if ixIdx >= 0 && ixIdx < len(c.Keys) && len(c.Keys[ixIdx]) > 0 {
		return Pair{Key: c.Keys[ixIdx][0], Value: encodeCarrier(c)}
	}
	s := encodeAfter(passKeyPrefix, c.Pair.Key, c)
	n := len(passKeyPrefix) + len(c.Pair.Key)
	return Pair{Key: s[:n], Value: s[n:]}
}

// forwardGroup is the Reduce of every shuffle job: it hands each (key,
// value) of a key group, in order, to the job's one reduce-side stage — or,
// after a BoundaryPre shuffle, which has none, to the job's output.
// The group-by itself is groupStage, which the engine instantiates once
// per worker frame and reopens per task like any stage — so what a group
// needs (the client's view, the continuation) is set up per frame and
// reset per task, not per key.
func forwardGroup(_ *mapreduce.TaskContext, key string, values []string, emit Emit) {
	for _, v := range values {
		emit(Pair{Key: key, Value: v})
	}
}

// groupStage builds the reduce side of a shuffle job for the decision at
// pos. Its input is sorted by key; a run of equal keys is one group, and
// one real lookup serves the whole group (the Θ deduplication of §3.3).
// A BoundaryPre shuffle has no group stage: it attaches nothing, so its job
// writes the sorted carriers as they came, and the next job's resume stage
// does the memoized lookups (engineJob). Behaviour depends on the boundary:
//
//   - BoundaryIdx: lookup once, attach the result to every carrier, emit
//     carriers.
//   - BoundaryLate: lookup once, attach, and run the continuation (the
//     rest of the pipeline up to the next job boundary) inside this
//     reduce, materializing its final output. The continuation is the
//     operator's own finish step — which takes the carrier as it is,
//     without a trip through the wire format — followed by the stages in
//     continuation: one instance each, chained when this stage first
//     opens and reopened and closed with it for every task.
//
// When emitNextPos ≥ 0 the operator has another shuffle index after this
// one: carriers are re-keyed by that index for the next shuffle job.
func (x *opExec) groupStage(pos int, boundary Boundary, emitNextPos int, continuation []mapreduce.StageFactory) mapreduce.StageFactory {
	return func() mapreduce.Stage {
		return &groupStage{opTask: opTask{x: x}, pos: pos, boundary: boundary, emitNextPos: emitNextPos, continuation: continuation}
	}
}

type groupStage struct {
	opTask
	pos, emitNextPos int
	boundary         Boundary
	continuation     []mapreduce.StageFactory

	// The group being read: its key, and what the index holds for it when
	// it is not a pass key.
	key      string
	inGroup  bool
	doLookup bool
	lookedUp []string

	// BoundaryLate: the continuation, chained for the context it first
	// opened on, its entry, and where its output goes for the record in
	// flight.
	rest    *mapreduce.Pipeline
	restCtx *mapreduce.TaskContext
	restIn  Emit
	out     Emit
}

func (s *groupStage) Open(ctx *mapreduce.TaskContext) {
	s.open(ctx)
	s.inGroup = false
	if s.boundary == BoundaryLate {
		if s.restCtx != ctx {
			s.rest = mapreduce.NewPipeline(ctx, nil, nil, s.continuation, func(p Pair) { s.out(p) })
			s.restCtx, s.restIn = ctx, s.rest.Process
		}
		s.rest.Open()
	}
}

func (s *groupStage) Process(_ *mapreduce.TaskContext, in Pair, emit Emit) {
	if !s.inGroup || in.Key != s.key {
		s.key, s.inGroup = in.Key, true
		if s.doLookup = !isPassKey(in.Key); s.doLookup {
			s.lookedUp = s.client(s.pos).Access(in.Key)
		}
	}
	c := s.decode("group reduce", in.Value)
	if d := s.x.plan.Decisions[s.pos]; s.doLookup && d.Index < len(c.Results) {
		cl := s.client(s.pos)
		cl.CountKey(in.Key)
		cl.CountValues(s.lookedUp)
		c.attach(d.Index, in.Key, s.lookedUp)
	}
	switch {
	case s.boundary == BoundaryLate:
		s.out = emit
		s.finish(c, s.pos+1, s.restIn)
	case s.emitNextPos >= 0:
		emit(shuffleRecord(c, s.x.plan.Decisions[s.emitNextPos].Index))
	default:
		emit(Pair{Key: in.Key, Value: encodeCarrier(c)})
	}
}

func (s *groupStage) Close(_ *mapreduce.TaskContext, emit Emit) {
	if s.rest != nil {
		s.out = emit
		s.rest.Close()
	}
}

// buildStage is the piggyback index builder: a pass-through stage on the
// main job's map scan that, for offered splits, extracts index entries
// from the records the task reads anyway and stages them for the
// post-job commit. The offer set lives on the buildTarget so the
// adaptive runtime can re-freeze it for subset phases; it is immutable
// while a job runs, so tasks read it without synchronization. Charges
// BuildCharge per extracted record — the cost model's BuildCost term —
// and counts records, staged splits, and charged nanoseconds.
func buildStage(bt *buildTarget, tab *mapreduce.CounterTable) mapreduce.StageFactory {
	p := "efind." + bt.op + "." + bt.b.Name() + ".build."
	ctrRecords, ctrNS, ctrSplits := tab.Slot(p+"records"), tab.Slot(p+"ns"), tab.Slot(p+"splits")
	return func() mapreduce.Stage {
		var entries []index.BuildEntry
		var records, ns mapreduce.Cell
		active := false
		return &mapreduce.FuncStage{
			OnOpen: func(ctx *mapreduce.TaskContext) {
				// Split, not TaskID: adaptive plan-change phases run a
				// subset of splits and the builder must key staging by
				// the global split number.
				active = ctx.Kind == mapreduce.MapTask && bt.offer[ctx.Split]
				entries = nil
				records, ns = ctx.Cell(ctrRecords), ctx.Cell(ctrNS)
			},
			OnProcess: func(ctx *mapreduce.TaskContext, in Pair, emit Emit) {
				if active {
					entries = append(entries, bt.b.Extract(in.Key, in.Value)...)
					charge := bt.b.BuildCharge()
					ctx.Charge(charge)
					records.Add(1)
					ns.Add(int64(charge * 1e9))
				}
				emit(in)
			},
			OnClose: func(ctx *mapreduce.TaskContext, emit Emit) {
				if active {
					bt.b.Stage(ctx.Node, ctx.Split, entries)
					ctx.Cell(ctrSplits).Add(1)
				}
			},
		}
	}
}

// mapperStage wraps the user's original Map function, measuring its
// output size (the paper's Smap term) in tab.
func mapperStage(m mapreduce.MapFunc, tab *mapreduce.CounterTable) mapreduce.StageFactory {
	bytes, records := tab.Slot(ctrMapOutBytes), tab.Slot(ctrMapOutRecords)
	return func() mapreduce.Stage {
		return &mapperStageInst{m: m, bytesSlot: bytes, recordsSlot: records}
	}
}

type mapperStageInst struct {
	m                      mapreduce.MapFunc
	bytesSlot, recordsSlot mapreduce.Slot
	bytes, records         mapreduce.Cell
	// down is where the record being mapped emits to; counted is built
	// once and counts a map output on its way there.
	down, counted Emit
}

func (s *mapperStageInst) Open(ctx *mapreduce.TaskContext) {
	s.bytes, s.records = ctx.Cell(s.bytesSlot), ctx.Cell(s.recordsSlot)
	if s.counted == nil {
		s.counted = func(p Pair) {
			s.bytes.Add(int64(p.Size()))
			s.records.Add(1)
			s.down(p)
		}
	}
}

func (s *mapperStageInst) Process(ctx *mapreduce.TaskContext, in Pair, emit Emit) {
	s.down = emit
	s.m(ctx, in, s.counted)
}

func (s *mapperStageInst) Close(*mapreduce.TaskContext, Emit) {}
