package core

import (
	"efind/internal/index"
	"efind/internal/ixclient"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// opExec is the runtime state of one operator under one plan: one index
// client per plan decision, plus the stage builders that compile the plan
// into chained MapReduce functions. All caching, retry, error-policy, and
// cost-accounting behaviour lives inside the clients (internal/ixclient);
// this file only contains strategy logic — which key is resolved where,
// and how results travel between jobs.
type opExec struct {
	op        *Operator
	plan      OperatorPlan
	batchSize int

	// clients is indexed by decision position. Decisions with an inline
	// strategy get a caching client (real for LookupCache, shadow for
	// Baseline); shuffle decisions get a cache-less client, because their
	// group lookups are already deduplicated by the shuffle.
	clients []*ixclient.Client
}

func newOpExec(op *Operator, plan OperatorPlan, conf *IndexJobConf) *opExec {
	x := &opExec{
		op:      op,
		plan:    plan,
		clients: make([]*ixclient.Client, len(plan.Decisions)),
	}
	if conf.Batch {
		x.batchSize = DefaultBatchSize
	}
	for pos, d := range plan.Decisions {
		mode := ixclient.CacheOff
		switch d.Strategy {
		case LookupCache, Build:
			// The build strategy's lookups are cache-fronted like the
			// lookup-cache strategy (costBuild prices them that way); the
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
			Batch:         conf.Batch,
			Chaos:         conf.Chaos,
			SharedCache:   conf.SharedCache,
		})
	}
	return x
}

// snapshotNode captures the state of the operator's clients' caches on one
// node and returns a rollback that rewinds them (see Client.SnapshotNode).
func (x *opExec) snapshotNode(node sim.NodeID) func() {
	rollbacks := make([]func(), len(x.clients))
	for i, c := range x.clients {
		rollbacks[i] = c.SnapshotNode(node)
	}
	return func() {
		for _, rb := range rollbacks {
			rb()
		}
	}
}

// resetNode drops the operator clients' caches on one node (node crash:
// per-machine soft state restarts cold).
func (x *opExec) resetNode(node sim.NodeID) {
	for _, c := range x.clients {
		c.ResetNode(node)
	}
}

// lookupInline resolves one key under the decision at pos using the
// Baseline or LookupCache strategy, via the decision's client (which owns
// the real or shadow cache, §3.2/§4.2), recording the key and result
// statistics.
func (x *opExec) lookupInline(ctx *mapreduce.TaskContext, pos int, ik string) []string {
	cl := x.clients[pos]
	cl.CountKey(ctx, ik)
	values := cl.Lookup(ctx, ik)
	cl.CountValues(ctx, values)
	return values
}

// runPreInstrumented runs preProcess with the N1/S1/Spre counters and
// flags records with more than one key for any index (re-partitioning
// feasibility).
func (x *opExec) runPreInstrumented(ctx *mapreduce.TaskContext, in Pair) *carrier {
	op := x.op.Name()
	ctx.Inc(ctrPreIn(op), 1)
	ctx.Inc(ctrPreInBytes(op), int64(in.Size()))
	pr := x.op.runPre(in)
	c := &carrier{
		Pair:    pr.Pair,
		Keys:    pr.Keys,
		Results: make([][]KeyResult, x.op.NumIndices()),
	}
	ctx.Inc(ctrPreOutBytes(op), int64(c.size()))
	for j, ks := range pr.Keys {
		if len(ks) > 1 && j < x.op.NumIndices() {
			ctx.Inc(ctrMulti(op, x.op.Indices()[j].Name()), 1)
		}
	}
	return c
}

// finishCarrier performs the inline lookups for decisions[startPos:] and
// runs postProcess, emitting (k2, v2) pairs. Decisions before startPos
// must already have results attached (by shuffle jobs).
func (x *opExec) finishCarrier(ctx *mapreduce.TaskContext, c *carrier, startPos int, emit Emit) {
	for pos := startPos; pos < len(x.plan.Decisions); pos++ {
		d := x.plan.Decisions[pos]
		if d.Index >= len(c.Keys) {
			continue
		}
		keys := c.Keys[d.Index]
		results := make([]KeyResult, 0, len(keys))
		for _, ik := range keys {
			results = append(results, KeyResult{Key: ik, Values: x.lookupInline(ctx, pos, ik)})
		}
		c.Results[d.Index] = results
	}
	x.emitPost(ctx, c, emit)
}

// emitPost charges the carrier's post-lookup size and runs postProcess.
func (x *opExec) emitPost(ctx *mapreduce.TaskContext, c *carrier, emit Emit) {
	op := x.op.Name()
	ctx.Inc(ctrIdxBytes(op), int64(c.size()))
	x.op.runPost(c.Pair, c.Results, func(p Pair) {
		ctx.Inc(ctrPostRecords(op), 1)
		ctx.Inc(ctrPostBytes(op), int64(p.Size()))
		emit(p)
	})
}

// inlineStage builds the fully chained stage for an operator whose plan
// has no shuffle strategies: preProcess → lookups → postProcess, all
// within the enclosing task (Figure 6's baseline layout; the lookup-cache
// strategy only changes how lookups resolve).
func (x *opExec) inlineStage() mapreduce.StageFactory {
	if x.batchSize > 0 {
		return x.batchedInlineStage()
	}
	return func(node sim.NodeID) mapreduce.Stage {
		return &mapreduce.FuncStage{
			OnProcess: func(ctx *mapreduce.TaskContext, in Pair, emit Emit) {
				c := x.runPreInstrumented(ctx, in)
				x.finishCarrier(ctx, c, 0, emit)
			},
		}
	}
}

// batchedInlineStage is inlineStage with record batching: carriers are
// buffered (per task) up to the configured batch size, and each flush
// resolves all buffered keys of each decision through one LookupBatch
// call, which lets BatchAccessor indices answer with one multi-get per
// partition. The output records are identical to the unbatched stage, in
// the same order; only the charged access cost differs (DESIGN.md,
// "Index client pipeline").
func (x *opExec) batchedInlineStage() mapreduce.StageFactory {
	return func(node sim.NodeID) mapreduce.Stage {
		var buf []*carrier
		flush := func(ctx *mapreduce.TaskContext, emit Emit) {
			if len(buf) == 0 {
				return
			}
			for pos := range x.plan.Decisions {
				d := x.plan.Decisions[pos]
				cl := x.clients[pos]
				var keys []string
				for _, c := range buf {
					if d.Index >= len(c.Keys) {
						continue
					}
					for _, ik := range c.Keys[d.Index] {
						cl.CountKey(ctx, ik)
						keys = append(keys, ik)
					}
				}
				vals := cl.LookupBatch(ctx, keys)
				i := 0
				for _, c := range buf {
					if d.Index >= len(c.Keys) {
						continue
					}
					ks := c.Keys[d.Index]
					results := make([]KeyResult, 0, len(ks))
					for _, ik := range ks {
						cl.CountValues(ctx, vals[i])
						results = append(results, KeyResult{Key: ik, Values: vals[i]})
						i++
					}
					c.Results[d.Index] = results
				}
			}
			for _, c := range buf {
				x.emitPost(ctx, c, emit)
			}
			buf = buf[:0]
		}
		return &mapreduce.FuncStage{
			OnProcess: func(ctx *mapreduce.TaskContext, in Pair, emit Emit) {
				buf = append(buf, x.runPreInstrumented(ctx, in))
				if len(buf) >= x.batchSize {
					flush(ctx, emit)
				}
			},
			OnClose: flush,
		}
	}
}

// resumeStage builds the map-side stage of the job following a shuffle:
// it decodes carriers and finishes the operator. When memoFirst is true
// (BoundaryPre), the lookup for decisions[pos] runs here with run-length
// memoization — the shuffle sorted equal keys together, so one real index
// access serves all Θ duplicates in the run.
func (x *opExec) resumeStage(pos int, memoFirst bool) mapreduce.StageFactory {
	return func(node sim.NodeID) mapreduce.Stage {
		var memoKey string
		var memoVals []string
		var memoValid bool
		return &mapreduce.FuncStage{
			OnProcess: func(ctx *mapreduce.TaskContext, in Pair, emit Emit) {
				c, err := decodeCarrier(in.Value)
				if err != nil {
					ctx.Inc("efind."+x.op.Name()+".carrier.errors", 1)
					return
				}
				next := pos
				if memoFirst {
					d := x.plan.Decisions[pos]
					if d.Index < len(c.Keys) && len(c.Keys[d.Index]) > 0 {
						ik := c.Keys[d.Index][0]
						cl := x.clients[pos]
						cl.CountKey(ctx, ik)
						if !memoValid || memoKey != ik {
							memoVals = cl.Access(ctx, ik)
							memoKey, memoValid = ik, true
						}
						cl.CountValues(ctx, memoVals)
						c.Results[d.Index] = []KeyResult{{Key: ik, Values: memoVals}}
					}
					next = pos + 1
				}
				x.finishCarrier(ctx, c, next, emit)
			},
		}
	}
}

// shuffleEmitStage builds the map-side stage that starts a shuffle for the
// decision at pos: it runs preProcess (when the operator's records arrive
// as plain pairs) or decodes carriers (when chained after an earlier
// shuffle), then emits (ik, carrier) keyed by the index key so the
// group-by collapses duplicates.
func (x *opExec) shuffleEmitStage(pos int, carrierIn bool) mapreduce.StageFactory {
	return func(node sim.NodeID) mapreduce.Stage {
		return &mapreduce.FuncStage{
			OnProcess: func(ctx *mapreduce.TaskContext, in Pair, emit Emit) {
				var c *carrier
				if carrierIn {
					var err error
					c, err = decodeCarrier(in.Value)
					if err != nil {
						ctx.Inc("efind."+x.op.Name()+".carrier.errors", 1)
						return
					}
				} else {
					c = x.runPreInstrumented(ctx, in)
				}
				d := x.plan.Decisions[pos]
				ixIdx := -1
				if d.Index < len(c.Keys) {
					ixIdx = d.Index
				}
				key, _ := shuffleKeyFor(c, ixIdx)
				emit(Pair{Key: key, Value: encodeCarrier(c)})
			},
		}
	}
}

// shuffleKeyFor returns the routing key for index position ixIdx of the
// carrier (-1 or an absent key list yields a pass-through key).
func shuffleKeyFor(c *carrier, ixIdx int) (string, bool) {
	if ixIdx >= 0 && ixIdx < len(c.Keys) && len(c.Keys[ixIdx]) > 0 {
		return c.Keys[ixIdx][0], true
	}
	return passKeyPrefix + c.Pair.Key, false
}

// groupReduce builds the reduce function of a shuffle job for the decision
// at pos. The group key is the index key; one real lookup serves the whole
// group (the Θ deduplication of §3.3). Behaviour then depends on the
// boundary:
//
//   - BoundaryPre: no lookup here; grouped carriers are re-emitted so the
//     next job's map can do memoized lookups (possibly with index
//     locality placement).
//   - BoundaryIdx: lookup once, attach the result to every carrier, emit
//     carriers.
//   - BoundaryLate: lookup once, attach, and run the continuation stages
//     (the rest of the pipeline up to the next job boundary) inside this
//     reduce, materializing their final output.
//
// When emitNextKey ≥ 0 the operator has another shuffle index after this
// one: carriers are re-keyed by that index for the next shuffle job.
func (x *opExec) groupReduce(pos int, boundary Boundary, emitNextPos int, continuation []mapreduce.StageFactory) mapreduce.ReduceFunc {
	return func(ctx *mapreduce.TaskContext, key string, values []string, emit Emit) {
		d := x.plan.Decisions[pos]
		pass := isPassKey(key)

		var lookedUp []string
		doLookup := boundary != BoundaryPre && !pass
		if doLookup {
			lookedUp = x.clients[pos].Access(ctx, key)
		}

		// The BoundaryLate continuation runs as a stage pipeline inside the
		// reduce function. Stages are instantiated once per group; the stage
		// factories' node-level state (caches) still dedups across groups.
		var contPipe *mapreduce.Pipeline
		if boundary == BoundaryLate {
			contPipe = mapreduce.NewPipeline(ctx, ctx.Node, nil, nil, continuation, emit)
			contPipe.Open()
			defer contPipe.Close()
		}

		for _, v := range values {
			c, err := decodeCarrier(v)
			if err != nil {
				ctx.Inc("efind."+x.op.Name()+".carrier.errors", 1)
				continue
			}
			if doLookup && d.Index < len(c.Results) {
				cl := x.clients[pos]
				cl.CountKey(ctx, key)
				cl.CountValues(ctx, lookedUp)
				c.Results[d.Index] = []KeyResult{{Key: key, Values: lookedUp}}
			}
			switch {
			case boundary == BoundaryLate:
				contPipe.Process(Pair{Key: key, Value: encodeCarrier(c)})
			case emitNextPos >= 0:
				nd := x.plan.Decisions[emitNextPos]
				nk, _ := shuffleKeyFor(c, nd.Index)
				emit(Pair{Key: nk, Value: encodeCarrier(c)})
			default:
				emit(Pair{Key: key, Value: encodeCarrier(c)})
			}
		}
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
func buildStage(bt *buildTarget) mapreduce.StageFactory {
	op, ix := bt.op, bt.b.Name()
	return func(node sim.NodeID) mapreduce.Stage {
		var entries []index.BuildEntry
		active := false
		return &mapreduce.FuncStage{
			OnOpen: func(ctx *mapreduce.TaskContext) {
				// Split, not TaskID: adaptive plan-change phases run a
				// subset of splits and the builder must key staging by
				// the global split number.
				active = ctx.Kind == mapreduce.MapTask && bt.offer[ctx.Split]
				entries = nil
			},
			OnProcess: func(ctx *mapreduce.TaskContext, in Pair, emit Emit) {
				if active {
					entries = append(entries, bt.b.Extract(in.Key, in.Value)...)
					charge := bt.b.BuildCharge()
					ctx.Charge(charge)
					ctx.Inc(ctrBuildRecords(op, ix), 1)
					ctx.Inc(ctrBuildNS(op, ix), int64(charge*1e9))
				}
				emit(in)
			},
			OnClose: func(ctx *mapreduce.TaskContext, emit Emit) {
				if active {
					bt.b.Stage(ctx.Node, ctx.Split, entries)
					ctx.Inc(ctrBuildSplits(op, ix), 1)
				}
			},
		}
	}
}

// mapperStage wraps the user's original Map function, measuring its
// output size (the paper's Smap term).
func mapperStage(m mapreduce.MapFunc) mapreduce.StageFactory {
	return func(sim.NodeID) mapreduce.Stage {
		return &mapreduce.FuncStage{
			OnProcess: func(ctx *mapreduce.TaskContext, in Pair, emit Emit) {
				m(ctx, in, func(p Pair) {
					ctx.Inc(ctrMapOutBytes, int64(p.Size()))
					ctx.Inc(ctrMapOutRecords, 1)
					emit(p)
				})
			},
		}
	}
}
