package core

import (
	"math"
	"sort"
	"sync"

	"efind/internal/ixclient"
	"efind/internal/mapreduce"
	"efind/internal/sim"
	"efind/internal/sketch"
)

// EFind statistics ride on MapReduce counters (§4.2), namespaced per
// operator — "efind.<op>.<stat>", resolved in statSlots and buildStage —;
// the per-index ones are the index client's (internal/ixclient), which
// writes them.

// CtrBuildCommitted counts the splits committed into buildable indices
// at the job's post-run serial point.
const CtrBuildCommitted = "efind.build.splits.committed"

// ctrMapOutBytes measures the paper's Smap term (output size of the
// original Map per input record of the head operators).
const (
	ctrMapOutBytes   = "efind.map.out.bytes"
	ctrMapOutRecords = "efind.map.out.records"
)

// IndexStats aggregates one (operator, index) pair's Table 1 terms.
type IndexStats struct {
	// Nik is the average number of lookup keys per input record.
	Nik float64
	// Sik and Siv are the average key and result sizes per lookup key.
	Sik, Siv float64
	// Tj is the average index serve time per lookup in seconds.
	Tj float64
	// R is the measured lookup-cache miss ratio (shadow-measured when the
	// cache strategy is off).
	R float64
	// Theta is the average number of duplicates per distinct lookup key,
	// estimated with Flajolet–Martin sketches OR-ed across tasks.
	Theta float64
	// MultiKey reports whether any record produced more than one key for
	// this index; re-partitioning requires at most one key per record.
	MultiKey bool
	// Lookups is the total number of index lookups actually performed.
	Lookups int64
}

// OperatorStats aggregates one operator's record-level terms.
type OperatorStats struct {
	// Records is the total number of records entering preProcess.
	Records int64
	// N1 is the per-machine average input count (Table 1's N1).
	N1 float64
	// S1, Spre, Sidx, Spost are the paper's average sizes per input
	// record at the respective pipeline points.
	S1, Spre, Sidx, Spost float64
	// Smap is the average original-Map output per operator input record
	// (only meaningful for head operators).
	Smap float64
	// PostRecords is the number of records postProcess emitted.
	PostRecords int64
	// Index holds per-index statistics keyed by accessor name.
	Index map[string]IndexStats
	// MaxRelStdDev is the largest stddev/mean across the collected
	// per-task samples of this operator's statistics; Algorithm 1 refuses
	// to re-optimize until it is below the variance threshold.
	MaxRelStdDev float64
	// Tasks is the number of task samples aggregated.
	Tasks int
}

// Env carries the offline-measured environment constants of Table 1.
type Env struct {
	// BW is the network bandwidth between two machines, bytes/second.
	BW float64
	// F is the paper's f: cost of storing and retrieving one byte via the
	// distributed file system, seconds/byte.
	F float64
	// Tcache is the lookup-cache probe time, seconds.
	Tcache float64
	// Nodes is the number of parallel lookup lanes used to convert record
	// totals into the per-lane N1 term. Table 1 defines N1 per machine;
	// because every map slot issues lookups concurrently, the calibrated
	// model uses total map slots here so that modeled costs are in the
	// same units as measured makespans (a documented deviation).
	Nodes int
	// JobOverhead is the fixed cost of adding one extra MapReduce job
	// (scheduling and task startup of the shuffling job). The paper notes
	// that "the cost of adding an extra MapReduce job ... can be high"
	// but leaves it out of formulas (3)–(4); modeling it explicitly keeps
	// the optimizer from chaining marginal shuffles.
	JobOverhead float64
	// LaneFactor is map slots per reduce slot. Lookups behind the
	// BoundaryIdx/BoundaryLate materializations run inside reduce tasks,
	// which have fewer parallel lanes than map tasks; their lookup term
	// is scaled up by this factor.
	LaneFactor float64
}

// laneFactor returns the reduce-lane penalty, at least 1.
func (e Env) laneFactor() float64 {
	if e.LaneFactor < 1 {
		return 1
	}
	return e.LaneFactor
}

// EnvFromCluster derives Env from the simulated cluster configuration.
func EnvFromCluster(c *sim.Cluster) Env {
	cfg := c.Config()
	return Env{
		BW:          cfg.NetBandwidth,
		F:           cfg.DFSWriteCost,
		Tcache:      cfg.CacheProbeTime,
		Nodes:       c.MapSlots(),
		JobOverhead: 4 * cfg.TaskStartup,
		LaneFactor:  float64(c.MapSlots()) / float64(c.ReduceSlots()),
	}
}

// Catalog stores operator statistics across jobs (the paper's catalog
// component, Figure 8). Safe for concurrent use.
type Catalog struct {
	mu  sync.Mutex
	ops map[string]*OperatorStats
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{ops: make(map[string]*OperatorStats)} }

// Get returns the stats for an operator, or nil when none were collected.
func (c *Catalog) Get(op string) *OperatorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops[op]
}

// put replaces an operator's stats.
func (c *Catalog) put(op string, st *OperatorStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops[op] = st
}

// Operators lists the operators with stats, sorted.
func (c *Catalog) Operators() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.ops))
	for n := range c.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// The counters one operator's statistics read, as positions of statSlots:
// the operator's own first, then each index's block.
const (
	cPreIn = iota
	cPreInBytes
	cPreOutBytes
	cIdxBytes
	cPostBytes
	cPostRecords
	cMapOutBytes
	opCounters
)

const (
	xKeys = iota
	xKeyBytes
	xValBytes
	xLookups
	xServeNS
	xProbes
	xMisses
	xMulti
	ixCounters
)

// statSlots resolves the counters one operator's statistics read in tab, at
// the positions above. The plan compiler resolves them once per plan, for
// the operator's stages to bind; collectStats once per call.
func statSlots(tab *mapreduce.CounterTable, op *Operator) []mapreduce.Slot {
	name, indices := op.Name(), op.Indices()
	slots := make([]mapreduce.Slot, opCounters+len(indices)*ixCounters)
	for i, stat := range [cMapOutBytes]string{
		cPreIn: "pre.in.records", cPreInBytes: "pre.in.bytes", cPreOutBytes: "pre.out.bytes",
		cIdxBytes: "idx.out.bytes", cPostBytes: "post.out.bytes", cPostRecords: "post.out.records",
	} {
		slots[i] = tab.Slot("efind." + name + "." + stat)
	}
	slots[cMapOutBytes] = tab.Slot(ctrMapOutBytes)
	for i, a := range indices {
		for x, ctr := range [ixCounters]func(op, ix string) string{
			xKeys: ixclient.CtrKeys, xKeyBytes: ixclient.CtrKeyBytes, xValBytes: ixclient.CtrValBytes,
			xLookups: ixclient.CtrLookups, xServeNS: ixclient.CtrServeNS, xProbes: ixclient.CtrProbes,
			xMisses: ixclient.CtrMisses, xMulti: ixclient.CtrMulti,
		} {
			slots[opCounters+i*ixCounters+x] = tab.Slot(ctr(name, a.Name()))
		}
	}
	return slots
}

// collectStats folds per-task counter samples into OperatorStats for one
// operator, updating the catalog. It is called after a wave of tasks
// completes (the paper updates the catalog whenever a Map or Reduce task
// finishes; folding a batch at the wave boundary is equivalent for the
// re-optimization decision, which happens at the wave boundary too). tab is
// the table the tasks counted in.
func collectStats(cat *Catalog, tab *mapreduce.CounterTable, op *Operator, tasks []mapreduce.TaskStats, env Env) *OperatorStats {
	st := &OperatorStats{Index: make(map[string]IndexStats)}
	name, indices := op.Name(), op.Indices()

	// A task's set is walked once, each counter read landing at its position:
	// at[slot] is 1 + the slot's position, 0 for a slot the statistics skip.
	slots := statSlots(tab, op)
	at := make([]int32, len(tab.Names()))
	for i, s := range slots {
		at[s] = int32(i + 1)
	}
	sketchNames := make([]string, len(indices))
	for i, a := range indices {
		sketchNames[i] = ixclient.SkKeys(name, a.Name())
	}
	vals, total := make([]int64, len(slots)), make([]int64, len(slots)) // one task's counters; all tasks'
	sketches := make([]*sketch.FM, len(indices))

	// Per-task samples of the per-record sizes, for the variance gate: S1,
	// Spre, Sidx, Spost and each index's Nik, width numbers per task.
	width := 4 + len(indices)
	samples := make([]float64, 0, width*len(tasks))

	used := 0
	for _, t := range tasks {
		clear(vals)
		for _, c := range t.Counters {
			if i := at[c.Slot]; i > 0 {
				vals[i-1] = c.Value
			}
		}
		r := float64(vals[cPreIn])
		if r == 0 {
			continue // task saw no records for this operator
		}
		used++
		for i, v := range vals {
			total[i] += v
		}
		samples = append(samples, float64(vals[cPreInBytes])/r, float64(vals[cPreOutBytes])/r,
			float64(vals[cIdxBytes])/r, float64(vals[cPostBytes])/r)
		for i := range indices {
			samples = append(samples, float64(vals[opCounters+i*ixCounters+xKeys])/r)
			switch vecs := t.Sketches.Get(sketchNames[i]); {
			case vecs == nil:
			case sketches[i] == nil:
				sketches[i] = sketch.FromVectors(vecs)
			default:
				sketches[i].MergeVectors(vecs)
			}
		}
	}
	records := total[cPreIn]
	if records == 0 {
		return nil
	}

	st.Tasks = used
	st.Records = records
	st.N1 = float64(records) / float64(env.Nodes)
	st.S1 = float64(total[cPreInBytes]) / float64(records)
	st.Spre = float64(total[cPreOutBytes]) / float64(records)
	st.Sidx = float64(total[cIdxBytes]) / float64(records)
	st.Spost = float64(total[cPostBytes]) / float64(records)
	st.PostRecords = total[cPostRecords]
	st.Smap = float64(total[cMapOutBytes]) / float64(records)

	for i, a := range indices {
		tt := total[opCounters+i*ixCounters:][:ixCounters]
		is := IndexStats{Lookups: tt[xLookups], MultiKey: tt[xMulti] > 0}
		if tt[xKeys] > 0 {
			is.Nik = float64(tt[xKeys]) / float64(records)
			is.Sik = float64(tt[xKeyBytes]) / float64(tt[xKeys])
			is.Siv = float64(tt[xValBytes]) / float64(tt[xKeys])
		}
		if tt[xLookups] > 0 {
			is.Tj = float64(tt[xServeNS]) / 1e9 / float64(tt[xLookups])
		}
		if tt[xProbes] > 0 {
			is.R = float64(tt[xMisses]) / float64(tt[xProbes])
		} else {
			is.R = 1 // pessimistic prior: never probed
		}
		is.Theta = 1
		if fm := sketches[i]; fm != nil {
			if d := fm.Estimate(); d >= 1 {
				is.Theta = float64(tt[xKeys]) / d
				if is.Theta < 1 {
					is.Theta = 1
				}
			}
		}
		st.Index[a.Name()] = is
	}

	st.MaxRelStdDev = maxRelStdDev(samples, width)
	cat.put(name, st)
	return st
}

// maxRelStdDev computes the largest stddev/mean over the per-task samples
// of each statistic (equation (5) of the paper): samples holds width
// statistics per task, task by task. Statistics with zero mean are skipped
// (they carry no signal for the cost model).
func maxRelStdDev(samples []float64, width int) float64 {
	n := float64(len(samples) / width)
	if n < 2 {
		// A single sample gives no variance information; report a large
		// value so Algorithm 1 waits for more tasks.
		return math.Inf(1)
	}
	worst := 0.0
	for k := 0; k < width; k++ {
		var sum, sumSq float64
		for i := k; i < len(samples); i += width {
			v := samples[i]
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		if mean == 0 {
			continue
		}
		variance := (sumSq - n*mean*mean) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		rel := math.Sqrt(variance) / math.Abs(mean)
		if rel > worst {
			worst = rel
		}
	}
	return worst
}
