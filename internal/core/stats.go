package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"efind/internal/ixclient"
	"efind/internal/mapreduce"
	"efind/internal/sim"
	"efind/internal/sketch"
)

// Counter name helpers: EFind statistics ride on MapReduce counters
// (§4.2), namespaced per operator. The per-operator record/byte counters
// live here; the per-index counters are owned by the index client pipeline
// (internal/ixclient), which maintains them, and are aliased for the
// statistics collector below.
func ctrPreIn(op string) string { return "efind." + op + ".pre.in.records" }

// Piggyback-build counters (adaptive index creation). The time counter
// deliberately ends in ".build.ns", not ".serve.ns": the job service's
// tenant budgets sum every ".serve.ns" counter, and build time is a
// deliberate investment, not serve traffic.
func ctrBuildRecords(op, ix string) string { return "efind." + op + "." + ix + ".build.records" }
func ctrBuildSplits(op, ix string) string  { return "efind." + op + "." + ix + ".build.splits" }
func ctrBuildNS(op, ix string) string      { return "efind." + op + "." + ix + ".build.ns" }

// CtrBuildCommitted counts the splits committed into buildable indices
// at the job's post-run serial point.
const CtrBuildCommitted = "efind.build.splits.committed"

func ctrPreInBytes(op string) string  { return "efind." + op + ".pre.in.bytes" }
func ctrPreOutBytes(op string) string { return "efind." + op + ".pre.out.bytes" }
func ctrIdxBytes(op string) string    { return "efind." + op + ".idx.out.bytes" }
func ctrPostBytes(op string) string   { return "efind." + op + ".post.out.bytes" }
func ctrPostRecords(op string) string { return "efind." + op + ".post.out.records" }

// Per-index counter names, defined by the index client pipeline.
var (
	ctrKeys     = ixclient.CtrKeys
	ctrKeyBytes = ixclient.CtrKeyBytes
	ctrValBytes = ixclient.CtrValBytes
	ctrLookups  = ixclient.CtrLookups
	ctrServeNS  = ixclient.CtrServeNS
	ctrProbes   = ixclient.CtrProbes
	ctrMisses   = ixclient.CtrMisses
	ctrMulti    = ixclient.CtrMulti
	skKeys      = ixclient.SkKeys
)

// ctrMapOutBytes measures the paper's Smap term (output size of the
// original Map per input record of the head operators).
const (
	ctrMapOutBytes   = "efind.map.out.bytes"
	ctrMapOutRecords = "efind.map.out.records"
	fmWidth          = ixclient.FMWidth
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

// String summarizes the catalog.
func (c *Catalog) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("catalog(%d operators)", len(c.ops))
}

// collectStats folds per-task counter samples into OperatorStats for one
// operator, updating the catalog. It is called after a wave of tasks
// completes (the paper updates the catalog whenever a Map or Reduce task
// finishes; folding a batch at the wave boundary is equivalent for the
// re-optimization decision, which happens at the wave boundary too).
func collectStats(cat *Catalog, op *Operator, tasks []mapreduce.TaskStats, env Env) *OperatorStats {
	st := &OperatorStats{Index: make(map[string]IndexStats)}
	name := op.Name()

	var records, preInBytes, preOutBytes, idxBytes, postBytes, postRecords int64
	var mapBytes int64
	sketches := make(map[string]*sketch.FM)
	// The counter names are spelled here, once, and not once per task.
	nPreIn, nPreInBytes, nPreOutBytes := ctrPreIn(name), ctrPreInBytes(name), ctrPreOutBytes(name)
	nIdxBytes, nPostBytes, nPostRecords := ctrIdxBytes(name), ctrPostBytes(name), ctrPostRecords(name)
	type idxTotals struct {
		keys, keyBytes, valBytes, lookups, serveNS, probes, misses, multi                        int64
		nKeys, nKeyBytes, nValBytes, nLookups, nServeNS, nProbes, nMisses, nMulti, nSketch, nNik string
	}
	totals := make(map[string]*idxTotals)
	for _, a := range op.Indices() {
		ix := a.Name()
		totals[ix] = &idxTotals{
			nKeys: ctrKeys(name, ix), nKeyBytes: ctrKeyBytes(name, ix), nValBytes: ctrValBytes(name, ix),
			nLookups: ctrLookups(name, ix), nServeNS: ctrServeNS(name, ix), nProbes: ctrProbes(name, ix),
			nMisses: ctrMisses(name, ix), nMulti: ctrMulti(name, ix), nSketch: skKeys(name, ix), nNik: "nik." + ix,
		}
	}

	// Per-task samples of the per-record sizes, for the variance gate.
	var samples []map[string]float64

	used := 0
	for _, t := range tasks {
		r := t.Counters.Get(nPreIn)
		if r == 0 {
			continue // task saw no records for this operator
		}
		used++
		records += r
		preInBytes += t.Counters.Get(nPreInBytes)
		preOutBytes += t.Counters.Get(nPreOutBytes)
		idxBytes += t.Counters.Get(nIdxBytes)
		postBytes += t.Counters.Get(nPostBytes)
		postRecords += t.Counters.Get(nPostRecords)
		mapBytes += t.Counters.Get(ctrMapOutBytes)

		sample := map[string]float64{
			"s1":    float64(t.Counters.Get(nPreInBytes)) / float64(r),
			"spre":  float64(t.Counters.Get(nPreOutBytes)) / float64(r),
			"sidx":  float64(t.Counters.Get(nIdxBytes)) / float64(r),
			"spost": float64(t.Counters.Get(nPostBytes)) / float64(r),
		}
		for _, a := range op.Indices() {
			ix := a.Name()
			tt := totals[ix]
			tt.keys += t.Counters.Get(tt.nKeys)
			tt.keyBytes += t.Counters.Get(tt.nKeyBytes)
			tt.valBytes += t.Counters.Get(tt.nValBytes)
			tt.lookups += t.Counters.Get(tt.nLookups)
			tt.serveNS += t.Counters.Get(tt.nServeNS)
			tt.probes += t.Counters.Get(tt.nProbes)
			tt.misses += t.Counters.Get(tt.nMisses)
			tt.multi += t.Counters.Get(tt.nMulti)
			sample[tt.nNik] = float64(t.Counters.Get(tt.nKeys)) / float64(r)
			if vecs, ok := t.Sketches[tt.nSketch]; ok {
				fm := sketch.FromVectors(vecs)
				if cur, ok := sketches[ix]; ok {
					cur.Merge(fm)
				} else {
					sketches[ix] = fm
				}
			}
		}
		samples = append(samples, sample)
	}
	if records == 0 {
		return nil
	}

	st.Tasks = used
	st.Records = records
	st.N1 = float64(records) / float64(env.Nodes)
	st.S1 = float64(preInBytes) / float64(records)
	st.Spre = float64(preOutBytes) / float64(records)
	st.Sidx = float64(idxBytes) / float64(records)
	st.Spost = float64(postBytes) / float64(records)
	st.PostRecords = postRecords
	st.Smap = float64(mapBytes) / float64(records)

	for _, a := range op.Indices() {
		ix := a.Name()
		tt := totals[ix]
		is := IndexStats{Lookups: tt.lookups, MultiKey: tt.multi > 0}
		if tt.keys > 0 {
			is.Nik = float64(tt.keys) / float64(records)
			is.Sik = float64(tt.keyBytes) / float64(tt.keys)
			is.Siv = float64(tt.valBytes) / float64(tt.keys)
		}
		if tt.lookups > 0 {
			is.Tj = float64(tt.serveNS) / 1e9 / float64(tt.lookups)
		}
		if tt.probes > 0 {
			is.R = float64(tt.misses) / float64(tt.probes)
		} else {
			is.R = 1 // pessimistic prior: never probed
		}
		is.Theta = 1
		if fm, ok := sketches[ix]; ok {
			if d := fm.Estimate(); d >= 1 {
				is.Theta = float64(tt.keys) / d
				if is.Theta < 1 {
					is.Theta = 1
				}
			}
		}
		st.Index[ix] = is
	}

	st.MaxRelStdDev = maxRelStdDev(samples)
	cat.put(name, st)
	return st
}

// maxRelStdDev computes the largest stddev/mean over the per-task samples
// of each statistic (equation (5) of the paper). Statistics with zero mean
// are skipped (they carry no signal for the cost model).
func maxRelStdDev(samples []map[string]float64) float64 {
	if len(samples) < 2 {
		// A single sample gives no variance information; report a large
		// value so Algorithm 1 waits for more tasks.
		return math.Inf(1)
	}
	keys := make([]string, 0, len(samples[0]))
	for k := range samples[0] {
		keys = append(keys, k)
	}
	worst := 0.0
	for _, k := range keys {
		var sum, sumSq float64
		for _, s := range samples {
			v := s[k]
			sum += v
			sumSq += v * v
		}
		n := float64(len(samples))
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
