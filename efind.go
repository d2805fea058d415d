// Package efind is the public API of this EFind reproduction: an
// Efficient and Flexible index access layer for MapReduce (Ma, Cao, Feng,
// Chen, Wang — EDBT 2014), together with every substrate the paper's
// evaluation needs, implemented from scratch on a simulated cluster.
//
// # What EFind is
//
// MapReduce scans one main input; many big-data jobs additionally need
// selective access to other data sources — database-like indices,
// key-value stores, knowledge bases, spatial indices, external cloud
// services. EFind is the connection layer between MapReduce and such
// "indices": developers describe index accesses declaratively
// (IndexOperator + IndexAccessor), place them anywhere in the data flow
// (before Map, between Map and Reduce, after Reduce), and the runtime
// chooses and adapts the access strategy — baseline chained lookups, a
// per-machine lookup cache, a re-partitioning shuffle that removes global
// redundancy, or index-locality scheduling that moves computation to the
// index partitions.
//
// # Quick start
//
//	cluster := efind.NewCluster(efind.DefaultConfig())
//	input, _ := cluster.CreateFile("events", records)
//	store := cluster.NewKVStore("users", 32, 3, 0.001)
//	store.Put("alice", "…profile…")
//
//	op := efind.NewOperator("profiles",
//	    func(in efind.Pair) efind.PreResult { … },
//	    func(p efind.Pair, results [][]efind.KeyResult, emit efind.Emit) { … })
//	op.AddIndex(store)
//
//	conf := &efind.IndexJobConf{Name: "enrich", Input: input, Mode: efind.ModeDynamic,
//	    Mapper: myMap, Reducer: myReduce}
//	conf.AddHeadIndexOperator(op)
//	res, _ := cluster.Submit(conf)
//
// See examples/ for complete programs and internal/experiments for the
// harness that regenerates every figure of the paper's evaluation.
package efind

import (
	"efind/internal/cloudsvc"
	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/index"
	"efind/internal/ixclient"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// Re-exported record and function types of the MapReduce substrate.
type (
	// Pair is a key/value record.
	Pair = mapreduce.Pair
	// Emit passes a record downstream.
	Emit = mapreduce.Emit
	// MapFunc is a user Map function.
	MapFunc = mapreduce.MapFunc
	// ReduceFunc is a user Reduce function.
	ReduceFunc = mapreduce.ReduceFunc
	// TaskContext identifies the running task and carries its counters.
	TaskContext = mapreduce.TaskContext
	// Record is a stored file record.
	Record = dfs.Record
	// File is a chunked replicated input/output file.
	File = dfs.File
	// NodeID identifies a simulated machine.
	NodeID = sim.NodeID
	// Config holds the simulated cluster's physical parameters.
	Config = sim.Config
)

// Re-exported EFind core types.
type (
	// Operator is the paper's IndexOperator.
	Operator = core.Operator
	// PreResult is preProcess's output.
	PreResult = core.PreResult
	// KeyResult is one index lookup outcome.
	KeyResult = core.KeyResult
	// PreFunc and PostFunc are the operator customization points. The
	// results a PostFunc receives, and their inner slices, are valid until
	// it returns and must not be modified or kept; the strings inside may
	// be. The key lists a PreFunc returns are read until the record's
	// PostFunc has returned and must not be rewritten before then.
	PreFunc  = core.PreFunc
	PostFunc = core.PostFunc
	// IndexJobConf configures an EFind-enhanced MapReduce job.
	IndexJobConf = core.IndexJobConf
	// JobResult reports a finished job.
	JobResult = core.JobResult
	// JobPlan is a complete strategy assignment.
	JobPlan = core.JobPlan
	// Mode selects the strategy policy.
	Mode = core.Mode
	// Strategy is one of the paper's four access strategies.
	Strategy = core.Strategy
	// Accessor is the index-side contract (the paper's IndexAccessor).
	Accessor = index.Accessor
	// PartitionScheme describes a distributed index's partitioning.
	PartitionScheme = index.Scheme
	// IndexClient wraps an Accessor with the runtime's index access path
	// (cache, error policy, retry, cost accounting).
	IndexClient = ixclient.Client
	// IndexClientOptions configures an IndexClient.
	IndexClientOptions = ixclient.Options
	// ErrorPolicy decides what an index error does to a running job.
	ErrorPolicy = ixclient.ErrorPolicy
	// RetryPolicy configures transient-error retries of the index access
	// path.
	RetryPolicy = ixclient.RetryPolicy
	// IndexError reports a failed index access under ErrorFailJob, naming
	// the operator, index, and lookup key.
	IndexError = ixclient.IndexError
	// KVStore is the bundled distributed key-value index service.
	KVStore = kvstore.Store
	// CloudService is the bundled single-node dynamic index service.
	CloudService = cloudsvc.Service
	// Catalog stores collected index statistics across jobs.
	Catalog = core.Catalog
)

// Execution modes (see core.Mode).
const (
	ModeBaseline  = core.ModeBaseline
	ModeCache     = core.ModeCache
	ModeCustom    = core.ModeCustom
	ModeOptimized = core.ModeOptimized
	ModeDynamic   = core.ModeDynamic
)

// Index access strategies (§3 of the paper).
const (
	Baseline      = core.Baseline
	LookupCache   = core.LookupCache
	Repartition   = core.Repartition
	IndexLocality = core.IndexLocality
)

// Index error policies (IndexJobConf.ErrorPolicy).
const (
	// ErrorCount counts index errors and continues with empty results
	// (the paper's behaviour, and the default).
	ErrorCount = core.ErrorCount
	// ErrorFailJob fails the job on the first index error.
	ErrorFailJob = core.ErrorFailJob
)

// ErrTransient marks an index error as retryable; accessors wrap it to
// opt into the index client's retry ladder.
var ErrTransient = index.ErrTransient

// NewIndexClient wraps an Accessor with the runtime's index access
// path, for use outside of jobs (tools, generators, tests). Inside a
// job the runtime builds the clients itself from IndexJobConf.
func NewIndexClient(acc Accessor, opts IndexClientOptions) *IndexClient {
	return ixclient.New(acc, opts)
}

// NewOperator builds an IndexOperator from pre/post functions (nil picks
// defaults: key-as-lookup-key pre, append-results post).
func NewOperator(name string, pre PreFunc, post PostFunc) *Operator {
	return core.NewOperator(name, pre, post)
}

// ValidateOperator dry-runs an operator against sample records and checks
// the contracts EFind's strategy equivalence depends on: deterministic
// preProcess, key lists matching the attached indices, and a postProcess
// that tolerates empty lookup results. Use it in application tests.
func ValidateOperator(op *Operator, samples []Pair) error {
	return core.ValidateOperator(op, samples)
}

// DefaultConfig returns the paper's testbed configuration: 12 nodes, 8
// map and 4 reduce slots each, 1 Gbps network.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Cluster bundles a simulated cluster, its DFS, the MapReduce engine, and
// the EFind runtime — everything a job needs.
type Cluster struct {
	Sim     *sim.Cluster
	FS      *dfs.FS
	Engine  *mapreduce.Engine
	Runtime *core.Runtime
}

// NewCluster stands up a complete environment.
func NewCluster(cfg Config) *Cluster {
	c := sim.NewCluster(cfg)
	fs := dfs.New(c)
	engine := mapreduce.New(c, fs)
	return &Cluster{Sim: c, FS: fs, Engine: engine, Runtime: core.NewRuntime(engine)}
}

// CreateFile stores records as a replicated DFS file usable as job input.
func (c *Cluster) CreateFile(name string, records []Record) (*File, error) {
	return c.FS.Create(name, records)
}

// NewKVStore creates a hash-partitioned distributed KV index on the
// cluster (partitions × replicas, serveTime seconds per lookup).
func (c *Cluster) NewKVStore(name string, partitions, replicas int, serveTime float64) *KVStore {
	return kvstore.NewHash(c.Sim, name, partitions, replicas, serveTime)
}

// NewRangeKVStore creates a range-partitioned KV index with the given
// split points.
func (c *Cluster) NewRangeKVStore(name string, splits []string, replicas int, serveTime float64) *KVStore {
	return kvstore.NewRange(c.Sim, name, splits, replicas, serveTime)
}

// NewCloudService registers a single-node dynamic index service computing
// fn per key with the given per-lookup delay.
func (c *Cluster) NewCloudService(name string, host NodeID, delay float64, fn func(key string) []string) *CloudService {
	return cloudsvc.New(name, host, delay, fn)
}

// Submit runs an EFind-enhanced job under its configured mode.
func (c *Cluster) Submit(conf *IndexJobConf) (*JobResult, error) {
	return c.Runtime.Submit(conf)
}

// CollectStats runs a statistics-gathering baseline pass so a later
// ModeOptimized submission can plan from the catalog.
func (c *Cluster) CollectStats(conf *IndexJobConf) error {
	return c.Runtime.CollectStats(conf)
}
