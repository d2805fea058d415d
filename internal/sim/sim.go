// Package sim models the execution environment of the paper's 12-node
// Hadoop + Cassandra cluster: nodes with map/reduce slots, a switched
// network with per-pair bandwidth, local disks, and a distributed file
// system cost per byte.
//
// Nothing in this package runs on wall-clock time. Tasks report virtual
// durations (seconds of simulated time), and the wave scheduler in
// schedule.go turns a bag of tasks into a phase makespan the same way a
// Hadoop TaskTracker pool would: slots free up, locality-preferring tasks
// are placed, stragglers extend the wave.
package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// NodeID identifies a machine in the simulated cluster. Node IDs are dense
// integers in [0, Nodes).
type NodeID int

// Config holds the physical parameters of the simulated cluster. The zero
// value is not useful; start from DefaultConfig.
type Config struct {
	// Nodes is the number of worker machines.
	Nodes int
	// MapSlotsPerNode is the number of concurrent map tasks per node.
	MapSlotsPerNode int
	// ReduceSlotsPerNode is the number of concurrent reduce tasks per node.
	ReduceSlotsPerNode int
	// NetBandwidth is the point-to-point network bandwidth in bytes/second
	// (the paper's BW term).
	NetBandwidth float64
	// DiskRate is the sequential local disk read rate in bytes/second.
	DiskRate float64
	// DFSWriteCost is the paper's f term: average cost in seconds of
	// storing (3-way replicated) and later retrieving one byte through the
	// distributed file system, charged when a job materializes output.
	DFSWriteCost float64
	// CPUPerRecord is the fixed CPU cost in seconds of pushing one record
	// through a user function.
	CPUPerRecord float64
	// CPUPerByte is the marginal CPU cost in seconds of processing one
	// byte of record payload.
	CPUPerByte float64
	// CacheProbeTime is the paper's Tcache term: seconds per probe of the
	// lookup cache.
	CacheProbeTime float64
	// TaskStartup is the fixed scheduling/JVM-reuse overhead in seconds
	// charged once per task.
	TaskStartup float64
	// NodeSpeed optionally assigns per-node speed factors (1 = nominal,
	// 0.5 = a straggler running at half speed). Task durations on node n
	// are divided by NodeSpeed[n]. Nil means all nodes nominal. Models
	// the heterogeneity of "a dynamic cloud environment" the paper cites
	// when arguing against pinning reducers to index hosts (footnote 3).
	NodeSpeed []float64
	// Parallelism bounds how many task bodies execute concurrently on
	// real goroutines: 0 picks runtime.GOMAXPROCS(0) (the default), 1
	// forces the in-loop serial executor, and n > 1 runs up to n bodies
	// at once. Either executor produces bit-identical schedules, stats,
	// and outputs; see SchedulePhase.
	Parallelism int
}

// DefaultConfig mirrors the paper's testbed: 12 blade servers, 8 map and
// 4 reduce slots per TaskTracker, 1 Gbps Ethernet, SAS disks.
func DefaultConfig() Config {
	return Config{
		Nodes:              12,
		MapSlotsPerNode:    8,
		ReduceSlotsPerNode: 4,
		NetBandwidth:       125e6, // 1 Gbps
		DiskRate:           150e6, // 7200rpm SAS sequential read
		DFSWriteCost:       2.5e-8,
		CPUPerRecord:       1e-6,
		CPUPerByte:         4e-9,
		CacheProbeTime:     1e-6,
		TaskStartup:        0.1,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("sim: config needs at least one node, got %d", c.Nodes)
	case c.MapSlotsPerNode <= 0:
		return fmt.Errorf("sim: config needs at least one map slot per node, got %d", c.MapSlotsPerNode)
	case c.ReduceSlotsPerNode <= 0:
		return fmt.Errorf("sim: config needs at least one reduce slot per node, got %d", c.ReduceSlotsPerNode)
	case c.NetBandwidth <= 0:
		return fmt.Errorf("sim: network bandwidth must be positive, got %g", c.NetBandwidth)
	case c.DiskRate <= 0:
		return fmt.Errorf("sim: disk rate must be positive, got %g", c.DiskRate)
	case c.DFSWriteCost < 0:
		return fmt.Errorf("sim: DFS write cost must be non-negative, got %g", c.DFSWriteCost)
	case c.Parallelism < 0:
		return fmt.Errorf("sim: parallelism must be non-negative, got %d", c.Parallelism)
	}
	if c.NodeSpeed != nil {
		if len(c.NodeSpeed) != c.Nodes {
			return fmt.Errorf("sim: NodeSpeed has %d entries for %d nodes", len(c.NodeSpeed), c.Nodes)
		}
		for i, s := range c.NodeSpeed {
			if s <= 0 {
				return fmt.Errorf("sim: NodeSpeed[%d] must be positive, got %g", i, s)
			}
		}
	}
	return nil
}

// SpeedOf returns the speed factor of a node (1 when unconfigured).
func (c Config) SpeedOf(n NodeID) float64 {
	if c.NodeSpeed == nil || int(n) >= len(c.NodeSpeed) {
		return 1
	}
	return c.NodeSpeed[n]
}

// Cluster is the shared simulated environment: configuration plus a
// deterministic placement sequence for replica assignment.
type Cluster struct {
	cfg Config

	placeMu   sync.Mutex
	placeNext int
}

// NewCluster builds a cluster from cfg, panicking on invalid configuration
// (construction happens during setup, where failing fast is appropriate).
func NewCluster(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cluster{cfg: cfg}
}

// Config returns the cluster's physical parameters.
func (c *Cluster) Config() Config { return c.cfg }

// Nodes returns the number of machines in the cluster.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// MapSlots returns the total number of map slots across the cluster.
func (c *Cluster) MapSlots() int { return c.cfg.Nodes * c.cfg.MapSlotsPerNode }

// ReduceSlots returns the total number of reduce slots across the cluster.
func (c *Cluster) ReduceSlots() int { return c.cfg.Nodes * c.cfg.ReduceSlotsPerNode }

// PhaseWorkers returns the number of workers a phase of the given task
// count runs its bodies on — the bound on Phase.Run's worker index:
// Config.Parallelism, runtime.GOMAXPROCS(0) when unset, and no more than
// the phase has tasks or the cluster nodes. 1 is the serial executor.
func (c *Cluster) PhaseWorkers(tasks int) int {
	w := c.cfg.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, tasks, c.cfg.Nodes))
}

// NetTime returns the virtual seconds to move n bytes across the network
// unconditionally (used when the peer is known to be remote).
func (c *Cluster) NetTime(bytes float64) float64 { return bytes / c.cfg.NetBandwidth }

// DiskTime returns the virtual seconds to read n bytes from a local disk.
func (c *Cluster) DiskTime(bytes float64) float64 { return bytes / c.cfg.DiskRate }

// CPUTime returns the virtual seconds of user-function CPU for a batch of
// records totalling the given payload size.
func (c *Cluster) CPUTime(records int, bytes float64) float64 {
	return float64(records)*c.cfg.CPUPerRecord + bytes*c.cfg.CPUPerByte
}

// DFSTime returns the paper's f·bytes term for materializing job output.
func (c *Cluster) DFSTime(bytes float64) float64 { return bytes * c.cfg.DFSWriteCost }

// PlaceReplicas returns n distinct nodes for a new chunk or partition
// replica set, advancing a deterministic round-robin cursor so placement is
// spread but reproducible run to run.
func (c *Cluster) PlaceReplicas(n int) []NodeID {
	c.placeMu.Lock()
	defer c.placeMu.Unlock()
	if n > c.cfg.Nodes {
		n = c.cfg.Nodes
	}
	out := make([]NodeID, n)
	for i := range out {
		out[i] = NodeID((c.placeNext + i) % c.cfg.Nodes)
	}
	// Advance by one node, so consecutive replica sets overlap in all but
	// one member and the first replicas walk the cluster round-robin.
	c.placeNext = (c.placeNext + 1) % c.cfg.Nodes
	return out
}

// ContainsNode reports whether node appears in the replica list.
func ContainsNode(replicas []NodeID, node NodeID) bool {
	for _, r := range replicas {
		if r == node {
			return true
		}
	}
	return false
}
