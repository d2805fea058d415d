package knnj

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"efind/internal/dfs"
	"efind/internal/mapreduce"
	"efind/internal/workloads"
	"efind/internal/zorder"
)

// HZConfig configures the hand-tuned H-zkNNJ comparator. The paper runs
// it with α = 2 and ε = 0.003.
type HZConfig struct {
	// K is the neighbour count.
	K int
	// Alpha is the number of randomly shifted copies (the first shift is
	// always the zero shift).
	Alpha int
	// Epsilon is the sampling rate for the quantile-estimation phase.
	Epsilon float64
	// Bits is the z-order grid resolution per dimension.
	Bits uint
	// Partitions is the number of z-range partitions per shifted copy.
	Partitions int
	Seed       int64
}

// DefaultHZConfig mirrors the paper's parameters.
func DefaultHZConfig(k int) HZConfig {
	return HZConfig{K: k, Alpha: 2, Epsilon: 0.003, Bits: 16, Partitions: 16, Seed: 99}
}

// HZResult is the outcome of a full H-zkNNJ run.
type HZResult struct {
	Join  map[string][]Neighbor
	VTime float64
	Jobs  int
}

// RunHZKNNJ executes the three-phase H-zkNNJ pipeline on the engine:
//
//  1. a sampling job estimates z-value quantiles of each shifted copy,
//     yielding balanced range-partition boundaries;
//  2. one job per shifted copy z-orders both sets, range-partitions them,
//     and generates candidate neighbours from each query point's k
//     z-order predecessors and successors;
//  3. a final job groups candidates by query point and keeps the k
//     closest distinct neighbours.
func RunHZKNNJ(engine *mapreduce.Engine, a, b []workloads.SpatialPoint, extent float64, cfg HZConfig) (*HZResult, error) {
	if cfg.K < 1 || cfg.Alpha < 1 || cfg.Partitions < 1 {
		return nil, fmt.Errorf("knnj: bad H-zkNNJ config %+v", cfg)
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.003
	}
	fs := engine.FS
	res := &HZResult{Join: make(map[string][]Neighbor)}

	// Combined tagged input: R (queries) and S (data) in one file, as the
	// hand-tuned implementation stages it.
	recs := make([]dfs.Record, 0, len(a)+len(b))
	for _, p := range a {
		recs = append(recs, dfs.Record{Key: "A:" + p.ID, Value: p.Value()})
	}
	for _, p := range b {
		recs = append(recs, dfs.Record{Key: "B:" + p.ID, Value: p.Value()})
	}
	input, err := fs.Create(fs.TempName("hz-input"), recs)
	if err != nil {
		return nil, err
	}
	defer fs.Remove(input.Name)

	grid := zorder.NewGrid(0, 0, extent, extent, cfg.Bits)
	rng := rand.New(rand.NewSource(cfg.Seed))
	shifts := make([][2]float64, cfg.Alpha)
	for i := 1; i < cfg.Alpha; i++ {
		shifts[i] = [2]float64{rng.Float64() * extent, rng.Float64() * extent}
	}

	// Phase 1: sampling job. Each map task emits a deterministic ε-sample
	// of z-values per shift; the single reducer sorts them (the group-by
	// delivers them in z order) and quantile boundaries fall out.
	boundaries, vtime, err := sampleBoundaries(engine, input, grid, shifts, cfg)
	if err != nil {
		return nil, err
	}
	res.VTime += vtime
	res.Jobs++

	// Phase 2: per-shift candidate generation.
	var candidateFiles []*dfs.File
	for si := range shifts {
		out, vt, err := candidateJob(engine, input, grid, shifts[si], boundaries[si], si, cfg)
		if err != nil {
			return nil, err
		}
		res.VTime += vt
		res.Jobs++
		candidateFiles = append(candidateFiles, out)
	}

	// Phase 3: merge candidates and select the k closest per query point.
	var all []dfs.Record
	for _, f := range candidateFiles {
		all = append(all, f.All()...)
		if err := fs.Remove(f.Name); err != nil {
			return nil, err
		}
	}
	merged, err := fs.Create(fs.TempName("hz-cand"), all)
	if err != nil {
		return nil, err
	}
	defer fs.Remove(merged.Name)

	selectJob := &mapreduce.Job{
		Name:      "hz-select",
		Input:     merged,
		NumReduce: engine.Cluster.ReduceSlots(),
		Reduce: func(_ *mapreduce.TaskContext, key string, values []string, emit mapreduce.Emit) {
			nbrs := ParseNeighbors(values)
			sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].DistSq < nbrs[j].DistSq })
			seen := map[string]bool{}
			kept := make([]string, 0, cfg.K)
			for _, n := range nbrs {
				if seen[n.ID] {
					continue
				}
				seen[n.ID] = true
				kept = append(kept, fmt.Sprintf("%s:%.6f", n.ID, n.DistSq))
				if len(kept) == cfg.K {
					break
				}
			}
			emit(mapreduce.Pair{Key: key, Value: strings.Join(kept, " ")})
		},
	}
	sel, err := engine.Run(selectJob)
	if err != nil {
		return nil, err
	}
	res.VTime += sel.VTime
	res.Jobs++
	for _, r := range sel.Output.All() {
		res.Join[r.Key] = ParseNeighbors(strings.Fields(r.Value))
	}
	if err := fs.Remove(sel.Output.Name); err != nil {
		return nil, err
	}
	return res, nil
}

// sampleBoundaries runs the sampling job and derives per-shift range
// boundaries from the sampled z-values.
func sampleBoundaries(engine *mapreduce.Engine, input *dfs.File, grid zorder.Grid, shifts [][2]float64, cfg HZConfig) ([][]string, float64, error) {
	job := &mapreduce.Job{
		Name:      "hz-sample",
		Input:     input,
		NumReduce: 1,
		Map: func(_ *mapreduce.TaskContext, in mapreduce.Pair, emit mapreduce.Emit) {
			// Deterministic ε-sampling by hashing the record id.
			if !sampled(in.Key, cfg.Epsilon) {
				return
			}
			x, y, ok := workloads.ParseSpatialValue(in.Value)
			if !ok {
				return
			}
			for si, sh := range shifts {
				z := grid.ShiftedZValue(x, y, sh[0], sh[1])
				emit(mapreduce.Pair{Key: fmt.Sprintf("%d:%016x", si, z), Value: "1"})
			}
		},
		Reduce: mapreduce.IdentityReduce,
	}
	r, err := engine.Run(job)
	if err != nil {
		return nil, 0, err
	}
	defer engine.FS.Remove(r.Output.Name)

	perShift := make([][]string, len(shifts))
	for _, rec := range r.Output.All() {
		parts := strings.SplitN(rec.Key, ":", 2)
		si, err := strconv.Atoi(parts[0])
		if err != nil || si < 0 || si >= len(shifts) {
			continue
		}
		perShift[si] = append(perShift[si], parts[1])
	}
	boundaries := make([][]string, len(shifts))
	for si, zs := range perShift {
		sort.Strings(zs)
		var bs []string
		for q := 1; q < cfg.Partitions; q++ {
			if len(zs) == 0 {
				break
			}
			bs = append(bs, zs[q*len(zs)/cfg.Partitions])
		}
		boundaries[si] = bs
	}
	return boundaries, r.VTime, nil
}

// candidateJob runs one shifted copy: z-order both sets, range-partition,
// and emit each query point's candidate neighbours.
func candidateJob(engine *mapreduce.Engine, input *dfs.File, grid zorder.Grid, shift [2]float64, bounds []string, si int, cfg HZConfig) (*dfs.File, float64, error) {
	numParts := len(bounds) + 1
	job := &mapreduce.Job{
		Name:      fmt.Sprintf("hz-shift%d", si),
		Input:     input,
		NumReduce: numParts,
		Map: func(_ *mapreduce.TaskContext, in mapreduce.Pair, emit mapreduce.Emit) {
			x, y, ok := workloads.ParseSpatialValue(in.Value)
			if !ok {
				return
			}
			z := grid.ShiftedZValue(x, y, shift[0], shift[1])
			emit(mapreduce.Pair{
				Key:   fmt.Sprintf("%016x", z),
				Value: in.Key + "|" + in.Value, // tag:id|x,y
			})
		},
		Partition: func(key string, n int) int {
			p := sort.SearchStrings(bounds, key)
			if p >= n {
				p = n - 1
			}
			return p
		},
		Reduce:            mapreduce.IdentityReduce,
		ReduceStagesAfter: []mapreduce.StageFactory{candidateStage(cfg.K)},
	}
	r, err := engine.Run(job)
	if err != nil {
		return nil, 0, err
	}
	return r.Output, r.VTime, nil
}

// taggedPoint is one z-ordered record inside a partition.
type taggedPoint struct {
	query bool
	id    string
	x, y  float64
}

// candidateStage buffers a reduce task's z-sorted records and, at close,
// emits for every query point the real distances to its k z-order
// predecessors and successors from set B (the C_i(a) candidate set of
// H-zkNNJ). The buffer is the instance's, kept for its frame's next task,
// which empties it when it opens.
func candidateStage(k int) mapreduce.StageFactory {
	return func() mapreduce.Stage {
		var buf []taggedPoint
		return &mapreduce.FuncStage{
			OnOpen: func(*mapreduce.TaskContext) { buf = buf[:0] },
			OnProcess: func(ctx *mapreduce.TaskContext, in mapreduce.Pair, _ mapreduce.Emit) {
				parts := strings.SplitN(in.Value, "|", 2)
				if len(parts) != 2 {
					return
				}
				x, y, ok := workloads.ParseSpatialValue(parts[1])
				if !ok {
					return
				}
				buf = append(buf, taggedPoint{
					query: strings.HasPrefix(parts[0], "A:"),
					id:    strings.TrimPrefix(strings.TrimPrefix(parts[0], "A:"), "B:"),
					x:     x,
					y:     y,
				})
			},
			OnClose: func(ctx *mapreduce.TaskContext, emit mapreduce.Emit) {
				// Index of B records for fast neighbour scans.
				bIdx := make([]int, 0, len(buf))
				for i, p := range buf {
					if !p.query {
						bIdx = append(bIdx, i)
					}
				}
				for i, p := range buf {
					if !p.query {
						continue
					}
					// Position of the first B record at or after i.
					pos := sort.SearchInts(bIdx, i)
					lo, hi := pos-k, pos+k
					if lo < 0 {
						lo = 0
					}
					if hi > len(bIdx) {
						hi = len(bIdx)
					}
					for _, bi := range bIdx[lo:hi] {
						q := buf[bi]
						d := (p.x-q.x)*(p.x-q.x) + (p.y-q.y)*(p.y-q.y)
						// Charge the distance computation.
						ctx.Charge(2e-8)
						emit(mapreduce.Pair{Key: p.id, Value: fmt.Sprintf("%s:%.6f", q.id, d)})
					}
				}
			},
		}
	}
}

// sampled deterministically decides whether a record joins the ε-sample.
func sampled(key string, epsilon float64) bool {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return float64(h%100000)/100000.0 < epsilon
}
