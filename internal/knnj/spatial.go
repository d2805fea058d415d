// Package knnj implements both sides of the paper's k-nearest-neighbour
// join experiment (§5.4, Figure 13):
//
//   - an EFind solution: set A is the main MapReduce input and set B is
//     indexed by a grid of 4×8 cells with small overlapping regions, each
//     replicated to 3 machines and answering exact kNN over its points
//     (the paper builds an R*-tree per cell; here each cell keeps its
//     points sorted by x), exposed as an index.Partitioned accessor, so
//     the whole join is an index nested-loop through the ordinary EFind
//     strategies;
//   - the hand-tuned comparator H-zkNNJ (Zhang, Li, Jestes — EDBT 2012):
//     α shifted copies, z-value range partitioning from sampled
//     quantiles, per-partition candidate generation over the z-order, and
//     a final selection job.
package knnj

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"efind/internal/index"
	"efind/internal/sim"
	"efind/internal/workloads"
)

// SpatialIndex is a distributed grid over point set B, answering "k
// nearest neighbours of (x, y)" lookups exactly over the points of the
// query's cell. It implements index.Partitioned: the partition of a
// lookup key is the grid cell containing the query point, which is
// exactly what the index-locality strategy needs.
type SpatialIndex struct {
	name   string
	k      int
	extent float64
	gx, gy int
	// cells holds each cell's overlap-widened points, stably sorted by x.
	cells     [][]workloads.SpatialPoint
	scheme    index.Scheme
	serveTime float64
}

var _ index.Partitioned = (*SpatialIndex)(nil)

// SpatialIndexConfig configures the grid.
type SpatialIndexConfig struct {
	// GX×GY is the cell grid (the paper uses 4×8 over the US map).
	GX, GY int
	// Extent is the coordinate domain [0, Extent)².
	Extent float64
	// Overlap is the fraction of a cell's width/height included from
	// neighbouring cells ("small overlapping regions"), so border queries
	// stay accurate without cross-cell coordination.
	Overlap float64
	// K is the neighbour count served per lookup.
	K int
	// Replicas is the replication factor per cell (paper: 3).
	Replicas int
	// ServeTime is the index-side time per kNN search.
	ServeTime float64
}

// DefaultSpatialIndexConfig mirrors the paper's setup.
func DefaultSpatialIndexConfig(extent float64) SpatialIndexConfig {
	return SpatialIndexConfig{GX: 4, GY: 8, Extent: extent, Overlap: 0.25, K: 10, Replicas: 3, ServeTime: 0.001}
}

// BuildSpatialIndex loads point set B into the grid.
func BuildSpatialIndex(cluster *sim.Cluster, name string, pts []workloads.SpatialPoint, cfg SpatialIndexConfig) (*SpatialIndex, error) {
	if cfg.GX < 1 || cfg.GY < 1 || cfg.Extent <= 0 || cfg.K < 1 {
		return nil, fmt.Errorf("knnj: bad spatial index config %+v", cfg)
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	s := &SpatialIndex{
		name:      name,
		k:         cfg.K,
		extent:    cfg.Extent,
		gx:        cfg.GX,
		gy:        cfg.GY,
		cells:     make([][]workloads.SpatialPoint, cfg.GX*cfg.GY),
		serveTime: cfg.ServeTime,
	}
	cw := cfg.Extent / float64(cfg.GX)
	ch := cfg.Extent / float64(cfg.GY)
	for _, p := range pts {
		// Insert into every cell whose overlap-expanded bounds contain the
		// point (usually one, up to four near corners).
		for cx := 0; cx < cfg.GX; cx++ {
			for cy := 0; cy < cfg.GY; cy++ {
				minX := float64(cx)*cw - cfg.Overlap*cw
				maxX := float64(cx+1)*cw + cfg.Overlap*cw
				minY := float64(cy)*ch - cfg.Overlap*ch
				maxY := float64(cy+1)*ch + cfg.Overlap*ch
				if p.X >= minX && p.X < maxX && p.Y >= minY && p.Y < maxY {
					c := cy*cfg.GX + cx
					s.cells[c] = append(s.cells[c], p)
				}
			}
		}
	}
	for _, c := range s.cells {
		slices.SortStableFunc(c, func(p, q workloads.SpatialPoint) int { return cmp.Compare(p.X, q.X) })
	}
	hosts := make([][]sim.NodeID, len(s.cells))
	for i := range hosts {
		hosts[i] = cluster.PlaceReplicas(cfg.Replicas)
	}
	s.scheme = index.Scheme{
		Partitions: len(s.cells),
		Fn:         s.cellOf,
		Hosts:      hosts,
	}
	return s, nil
}

// cellOf maps a "x,y" lookup key to its grid cell.
func (s *SpatialIndex) cellOf(key string) int {
	x, y, ok := workloads.ParseSpatialValue(key)
	if !ok {
		return 0
	}
	return s.cellAt(x, y)
}

// cellAt maps a point to the grid cell containing it, clamping points
// outside the extent to the nearest edge cell.
func (s *SpatialIndex) cellAt(x, y float64) int {
	cx := int(x / s.extent * float64(s.gx))
	cy := int(y / s.extent * float64(s.gy))
	if cx < 0 {
		cx = 0
	}
	if cx >= s.gx {
		cx = s.gx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= s.gy {
		cy = s.gy - 1
	}
	return cy*s.gx + cx
}

// Name implements index.Accessor.
func (s *SpatialIndex) Name() string { return s.name }

// Lookup implements index.Accessor: the key is a "x,y" coordinate string;
// the result is the k nearest B-points as "id:distSq" strings in
// ascending distance order (a dynamic index in the paper's sense — any
// coordinate is a valid key).
func (s *SpatialIndex) Lookup(key string) ([]string, error) {
	x, y, ok := workloads.ParseSpatialValue(key)
	if !ok {
		return nil, fmt.Errorf("knnj: bad spatial key %q", key)
	}
	cell := s.cells[s.cellAt(x, y)]
	// Sweep outward from x, always to the side with the smaller Δx; once
	// the next Δx² reaches the k-th best distance, no point left can beat it.
	hi, _ := slices.BinarySearchFunc(cell, x, func(p workloads.SpatialPoint, x float64) int { return cmp.Compare(p.X, x) })
	lo := hi - 1
	best := make([]Neighbor, 0, min(s.k, len(cell)))
	for lo >= 0 || hi < len(cell) {
		var p workloads.SpatialPoint
		if hi == len(cell) || lo >= 0 && x-cell[lo].X < cell[hi].X-x {
			p, lo = cell[lo], lo-1
		} else {
			p, hi = cell[hi], hi+1
		}
		dx, dy := p.X-x, p.Y-y
		if len(best) == s.k && dx*dx >= best[s.k-1].DistSq {
			break
		}
		d := dx*dx + dy*dy
		i := len(best)
		if i < s.k {
			best = append(best, Neighbor{})
		} else if d >= best[i-1].DistSq {
			continue
		} else {
			i-- // the farthest drops out
		}
		for ; i > 0 && best[i-1].DistSq > d; i-- {
			best[i] = best[i-1]
		}
		best[i] = Neighbor{ID: p.ID, DistSq: d}
	}
	out := make([]string, len(best))
	for i, n := range best {
		out[i] = n.ID + ":" + strconv.FormatFloat(n.DistSq, 'f', 6, 64)
	}
	return out, nil
}

// ServeTime implements index.Accessor.
func (s *SpatialIndex) ServeTime() float64 { return s.serveTime }

// HostsFor implements index.Accessor.
func (s *SpatialIndex) HostsFor(key string) []sim.NodeID {
	return s.scheme.Hosts[s.cellOf(key)]
}

// Scheme implements index.Partitioned.
func (s *SpatialIndex) Scheme() *index.Scheme { return &s.scheme }

// Neighbor is a parsed kNN result entry.
type Neighbor struct {
	ID     string
	DistSq float64
}

// ParseNeighbors decodes the "id:distSq" lookup results.
func ParseNeighbors(values []string) []Neighbor {
	out := make([]Neighbor, 0, len(values))
	for _, v := range values {
		i := strings.LastIndexByte(v, ':')
		if i <= 0 {
			continue
		}
		d, err := strconv.ParseFloat(v[i+1:], 64)
		if err != nil {
			continue
		}
		out = append(out, Neighbor{ID: v[:i], DistSq: d})
	}
	return out
}

// BruteForceKNN computes the exact kNN join of a against b (reference for
// recall measurements in tests and the experiment harness). Each point's
// neighbours come nearest first, kept by a bounded insertion into the k
// best so far: of equal distances the one earlier in b comes first and,
// at the k-th place, is the one kept — what a stable sort of b by
// distance, cut to k, yields.
func BruteForceKNN(a, b []workloads.SpatialPoint, k int) map[string][]Neighbor {
	out := make(map[string][]Neighbor, len(a))
	for _, p := range a {
		nbrs := make([]Neighbor, 0, min(k, len(b)))
		for _, q := range b {
			d := (p.X-q.X)*(p.X-q.X) + (p.Y-q.Y)*(p.Y-q.Y)
			i := len(nbrs)
			if i < k {
				nbrs = append(nbrs, Neighbor{})
			} else if k == 0 || d >= nbrs[k-1].DistSq {
				continue
			} else {
				i = k - 1 // the farthest drops out
			}
			for ; i > 0 && nbrs[i-1].DistSq > d; i-- {
				nbrs[i] = nbrs[i-1]
			}
			nbrs[i] = Neighbor{ID: q.ID, DistSq: d}
		}
		out[p.ID] = nbrs
	}
	return out
}

// Recall measures the fraction of exact neighbours found, averaged over
// all query points.
func Recall(got map[string][]Neighbor, exact map[string][]Neighbor) float64 {
	if len(exact) == 0 {
		return 1
	}
	total, hit := 0, 0
	for id, want := range exact {
		have := map[string]bool{}
		for _, n := range got[id] {
			have[n.ID] = true
		}
		for _, w := range want {
			total++
			if have[w.ID] {
				hit++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}
