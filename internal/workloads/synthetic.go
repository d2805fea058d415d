package workloads

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"efind/internal/dfs"
	"efind/internal/kvstore"
)

// SyntheticConfig shapes the synthetic data set of §5.1: Records records
// with integer keys drawn uniformly from [0, KeyDomain), each with a
// ValueSize-byte payload, joined against an index mapping every distinct
// key to an IndexValueSize-byte value (the paper's l parameter, swept from
// 10B to 30KB).
type SyntheticConfig struct {
	Records        int
	KeyDomain      int
	ValueSize      int
	IndexValueSize int
	Partitions     int
	Replicas       int
	ServeTime      float64
	Seed           int64
}

// DefaultSyntheticConfig scales the paper's 10M×1KB setup down for the
// simulation (the record:domain ratio of 2, the source of Θ=2, is kept).
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		Records:        50000,
		KeyDomain:      25000,
		ValueSize:      1024,
		IndexValueSize: 1024,
		Partitions:     32,
		Replicas:       3,
		ServeTime:      0.001,
		Seed:           7,
	}
}

// GenerateSynthetic writes the data set and builds the matching index.
// Only keys that actually occur are loaded into the index (the paper maps
// "each distinct key" to a value of size l).
func GenerateSynthetic(fs *dfs.FS, name string, cfg SyntheticConfig) (*dfs.File, *kvstore.Store, error) {
	if cfg.Records <= 0 || cfg.KeyDomain <= 0 {
		return nil, nil, fmt.Errorf("workloads: synthetic config needs records and key domain > 0")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	recs := make([]dfs.Record, cfg.Records)
	seen := make(map[int]bool)
	payload := strings.Repeat("x", cfg.ValueSize)
	for i := range recs {
		k := rng.Intn(cfg.KeyDomain)
		seen[k] = true
		recs[i] = dfs.Record{
			Key:   fmt.Sprintf("s%08d", i),
			Value: fmt.Sprintf("%08d %s", k, payload),
		}
	}
	file, err := fs.Create(name, recs)
	if err != nil {
		return nil, nil, err
	}
	store := kvstore.NewHash(fs.Cluster(), name+"-index", cfg.Partitions, cfg.Replicas, cfg.ServeTime)
	ival := strings.Repeat("v", cfg.IndexValueSize)
	for k := range seen {
		store.Put(fmt.Sprintf("%08d", k), ival)
	}
	return file, store, nil
}

// SyntheticKey extracts the join key from a synthetic record value.
func SyntheticKey(value string) string {
	if i := strings.IndexByte(value, ' '); i > 0 {
		return value[:i]
	}
	return value
}

// SpatialConfig shapes the OSM-like location data set: Points records with
// IDs and 2-D coordinates in [0, Extent)² clustered around city-like hot
// spots, as real geographic data is.
type SpatialConfig struct {
	Points   int
	Extent   float64
	Clusters int
	Seed     int64
}

// SpatialPoint is one location record.
type SpatialPoint struct {
	ID   string
	X, Y float64
}

// Value renders the point as a stored record value.
func (p SpatialPoint) Value() string { return fmt.Sprintf("%.4f,%.4f", p.X, p.Y) }

// ParseSpatialValue parses a stored point value: two decimals, one comma.
func ParseSpatialValue(v string) (x, y float64, ok bool) {
	xs, ys, found := strings.Cut(v, ",")
	if !found {
		return 0, 0, false
	}
	x, errX := strconv.ParseFloat(xs, 64)
	y, errY := strconv.ParseFloat(ys, 64)
	if errX != nil || errY != nil {
		return 0, 0, false
	}
	return x, y, true
}

// GenerateSpatialPoints generates the point set (without writing it): a
// mix of cluster-gaussians and uniform background, like road-network data.
func GenerateSpatialPoints(cfg SpatialConfig) []SpatialPoint {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Clusters < 1 {
		cfg.Clusters = 1
	}
	type cluster struct{ cx, cy, sd float64 }
	clusters := make([]cluster, cfg.Clusters)
	for i := range clusters {
		clusters[i] = cluster{
			cx: rng.Float64() * cfg.Extent,
			cy: rng.Float64() * cfg.Extent,
			sd: cfg.Extent * (0.01 + rng.Float64()*0.04),
		}
	}
	clampCoord := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v >= cfg.Extent {
			return cfg.Extent - 1e-9
		}
		return v
	}
	pts := make([]SpatialPoint, cfg.Points)
	for i := range pts {
		var x, y float64
		if rng.Float64() < 0.8 {
			c := clusters[rng.Intn(len(clusters))]
			x = clampCoord(c.cx + rng.NormFloat64()*c.sd)
			y = clampCoord(c.cy + rng.NormFloat64()*c.sd)
		} else {
			x = rng.Float64() * cfg.Extent
			y = rng.Float64() * cfg.Extent
		}
		pts[i] = SpatialPoint{ID: fmt.Sprintf("p%07d", i), X: x, Y: y}
	}
	return pts
}

// WriteSpatial stores points as a DFS file.
func WriteSpatial(fs *dfs.FS, name string, pts []SpatialPoint) (*dfs.File, error) {
	recs := make([]dfs.Record, len(pts))
	for i, p := range pts {
		recs[i] = dfs.Record{Key: p.ID, Value: p.Value()}
	}
	return fs.Create(name, recs)
}
