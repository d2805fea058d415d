package knnj

import (
	"fmt"
	"testing"

	"efind/internal/sim"
	"efind/internal/workloads"
)

// BenchmarkSpatialIndex times the spatial index alone on Figure 13's
// point sets (seeds 21 and 22; quick |A| 1,500, |B| 6,000; full 6,000 and
// 20,000): build loads B into the default 4×8 grid, lookup answers the
// k = 10 nearest neighbours of one point of A, cycling through A.
func BenchmarkSpatialIndex(b *testing.B) {
	cluster := sim.NewCluster(sim.DefaultConfig())
	cfg := DefaultSpatialIndexConfig(1000)
	for _, sc := range []struct {
		name   string
		nA, nB int
	}{{"quick", 1500, 6000}, {"full", 6000, 20000}} {
		a := workloads.GenerateSpatialPoints(workloads.SpatialConfig{Points: sc.nA, Extent: 1000, Clusters: 16, Seed: 21})
		pts := workloads.GenerateSpatialPoints(workloads.SpatialConfig{Points: sc.nB, Extent: 1000, Clusters: 16, Seed: 22})
		for i := range pts {
			pts[i].ID = fmt.Sprintf("b%07d", i)
		}
		b.Run("build/"+sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildSpatialIndex(cluster, "spatial", pts, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("lookup/"+sc.name, func(b *testing.B) {
			idx, err := BuildSpatialIndex(cluster, "spatial", pts, cfg)
			if err != nil {
				b.Fatal(err)
			}
			keys := make([]string, len(a))
			for i, p := range a {
				keys[i] = p.Value()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Lookup(keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
