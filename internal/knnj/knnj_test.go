package knnj

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/mapreduce"
	"efind/internal/sim"
	"efind/internal/workloads"
	"efind/internal/zorder"
)

func knnEnv(t *testing.T) (*sim.Cluster, *dfs.FS, *mapreduce.Engine) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Nodes = 6
	cfg.MapSlotsPerNode = 2
	cfg.ReduceSlotsPerNode = 2
	cfg.TaskStartup = 0.05
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 8 << 10
	return cluster, fs, mapreduce.New(cluster, fs)
}

func points(n int, seed int64) []workloads.SpatialPoint {
	return GenerateTestPoints(n, seed)
}

// GenerateTestPoints wraps the workload generator with a distinct seed
// space for A vs B sets.
func GenerateTestPoints(n int, seed int64) []workloads.SpatialPoint {
	cfg := workloads.SpatialConfig{Points: n, Extent: 1000, Clusters: 10, Seed: seed}
	pts := workloads.GenerateSpatialPoints(cfg)
	for i := range pts {
		pts[i].ID = fmt.Sprintf("s%d-%05d", seed, i)
	}
	return pts
}

func TestSpatialIndexLookupAccuracy(t *testing.T) {
	cluster, _, _ := knnEnv(t)
	b := points(4000, 2)
	cfg := DefaultSpatialIndexConfig(1000)
	cfg.K = 10
	idx, err := BuildSpatialIndex(cluster, "bidx", b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := points(200, 3)
	exact := BruteForceKNN(a, b, 10)
	got := map[string][]Neighbor{}
	for _, p := range a {
		vals, err := idx.Lookup(p.Value())
		if err != nil {
			t.Fatal(err)
		}
		got[p.ID] = ParseNeighbors(vals)
	}
	// The fixed-overlap grid is inherently approximate near cell borders
	// in sparse regions (the paper's design has the same property); the
	// bar is high recall, not exactness.
	r := Recall(got, exact)
	if r < 0.85 {
		t.Fatalf("spatial grid recall = %.3f, want ≥0.85", r)
	}
}

// TestSpatialIndexLookupExactPerCell: a lookup returns the k nearest of
// its query cell's overlap-widened points — the same distances, nearest
// first, as a stable sort of a scan of that cell cut to k, each ID a
// point of the cell at the distance given, no ID twice, and the same IDs
// when the lookup repeats. The cell is recomputed here from the
// configuration: the cell containing the query point, clamped to the grid
// for keys outside the extent.
func TestSpatialIndexLookupExactPerCell(t *testing.T) {
	const extent = 1000
	cfg := DefaultSpatialIndexConfig(extent)
	cw, ch := extent/float64(cfg.GX), extent/float64(cfg.GY)
	rng := rand.New(rand.NewSource(42))
	labelled := func(prefix string, pts []workloads.SpatialPoint) []workloads.SpatialPoint {
		for i := range pts {
			pts[i].ID = fmt.Sprintf("%s%d", prefix, i)
		}
		return pts
	}
	// onLines puts n points on the grid's cell edges and on the edges of
	// the overlap-widened bounds (quarters of a cell), a third of them on
	// a point drawn before.
	onLines := func(n int) []workloads.SpatialPoint {
		pts := make([]workloads.SpatialPoint, n)
		for i := range pts {
			if i > 0 && rng.Intn(3) == 0 {
				pts[i] = pts[rng.Intn(i)]
				continue
			}
			pts[i] = workloads.SpatialPoint{X: float64(rng.Intn(4*cfg.GX)) * cw / 4, Y: float64(rng.Intn(4*cfg.GY)) * ch / 4}
		}
		return labelled("e", pts)
	}
	keys := func(pts []workloads.SpatialPoint) []string {
		out := make([]string, len(pts))
		for i, p := range pts {
			out[i] = p.Value()
		}
		return out
	}
	uniform := make([]workloads.SpatialPoint, 48)
	for i := range uniform {
		uniform[i] = workloads.SpatialPoint{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	dups := make([]workloads.SpatialPoint, 600)
	for i := range dups {
		if i > 0 && rng.Intn(3) == 0 {
			dups[i] = dups[rng.Intn(i)]
		} else {
			dups[i] = workloads.SpatialPoint{X: 5 + float64(rng.Intn(40))*25, Y: 5 + float64(rng.Intn(40))*25}
		}
	}
	edges := onLines(800)
	for _, tc := range []struct {
		name string
		b    []workloads.SpatialPoint
		keys []string
		k    int
	}{
		{"clustered", points(4000, 2), keys(points(300, 3)), 10},
		{"sparse cells", labelled("u", uniform), keys(points(100, 4)), 10},
		{"duplicates", labelled("d", dups), keys(dups[:150]), 7},
		{"edges", edges, keys(edges[:200]), 10},
		{"outside extent", points(2000, 5), []string{"-40.0000,500.0000", "1000.0000,1000.0000", "2500.0000,-7.5000", "499.9999,1200.0000", "-1.0000,-1.0000"}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster, _, _ := knnEnv(t)
			c := cfg
			c.K = tc.k
			idx, err := BuildSpatialIndex(cluster, "bidx", tc.b, c)
			if err != nil {
				t.Fatal(err)
			}
			short := 0
			for _, key := range tc.keys {
				x, y, ok := workloads.ParseSpatialValue(key)
				if !ok {
					t.Fatalf("bad key %q", key)
				}
				cx := min(max(int(x/extent*float64(c.GX)), 0), c.GX-1)
				cy := min(max(int(y/extent*float64(c.GY)), 0), c.GY-1)
				minX, maxX := (float64(cx)-c.Overlap)*cw, (float64(cx+1)+c.Overlap)*cw
				minY, maxY := (float64(cy)-c.Overlap)*ch, (float64(cy+1)+c.Overlap)*ch
				dist := map[string]string{}
				var want []Neighbor
				for _, p := range tc.b {
					if p.X >= minX && p.X < maxX && p.Y >= minY && p.Y < maxY {
						d := (p.X-x)*(p.X-x) + (p.Y-y)*(p.Y-y)
						want = append(want, Neighbor{ID: p.ID, DistSq: d})
						dist[p.ID] = fmt.Sprintf("%.6f", d)
					}
				}
				sort.SliceStable(want, func(i, j int) bool { return want[i].DistSq < want[j].DistSq })
				want = want[:min(tc.k, len(want))]
				if len(want) < tc.k {
					short++
				}
				got, err := idx.Lookup(key)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("key %s, cell (%d,%d): %d neighbours, want %d:\n got %v\nwant %v", key, cx, cy, len(got), len(want), got, want)
				}
				seen := map[string]bool{}
				for i, v := range got {
					id, d, _ := strings.Cut(v, ":")
					if w := fmt.Sprintf("%.6f", want[i].DistSq); d != w || dist[id] != d || seen[id] {
						t.Fatalf("key %s, cell (%d,%d), neighbour %d: %s; want distance %s from a point of the cell, each once:\n got %v\nwant %v", key, cx, cy, i, v, w, got, want)
					}
					seen[id] = true
				}
				if again, _ := idx.Lookup(key); !slices.Equal(again, got) {
					t.Fatalf("key %s: repeated lookup returned %v, first %v", key, again, got)
				}
			}
			if tc.name == "sparse cells" && short == 0 {
				t.Fatal("no query cell held fewer than k points")
			}
		})
	}
}

func TestSpatialIndexSchemeConsistent(t *testing.T) {
	cluster, _, _ := knnEnv(t)
	idx, err := BuildSpatialIndex(cluster, "bidx", points(500, 4), DefaultSpatialIndexConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	sch := idx.Scheme()
	if sch.Partitions != 32 {
		t.Fatalf("partitions = %d, want 4×8", sch.Partitions)
	}
	for _, p := range points(100, 5) {
		cell := sch.Fn(p.Value())
		if cell < 0 || cell >= 32 {
			t.Fatalf("cell %d out of range", cell)
		}
		hosts := idx.HostsFor(p.Value())
		if len(hosts) != 3 {
			t.Fatalf("hosts = %v", hosts)
		}
		for i := range hosts {
			if hosts[i] != sch.Hosts[cell][i] {
				t.Fatal("HostsFor disagrees with scheme")
			}
		}
	}
}

func TestSpatialIndexBadConfig(t *testing.T) {
	cluster, _, _ := knnEnv(t)
	if _, err := BuildSpatialIndex(cluster, "x", nil, SpatialIndexConfig{}); err == nil {
		t.Fatal("zero config should fail")
	}
}

func TestParseNeighborsRobust(t *testing.T) {
	got := ParseNeighbors([]string{"a:1.5", "bad", "b:2.25", ":3", "c:xyz"})
	if len(got) != 2 || got[0].ID != "a" || got[1].DistSq != 2.25 {
		t.Fatalf("parsed %v", got)
	}
}

func TestRecallMetric(t *testing.T) {
	exact := map[string][]Neighbor{"q": {{ID: "a"}, {ID: "b"}}}
	if r := Recall(map[string][]Neighbor{"q": {{ID: "a"}, {ID: "b"}}}, exact); r != 1 {
		t.Fatalf("perfect recall = %g", r)
	}
	if r := Recall(map[string][]Neighbor{"q": {{ID: "a"}}}, exact); r != 0.5 {
		t.Fatalf("half recall = %g", r)
	}
	if r := Recall(nil, nil); r != 1 {
		t.Fatalf("empty recall = %g", r)
	}
}

func TestEFindKNNJoin(t *testing.T) {
	cluster, fs, engine := knnEnv(t)
	rt := core.NewRuntime(engine)
	b := points(3000, 6)
	a := points(400, 7)
	idxCfg := DefaultSpatialIndexConfig(1000)
	idxCfg.K = 5
	idx, err := BuildSpatialIndex(cluster, "bidx", b, idxCfg)
	if err != nil {
		t.Fatal(err)
	}
	input, err := workloads.WriteSpatial(fs, "a-points", a)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []struct {
		label string
		mode  core.Mode
		strat core.Strategy
		force bool
	}{
		{"base", core.ModeBaseline, 0, false},
		{"idxloc", core.ModeCustom, core.IndexLocality, true},
	} {
		conf := EFindConf("knn-"+mode.label, input, idx, mode.mode)
		if mode.force {
			conf.ForceStrategy("knn", idx.Name(), mode.strat)
		}
		res, err := rt.Submit(conf)
		if err != nil {
			t.Fatalf("%s: %v", mode.label, err)
		}
		join := CollectJoin(res.Output)
		if len(join) != len(a) {
			t.Fatalf("%s: join covers %d of %d query points", mode.label, len(join), len(a))
		}
		r := Recall(join, BruteForceKNN(a, b, 5))
		if r < 0.9 {
			t.Fatalf("%s: recall %.3f", mode.label, r)
		}
	}
}

func TestHZKNNJ(t *testing.T) {
	_, _, engine := knnEnv(t)
	b := points(3000, 8)
	a := points(300, 9)
	cfg := DefaultHZConfig(5)
	cfg.Epsilon = 0.02 // small sets need a denser sample
	res, err := RunHZKNNJ(engine, a, b, 1000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != cfg.Alpha+2 {
		t.Fatalf("jobs = %d, want sampling + %d shifts + select", res.Jobs, cfg.Alpha)
	}
	if len(res.Join) != len(a) {
		t.Fatalf("join covers %d of %d query points", len(res.Join), len(a))
	}
	for id, nbrs := range res.Join {
		if len(nbrs) > 5 {
			t.Fatalf("%s has %d neighbours, want ≤5", id, len(nbrs))
		}
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i].DistSq < nbrs[i-1].DistSq {
				t.Fatalf("%s neighbours unsorted", id)
			}
		}
	}
	r := Recall(res.Join, BruteForceKNN(a, b, 5))
	if r < 0.75 {
		t.Fatalf("H-zkNNJ recall %.3f too low (approximate, but α=2 shifts should land ≥0.75)", r)
	}
	if res.VTime <= 0 {
		t.Fatal("no virtual time")
	}
}

func TestHZKNNJBadConfig(t *testing.T) {
	_, _, engine := knnEnv(t)
	if _, err := RunHZKNNJ(engine, nil, nil, 1000, HZConfig{}); err == nil {
		t.Fatal("zero config should fail")
	}
}

func TestHZKNNJNoTempLeaks(t *testing.T) {
	_, fs, engine := knnEnv(t)
	before := len(fs.List())
	_, err := RunHZKNNJ(engine, points(200, 10), points(800, 11), 1000, DefaultHZConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if after := len(fs.List()); after != before {
		t.Fatalf("temp files leaked: %v", fs.List())
	}
}

// TestCandidateStageReopens: at Parallelism 1 one worker frame serves every
// reduce task of a shifted copy, each on the same candidateStage instance,
// reopened. A query point lies in one z-range partition, so it is in one
// task's buffer and gets at most 2k candidates, each once; a buffer kept
// from the task before would hand that task's query points 2k more.
func TestCandidateStageReopens(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Nodes, cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode, cfg.Parallelism = 6, 2, 2, 1
	cluster := sim.NewCluster(cfg)
	fs := dfs.New(cluster)
	fs.ChunkTarget = 8 << 10
	engine := mapreduce.New(cluster, fs)
	a, b := points(200, 12), points(1500, 13)
	var recs []dfs.Record
	for _, p := range a {
		recs = append(recs, dfs.Record{Key: "A:" + p.ID, Value: p.Value()})
	}
	for _, p := range b {
		recs = append(recs, dfs.Record{Key: "B:" + p.ID, Value: p.Value()})
	}
	input, err := fs.Create("hz-input", recs)
	if err != nil {
		t.Fatal(err)
	}
	hz := DefaultHZConfig(4)
	hz.Epsilon = 0.05
	grid := zorder.NewGrid(0, 0, 1000, 1000, hz.Bits)
	bounds, _, err := sampleBoundaries(engine, input, grid, [][2]float64{{}}, hz)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds[0]) < 3 {
		t.Fatalf("%d partition boundaries: too few reduce tasks to share a frame", len(bounds[0]))
	}
	out, _, err := candidateJob(engine, input, grid, [2]float64{}, bounds[0], 0, hz)
	if err != nil {
		t.Fatal(err)
	}
	per, seen := map[string]int{}, map[dfs.Record]bool{}
	for _, r := range out.All() {
		if seen[r] {
			t.Fatalf("query %s got candidate %s twice", r.Key, r.Value)
		}
		seen[r] = true
		per[r.Key]++
	}
	if len(per) != len(a) {
		t.Fatalf("candidates for %d of %d query points", len(per), len(a))
	}
	for id, n := range per {
		if n > 2*hz.K {
			t.Fatalf("query %s got %d candidates, want at most %d", id, n, 2*hz.K)
		}
	}
}

// TestBruteForceKNNMatchesStableSort: the bounded top-k insertion keeps
// what a stable sort of b by distance, cut to k, keeps, in the same order
// — the first of equal distances first, and kept at the k-th place — on
// seeded point sets on a small grid, a third of whose points duplicate an
// earlier one.
func TestBruteForceKNNMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gen := func(n int, prefix string) []workloads.SpatialPoint {
			pts := make([]workloads.SpatialPoint, n)
			for i := range pts {
				if i > 0 && rng.Intn(3) == 0 {
					pts[i] = pts[rng.Intn(i)]
				} else {
					pts[i] = workloads.SpatialPoint{X: float64(rng.Intn(16)), Y: float64(rng.Intn(16))}
				}
				pts[i].ID = fmt.Sprintf("%s%d", prefix, i)
			}
			return pts
		}
		a, b := gen(25, "a"), gen(1+rng.Intn(60), "b")
		for _, k := range []int{0, 1, 2, 7, len(b), len(b) + 3} {
			got := BruteForceKNN(a, b, k)
			for _, p := range a {
				want := make([]Neighbor, 0, len(b))
				for _, q := range b {
					want = append(want, Neighbor{ID: q.ID, DistSq: (p.X-q.X)*(p.X-q.X) + (p.Y-q.Y)*(p.Y-q.Y)})
				}
				sort.SliceStable(want, func(i, j int) bool { return want[i].DistSq < want[j].DistSq })
				want = want[:min(k, len(want))]
				if !slices.Equal(got[p.ID], want) {
					t.Fatalf("seed %d, k %d, point %s:\n got %v\nwant %v", seed, k, p.ID, got[p.ID], want)
				}
			}
		}
	}
}
