package workloads

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"efind/internal/dfs"
	"efind/internal/sim"
)

func newFS() *dfs.FS {
	fs := dfs.New(sim.NewCluster(sim.DefaultConfig()))
	fs.ChunkTarget = 32 << 10
	return fs
}

func TestGenerateLogShape(t *testing.T) {
	cfg := DefaultLogConfig()
	cfg.Events = 5000
	recs, err := GenerateLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFS().Create("log", recs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Records() != 5000 {
		t.Fatalf("events = %d", f.Records())
	}
	// Every record parses; IPs repeat (sessions) and appear in multiple
	// chunks (server interleaving).
	ipCount := map[string]int{}
	ipChunks := map[string]map[int]bool{}
	for ci, ch := range f.Chunks {
		recs, err := ch.Records()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			ip, url, ts, ok := ParseLogValue(r.Value)
			if !ok {
				t.Fatalf("unparseable record %q", r.Value)
			}
			if ip == "" || url == "" || ts == 0 {
				t.Fatalf("empty fields in %q", r.Value)
			}
			ipCount[ip]++
			if ipChunks[ip] == nil {
				ipChunks[ip] = map[int]bool{}
			}
			ipChunks[ip][ci] = true
		}
	}
	repeated, crossChunk := 0, 0
	for ip, n := range ipCount {
		if n > 1 {
			repeated++
		}
		if len(ipChunks[ip]) > 1 {
			crossChunk++
		}
	}
	if repeated < len(ipCount)/2 {
		t.Fatalf("too few repeated IPs: %d of %d", repeated, len(ipCount))
	}
	if len(f.Chunks) > 1 && crossChunk == 0 {
		t.Fatal("no IP spans chunks: cross-machine redundancy missing")
	}
}

func TestGenerateLogDeterministic(t *testing.T) {
	cfg := DefaultLogConfig()
	cfg.Events = 1000
	ra, err := GenerateLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := GenerateLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatal("nondeterministic event count")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("nondeterministic record %d", i)
		}
	}
}

func TestGenerateLogRejectsEmpty(t *testing.T) {
	if _, err := GenerateLog(LogConfig{}); err == nil {
		t.Fatal("empty config should fail")
	}
}

func TestGenerateSynthetic(t *testing.T) {
	fs := newFS()
	cfg := DefaultSyntheticConfig()
	cfg.Records = 2000
	cfg.KeyDomain = 1000
	cfg.ValueSize = 64
	cfg.IndexValueSize = 128
	f, store, err := GenerateSynthetic(fs, "syn", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Records() != 2000 {
		t.Fatalf("records = %d", f.Records())
	}
	// Every record's key resolves in the index with an l-sized value.
	for _, r := range f.All()[:100] {
		k := SyntheticKey(r.Value)
		vals, err := store.Lookup(k)
		if err != nil || len(vals) != 1 {
			t.Fatalf("key %q lookup = %v, %v", k, vals, err)
		}
		if len(vals[0]) != 128 {
			t.Fatalf("index value size = %d, want 128", len(vals[0]))
		}
	}
	if store.Len() > 1000 || store.Len() < 800 {
		t.Fatalf("distinct keys in index = %d, want ≈(1-1/e)·1000", store.Len())
	}
}

func TestSyntheticKeyParsing(t *testing.T) {
	if got := SyntheticKey("00001234 " + strings.Repeat("x", 10)); got != "00001234" {
		t.Fatalf("key = %q", got)
	}
	if got := SyntheticKey("nospacehere"); got != "nospacehere" {
		t.Fatalf("degenerate key = %q", got)
	}
}

func TestGenerateSpatialPoints(t *testing.T) {
	cfg := SpatialConfig{Points: 3000, Extent: 1000, Clusters: 24, Seed: 11}
	pts := GenerateSpatialPoints(cfg)
	if len(pts) != 3000 {
		t.Fatalf("points = %d", len(pts))
	}
	ids := map[string]bool{}
	for _, p := range pts {
		if p.X < 0 || p.X >= cfg.Extent || p.Y < 0 || p.Y >= cfg.Extent {
			t.Fatalf("point %v outside extent", p)
		}
		if ids[p.ID] {
			t.Fatalf("duplicate id %s", p.ID)
		}
		ids[p.ID] = true
		x, y, ok := ParseSpatialValue(p.Value())
		if !ok {
			t.Fatalf("unparseable value %q", p.Value())
		}
		if ax, ay := x-p.X, y-p.Y; ax > 0.001 || ax < -0.001 || ay > 0.001 || ay < -0.001 {
			t.Fatalf("round trip drift: %v vs (%g,%g)", p, x, y)
		}
	}
}

func TestSpatialClustering(t *testing.T) {
	// Clustered generation should be visibly non-uniform: the densest 10%
	// of a coarse grid should hold far more than 10% of points.
	cfg := SpatialConfig{Points: 10000, Extent: 1000, Clusters: 24, Seed: 11}
	pts := GenerateSpatialPoints(cfg)
	const g = 10
	var cells [g][g]int
	for _, p := range pts {
		cx := int(p.X / cfg.Extent * g)
		cy := int(p.Y / cfg.Extent * g)
		cells[cx][cy]++
	}
	counts := make([]int, 0, g*g)
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			counts = append(counts, cells[i][j])
		}
	}
	maxCell := 0
	for _, c := range counts {
		if c > maxCell {
			maxCell = c
		}
	}
	if maxCell < len(pts)/20 {
		t.Fatalf("densest cell has %d of %d points; expected clustering", maxCell, len(pts))
	}
}

func TestWriteSpatial(t *testing.T) {
	fs := newFS()
	pts := GenerateSpatialPoints(SpatialConfig{Points: 500, Extent: 100, Clusters: 4, Seed: 3})
	f, err := WriteSpatial(fs, "pts", pts)
	if err != nil {
		t.Fatal(err)
	}
	if f.Records() != 500 {
		t.Fatalf("records = %d", f.Records())
	}
}

// TestParseSpatialValueMatchesSscanf holds the parser to fmt.Sscanf's
// "%f,%f" reading, bit for bit, on every value SpatialPoint.Value renders:
// Fig. 13's point sets at both scales, the origin, the extent's corner
// and negative coordinates. What is not two numbers around a comma is
// refused.
func TestParseSpatialValueMatchesSscanf(t *testing.T) {
	var pts []SpatialPoint
	for _, n := range [][2]int{{1500, 6000}, {6000, 20000}} { // quick, full
		pts = append(pts, GenerateSpatialPoints(SpatialConfig{Points: n[0], Extent: 1000, Clusters: 16, Seed: 21})...)
		pts = append(pts, GenerateSpatialPoints(SpatialConfig{Points: n[1], Extent: 1000, Clusters: 16, Seed: 22})...)
	}
	pts = append(pts, SpatialPoint{X: 0, Y: 0}, SpatialPoint{X: 1000, Y: 1000}, SpatialPoint{X: 999.99996, Y: 0.00004},
		SpatialPoint{X: -0.00004, Y: -12.5}, SpatialPoint{X: -1000, Y: -999.99995})
	for _, p := range pts {
		v := p.Value()
		var wx, wy float64
		if _, err := fmt.Sscanf(v, "%f,%f", &wx, &wy); err != nil {
			t.Fatalf("Sscanf(%q): %v", v, err)
		}
		x, y, ok := ParseSpatialValue(v)
		if !ok || math.Float64bits(x) != math.Float64bits(wx) || math.Float64bits(y) != math.Float64bits(wy) {
			t.Fatalf("ParseSpatialValue(%q) = %v, %v, %v; Sscanf reads %v, %v", v, x, y, ok, wx, wy)
		}
	}
	for _, bad := range []string{"", "1.0", "1.0,", "a,b"} {
		if x, y, ok := ParseSpatialValue(bad); ok {
			t.Errorf("ParseSpatialValue(%q) = %v, %v, true; want it refused", bad, x, y)
		}
	}
}
