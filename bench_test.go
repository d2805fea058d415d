package efind_test

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5). Each benchmark runs one experiment at quick scale per
// iteration and reports the key virtual-time series as custom metrics
// (vs_<column> in virtual seconds), so `go test -bench=.` reproduces the
// paper's comparisons alongside the harness's own wall-time cost. A run
// fails when the experiment's claims do not hold on its table.
//
// For the full-scale tables, run `go run ./cmd/efind-bench`.

import (
	"fmt"
	"strings"
	"testing"

	"efind/internal/experiments"
)

// benchFigure runs one experiment per iteration and reports the cells of
// the designated row as metrics.
func benchFigure(b *testing.B, id, row string) {
	e := experiments.Find(id)
	if e == nil {
		b.Fatalf("experiment %s not registered", id)
	}
	scale := experiments.QuickScale()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = tbl
	}
	if last == nil {
		return
	}
	for _, col := range last.Columns {
		if v, ok := last.Cell(row, col); ok {
			b.ReportMetric(v, "vs_"+sanitize(col))
		}
	}
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '-' {
			return '_'
		}
		return r
	}, s)
}

// BenchmarkFig11aLOG regenerates Figure 11(a): the LOG application under
// extra lookup delays, across strategies (metrics report the 5ms row).
func BenchmarkFig11aLOG(b *testing.B) { benchFigure(b, "11a", "delay=5ms") }

// BenchmarkFig11bTPCHQ3 regenerates Figure 11(b): TPC-H Q3.
func BenchmarkFig11bTPCHQ3(b *testing.B) { benchFigure(b, "11b", "runtime") }

// BenchmarkFig11cTPCHQ9 regenerates Figure 11(c): TPC-H Q9.
func BenchmarkFig11cTPCHQ9(b *testing.B) { benchFigure(b, "11c", "runtime") }

// BenchmarkFig11dDup10Q3 regenerates Figure 11(d): TPC-H DUP10 Q3.
func BenchmarkFig11dDup10Q3(b *testing.B) { benchFigure(b, "11d", "runtime") }

// BenchmarkFig11eDup10Q9 regenerates Figure 11(e): TPC-H DUP10 Q9.
func BenchmarkFig11eDup10Q9(b *testing.B) { benchFigure(b, "11e", "runtime") }

// BenchmarkFig11fSynthetic regenerates Figure 11(f): the synthetic join
// over index value sizes (metrics report the 30KB row, where index
// locality wins).
func BenchmarkFig11fSynthetic(b *testing.B) { benchFigure(b, "11f", "l=30720B") }

// BenchmarkFig12LookupLatency regenerates Figure 12: local vs remote
// lookup latency (metrics report the 30KB row, in virtual ms).
func BenchmarkFig12LookupLatency(b *testing.B) { benchFigure(b, "12", "30720B") }

// BenchmarkFig13KNNJoin regenerates Figure 13: the kNN join comparison
// against the hand-tuned H-zkNNJ.
func BenchmarkFig13KNNJoin(b *testing.B) { benchFigure(b, "13", "knnj") }

// BenchmarkAblationCacheCapacity sweeps the lookup-cache capacity.
func BenchmarkAblationCacheCapacity(b *testing.B) { benchFigure(b, "ablation-cache", "cap=1024") }

// BenchmarkAblationVarianceThreshold sweeps Algorithm 1's variance gate.
func BenchmarkAblationVarianceThreshold(b *testing.B) {
	benchFigure(b, "ablation-variance", "threshold=0.05")
}

// BenchmarkAblationPlanner compares FullEnumerate against k-Repart.
func BenchmarkAblationPlanner(b *testing.B) { benchFigure(b, "ablation-planner", "full-enumerate") }

// BenchmarkAblationBoundary sweeps the re-partitioning job boundary.
func BenchmarkAblationBoundary(b *testing.B) { benchFigure(b, "ablation-boundary", "boundary=pre") }

// TestTableCellAccess reads one cell programmatically, keeping the Table
// API covered from outside the experiments package.
func TestTableCellAccess(t *testing.T) {
	tbl := &experiments.Table{Title: "demo", Columns: []string{"a", "b"}}
	tbl.Add("row", 1.5, 2.5)
	v, ok := tbl.Cell("row", "b")
	if got := fmt.Sprint(v, ok); got != "2.5 true" {
		t.Fatalf("cell = %s", got)
	}
	if _, ok := tbl.Cell("row", "missing"); ok {
		t.Fatal("missing column should not resolve")
	}
	if _, ok := tbl.Cell("missing", "a"); ok {
		t.Fatal("missing row should not resolve")
	}
}
