package experiments

import (
	"strings"
	"testing"

	"efind/internal/core"
)

// TestRunColumnFreshLabStatsForOptimizedOnly pins the leg runner's two
// promises for a strategy sweep. Every column gets a lab of its own: the
// statistics the optimized and dynamic columns leave in their catalog are
// gone when the next column sets up, and no lab, file system or runtime
// is handed out twice. And only "optimized" runs the statistics job,
// once, before its measured job.
func TestRunColumnFreshLabStatsForOptimizedOnly(t *testing.T) {
	scale := QuickScale()
	scale.SynRecords, scale.SynKeyDomain = 600, 300
	seen := make(map[interface{}]string)
	var built []string
	for _, c := range []string{"optimized", "base", "dynamic", "cache", "optimized", "repart", "idxloc"} {
		run, err := runLeg(columnLegs(nil, "probe")(c), func(l *lab) (strategyJob, error) {
			if ops := l.rt.Catalog.Operators(); len(ops) != 0 {
				t.Fatalf("column %s starts with statistics for %v", c, ops)
			}
			for _, part := range []interface{}{l, l.cluster, l.fs, l.engine, l.rt, l.rt.Catalog} {
				if prev, dup := seen[part]; dup {
					t.Fatalf("column %s was handed the %T of column %s", c, part, prev)
				}
				seen[part] = c
			}
			input, store, err := l.genSyn(scale, 10)
			if err != nil {
				return strategyJob{}, err
			}
			build := func(name string) *core.IndexJobConf {
				built = append(built, name)
				return buildSynConf(name, input, store, core.ModeBaseline)
			}
			return strategyJob{build: build, op: "syn", ix: store.Name()}, nil
		})
		if err != nil {
			t.Fatalf("column %s: %v", c, err)
		}
		if run.res.Output.Records() != scale.SynRecords {
			t.Fatalf("column %s: %d output records, want %d", c, run.res.Output.Records(), scale.SynRecords)
		}
		if c == "optimized" && run.rt.Catalog.Get("syn") == nil {
			t.Fatal("optimized column ran without statistics in its catalog")
		}
	}
	want := "probe-stats probe-optimized probe-base probe-dynamic probe-cache probe-stats probe-optimized probe-repart probe-idxloc"
	if got := strings.Join(built, " "); got != want {
		t.Fatalf("jobs composed:\n got %s\nwant %s", got, want)
	}
}
