package efind_test

import (
	"fmt"
	"strings"
	"testing"

	"efind"
)

// TestPublicAPIEndToEnd drives the whole stack through the facade only:
// build a cluster, load an index, run a job in every mode, and check the
// outputs agree.
func TestPublicAPIEndToEnd(t *testing.T) {
	outputs := map[efind.Mode][]string{}
	for _, mode := range []efind.Mode{efind.ModeBaseline, efind.ModeCache, efind.ModeDynamic} {
		cfg := efind.DefaultConfig()
		cfg.Nodes = 4
		cfg.TaskStartup = 0.01
		cluster := efind.NewCluster(cfg)
		cluster.FS.ChunkTarget = 2 << 10

		store := cluster.NewKVStore("colors", 8, 3, 0.0005)
		for i := 0; i < 50; i++ {
			store.Put(fmt.Sprintf("item%02d", i), fmt.Sprintf("color-%d", i%7))
		}
		recs := make([]efind.Record, 800)
		for i := range recs {
			recs[i] = efind.Record{Key: fmt.Sprintf("r%04d", i), Value: fmt.Sprintf("item%02d", i%50)}
		}
		input, err := cluster.CreateFile("orders", recs)
		if err != nil {
			t.Fatal(err)
		}

		op := efind.NewOperator("color-lookup",
			func(in efind.Pair) efind.PreResult {
				return efind.PreResult{Pair: in, Keys: [][]string{{in.Value}}}
			},
			func(pair efind.Pair, results [][]efind.KeyResult, emit efind.Emit) {
				if len(results[0]) == 0 || len(results[0][0].Values) == 0 {
					return
				}
				emit(efind.Pair{Key: results[0][0].Values[0], Value: pair.Key})
			})
		op.AddIndex(store)

		conf := &efind.IndexJobConf{
			Name:      "by-color",
			Input:     input,
			Mode:      mode,
			NumReduce: 4,
			Reducer: func(_ *efind.TaskContext, key string, values []string, emit efind.Emit) {
				emit(efind.Pair{Key: key, Value: fmt.Sprintf("%d", len(values))})
			},
		}
		conf.AddHeadIndexOperator(op)

		res, err := cluster.Submit(conf)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		var lines []string
		for _, r := range res.Output.All() {
			lines = append(lines, r.Key+"="+r.Value)
		}
		outputs[mode] = lines
		// 7 colors, evenly hit.
		if len(lines) != 7 {
			t.Fatalf("mode %v: %d color groups, want 7 (%v)", mode, len(lines), lines)
		}
		for _, l := range lines {
			if !strings.Contains(l, "=") {
				t.Fatalf("mode %v: bad line %q", mode, l)
			}
		}
	}
}

func TestCloudServiceThroughFacade(t *testing.T) {
	cluster := efind.NewCluster(efind.DefaultConfig())
	svc := cluster.NewCloudService("upper", 2, 0.001, func(k string) []string {
		return []string{strings.ToUpper(k)}
	})
	got, err := svc.Lookup("hello")
	if err != nil || len(got) != 1 || got[0] != "HELLO" {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if svc.Calls() != 1 {
		t.Fatalf("calls = %d", svc.Calls())
	}
}

func TestRangeStoreThroughFacade(t *testing.T) {
	cluster := efind.NewCluster(efind.DefaultConfig())
	store := cluster.NewRangeKVStore("ranged", []string{"m"}, 3, 0)
	store.Put("apple", "1")
	store.Put("zebra", "2")
	if got, _ := store.Lookup("apple"); len(got) != 1 {
		t.Fatalf("range store lookup failed: %v", got)
	}
	if store.Scheme().Partitions != 2 {
		t.Fatalf("partitions = %d", store.Scheme().Partitions)
	}
}
