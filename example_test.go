package efind_test

import (
	"fmt"
	"sort"

	"efind"
)

// Example shows the minimal EFind flow: index a side table, declare an
// IndexOperator, and let the runtime access it during a MapReduce job.
func Example() {
	cfg := efind.DefaultConfig()
	cfg.TaskStartup = 0.001
	cluster := efind.NewCluster(cfg)

	users := cluster.NewKVStore("users", 8, 3, 0.0005)
	users.Put("u1", "Berlin")
	users.Put("u2", "Osaka")

	input, err := cluster.CreateFile("events", []efind.Record{
		{Key: "e1", Value: "u1"},
		{Key: "e2", Value: "u2"},
		{Key: "e3", Value: "u1"},
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	op := efind.NewOperator("user-city",
		func(in efind.Pair) efind.PreResult {
			return efind.OneKey(in, in.Value)
		},
		func(p efind.Pair, results [][]efind.KeyResult, emit efind.Emit) {
			if len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				emit(efind.Pair{Key: results[0][0].Values[0], Value: p.Key})
			}
		})
	op.AddIndex(users)

	conf := &efind.IndexJobConf{
		Name:      "events-by-city",
		Input:     input,
		Mode:      efind.ModeCache,
		NumReduce: 2,
		Reducer: func(_ *efind.TaskContext, city string, events []string, emit efind.Emit) {
			emit(efind.Pair{Key: city, Value: fmt.Sprintf("%d events", len(events))})
		},
	}
	conf.AddHeadIndexOperator(op)

	res, err := cluster.Submit(conf)
	if err != nil {
		fmt.Println(err)
		return
	}
	var lines []string
	for _, r := range res.Output.All() {
		lines = append(lines, r.Key+": "+r.Value)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	// Output:
	// Berlin: 2 events
	// Osaka: 1 events
}
