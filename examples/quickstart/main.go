// Command quickstart is the smallest complete EFind program: enrich a
// stream of order records with product metadata from a distributed
// key-value index, letting the adaptive runtime pick the access strategy.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"efind"
)

func main() {
	// A simulated 12-node cluster with DFS, MapReduce, and EFind runtime.
	cfg := efind.DefaultConfig()
	cfg.TaskStartup = 0.01
	cluster := efind.NewCluster(cfg)
	cluster.FS.ChunkTarget = 1 << 10 // small chunks so the job spans several task waves

	// The "index": a distributed KV store holding product metadata,
	// 32 partitions × 3 replicas, 2 ms per lookup.
	products := cluster.NewKVStore("products", 32, 3, 0.002)
	for i := 0; i < 200; i++ {
		products.Put(fmt.Sprintf("sku-%03d", i), fmt.Sprintf("category-%d|$%d", i%12, 5+i%40))
	}

	// The main input: order lines referencing SKUs. SKUs repeat, so the
	// runtime has redundancy to exploit.
	records := make([]efind.Record, 5000)
	for i := range records {
		records[i] = efind.Record{
			Key:   fmt.Sprintf("order-%05d", i),
			Value: fmt.Sprintf("sku-%03d", i%200),
		}
	}
	input, err := cluster.CreateFile("orders", records)
	if err != nil {
		log.Fatal(err)
	}

	// The IndexOperator: preProcess extracts the SKU as the lookup key,
	// postProcess re-keys each order by product category.
	op := efind.NewOperator("product-lookup",
		func(in efind.Pair) efind.PreResult {
			return efind.OneKey(in, in.Value)
		},
		func(pair efind.Pair, results [][]efind.KeyResult, emit efind.Emit) {
			if len(results[0]) == 0 || len(results[0][0].Values) == 0 {
				return // unknown SKU: filter out
			}
			emit(efind.Pair{Key: results[0][0].Values[0], Value: pair.Key})
		})
	op.AddIndex(products)

	// An EFind-enhanced job: the operator runs before Map; Reduce counts
	// orders per product metadata group. ModeDynamic starts with the
	// baseline plan, collects statistics during the first task wave, and
	// re-optimizes on the fly.
	conf := &efind.IndexJobConf{
		Name:      "orders-by-category",
		Input:     input,
		Mode:      efind.ModeDynamic,
		NumReduce: 8,
		Reducer: func(_ *efind.TaskContext, key string, values []string, emit efind.Emit) {
			emit(efind.Pair{Key: key, Value: fmt.Sprintf("%d orders", len(values))})
		},
	}
	conf.AddHeadIndexOperator(op)

	res, err := cluster.Submit(conf)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("job finished in %.3f virtual seconds across %d MapReduce job(s)\n", res.VTime, res.JobsRun)
	fmt.Printf("plan: %v\n", res.Plan)
	if res.Replanned {
		fmt.Printf("the runtime re-optimized mid-job (at the %s phase)\n", res.ReplanPhase)
	}
	fmt.Printf("index served %d lookups for %d input records\n\n", products.Lookups(), len(records))
	for i, r := range res.Output.All() {
		if i == 10 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %-22s %s\n", r.Key, r.Value)
	}
}
