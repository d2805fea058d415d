package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"efind/internal/cloudsvc"
	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/mapreduce"
	"efind/internal/obs"
	"efind/internal/workloads"
)

// geoBaseDelay is the paper's measured cloud-service latency (0.8 ms per
// IP-to-region lookup).
const geoBaseDelay = 0.0008

// logTopK is the k of the LOG application's top-k frequent URLs.
const logTopK = 10

// logJob is the setup of a leg running the LOG application's index job:
// it writes recs into the lab in the chunks that suit an input of
// chunkEvents events and stands up the cloud geo service with the given
// extra delay (milliseconds). An experiment generates recs once per input
// size: every leg's fresh lab creates its file from the same records.
func logJob(recs []dfs.Record, chunkEvents int, extraDelayMs float64) func(*lab) (strategyJob, error) {
	return func(l *lab) (strategyJob, error) {
		l.fs.ChunkTarget = chunkTargetFor(chunkEvents * 90)
		input, err := l.fs.Create("log", recs)
		if err != nil {
			return strategyJob{}, err
		}
		geo := cloudsvc.NewGeoService(0, geoBaseDelay+extraDelayMs/1000, 50)
		build := func(name string) *core.IndexJobConf { return logJobConf(name, input, geo) }
		return strategyJob{build: build, op: "geo", ix: geo.Name()}, nil
	}
}

// logJobConf builds the LOG application of §5.1: look up each event's
// source IP in the cloud geo service (head operator), then count URL
// visits per (region, URL) pair.
func logJobConf(name string, input *dfs.File, geo *cloudsvc.Service) *core.IndexJobConf {
	geoOp := core.NewOperator("geo",
		func(in core.Pair) core.PreResult {
			ip, _, _, ok := workloads.ParseLogValue(in.Value)
			if !ok {
				return core.PreResult{Pair: in}
			}
			return core.OneKey(in, ip)
		},
		func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			region := "unknown"
			if len(results[0]) > 0 && len(results[0][0].Values) > 0 {
				region = results[0][0].Values[0]
			}
			emit(core.Pair{Key: pair.Key, Value: region + "\x00" + pair.Value})
		})
	geoOp.AddIndex(geo)

	conf := &core.IndexJobConf{
		Name:  name,
		Input: input,
		Mapper: func(_ *mapreduce.TaskContext, in core.Pair, emit core.Emit) {
			parts := strings.SplitN(in.Value, "\x00", 2)
			if len(parts) != 2 {
				return
			}
			_, url, _, ok := workloads.ParseLogValue(parts[1])
			if !ok {
				return
			}
			emit(core.Pair{Key: parts[0] + "|" + url, Value: "1"})
		},
		Reducer:  sumCounts,
		Combiner: sumCounts, // pre-aggregate visit counts before the shuffle
	}
	conf.AddHeadIndexOperator(geoOp)
	return conf
}

// sumCounts aggregates integer visit counts; associative and commutative,
// so it serves as both the reducer and the combiner.
func sumCounts(_ *mapreduce.TaskContext, key string, values []string, emit core.Emit) {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			continue
		}
		total += n
	}
	emit(core.Pair{Key: key, Value: strconv.Itoa(total)})
}

// topKJob is the follow-on plain MapReduce job of the LOG application:
// per-region top-k URLs. Identical across strategies; included so the
// reported times cover the whole application.
func topKJob(engine *mapreduce.Engine, input *dfs.File) (*mapreduce.Result, error) {
	return engine.Run(&mapreduce.Job{
		Name:  "log-topk",
		Input: input,
		Map: func(_ *mapreduce.TaskContext, in core.Pair, emit core.Emit) {
			f := strings.SplitN(in.Key, "|", 2)
			if len(f) != 2 {
				return
			}
			emit(core.Pair{Key: f[0], Value: f[1] + "=" + in.Value})
		},
		NumReduce: 8,
		Reduce: func(_ *mapreduce.TaskContext, region string, values []string, emit core.Emit) {
			type uc struct {
				url   string
				count int
			}
			list := make([]uc, 0, len(values))
			for _, v := range values {
				i := strings.LastIndexByte(v, '=')
				if i < 0 {
					continue
				}
				n, err := strconv.Atoi(v[i+1:])
				if err != nil {
					continue
				}
				list = append(list, uc{url: v[:i], count: n})
			}
			sort.Slice(list, func(i, j int) bool {
				if list[i].count != list[j].count {
					return list[i].count > list[j].count
				}
				return list[i].url < list[j].url
			})
			if len(list) > logTopK {
				list = list[:logTopK]
			}
			out := make([]string, 0, len(list))
			for _, e := range list {
				out = append(out, fmt.Sprintf("%s:%d", e.url, e.count))
			}
			emit(core.Pair{Key: region, Value: strings.Join(out, ",")})
		},
	})
}

// logTotal is the cell of a LOG column: the application's total virtual
// time, the follow-on top-k job run in the column's lab included.
func logTotal(_ string, r *lab) (float64, error) {
	topk, err := topKJob(r.engine, r.res.Output)
	if err != nil {
		return 0, err
	}
	return r.res.VTime + topk.VTime, nil
}

// chunkTargetFor sizes chunks so a workload of roughly totalBytes spans
// ~2.5 waves of map tasks on the 12×8-slot cluster: 240 chunks of at
// least 2 KB.
func chunkTargetFor(totalBytes int) int { return max(totalBytes/240, 2048) }

// Fig11a reproduces Figure 11(a): the LOG application under extra lookup
// delays of 0–5 ms, for every applicable strategy. Index locality does
// not apply (the cloud service is a single external node), mirroring the
// paper.
func Fig11a(scale Scale, tr *obs.Trace) (*Table, error) {
	cols := []string{"base", "cache", "repart", "optimized", "dynamic"}
	t := &Table{Title: "Figure 11(a): LOG — runtime (virtual s) vs extra lookup delay", Columns: cols}
	cfg := workloads.DefaultLogConfig()
	cfg.Events = scale.LogEvents
	recs, err := workloads.GenerateLog(cfg)
	if err != nil {
		return nil, err
	}
	for _, d := range scale.LogDelaysMs {
		cells, err := strategyCells(t, cols, fmt.Sprintf("delay %gms: optimized plan ", d), columnLegs(tr, "log"), logJob(recs, scale.LogEvents, d), func(c string, r *lab) (float64, error) {
			if c == "dynamic" && r.res.Replanned {
				t.Note("delay %gms: dynamic replanned at %s phase to %v", d, r.res.ReplanPhase, r.res.Plan)
			}
			return logTotal(c, r)
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("delay=%gms", d), cells...)
	}

	// Paper: cache 1.2–2.8x over base, repart an additional gain, both
	// growing with the delay; optimized tracks the best fixed strategy and
	// dynamic sits between it and the baseline.
	prevGain := 0.0
	for _, r := range t.Rows {
		cell := func(col string) float64 { return t.at(r.Label, col) }
		base, cache, repart, opt, dyn := cell("base"), cell("cache"), cell("repart"), cell("optimized"), cell("dynamic")
		t.claim(cache < base, "%s: cache (%g) should beat base (%g)", r.Label, cache, base)
		t.claim(repart < cache*1.05, "%s: repart (%g) should be at least on par with cache (%g)", r.Label, repart, cache)
		gain := base / cache
		t.claim(gain >= prevGain*0.95, "%s: cache gain %.2f should not shrink with delay (prev %.2f)", r.Label, gain, prevGain)
		prevGain = gain
		best := min(base, cache, repart)
		t.claim(opt <= best*1.15, "%s: optimized (%g) strays from best fixed (%g)", r.Label, opt, best)
		t.claim(dyn < base && dyn >= opt*0.95, "%s: dynamic (%g) should be between optimized (%g) and base (%g)", r.Label, dyn, opt, base)
	}
	// Improvements at the largest delay are substantial (paper: 2–8x overall).
	last := t.Rows[len(t.Rows)-1].Label
	base, opt := t.at(last, "base"), t.at(last, "optimized")
	t.claim(base/opt >= 2, "optimized should win ≥2x at %s, got %.2fx", last, base/opt)
	return t, t.err
}
