package experiments

import (
	"fmt"

	"efind/internal/core"
	"efind/internal/ixclient"
)

// runSynBatch executes the Figure 11(f) synthetic join for one index value
// size l in a fresh lab, with record batching toggled, and returns the job
// result plus the number of charged network round trips per lookup lane
// (every map slot issues lookups concurrently, so per-lane round trips are
// what the batching amortizes).
func runSynBatch(scale Scale, l int, batch bool) (*core.JobResult, float64, error) {
	env := newLab()
	input, store, err := env.genSyn(scale, l)
	if err != nil {
		return nil, 0, err
	}
	name := "syn-batch-off"
	if batch {
		name = "syn-batch-on"
	}
	conf := buildSynConf(name, input, store, core.ModeBaseline)
	conf.Batch = batch
	res, err := env.rt.Submit(conf)
	if err != nil {
		return nil, 0, err
	}
	rts := res.Counters[ixclient.CtrNetRoundTrips("syn", store.Name())]
	lanes := env.cluster.MapSlots()
	return res, float64(rts) / float64(lanes), nil
}

// BatchCompare contrasts the index client pipeline's per-key costing
// (paper-faithful, the default) against the batched multi-get fast path on
// the Figure 11(f) synthetic sweep: same baseline plan, same output
// records, but cache-missed keys travel as one multi-get per index
// partition, so the charged network round trips per lookup lane drop by
// roughly the batch size over the partition fan-out.
func BatchCompare(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Batching: kvstore multi-get vs per-key lookups (Fig. 11(f) sweep, baseline plan)",
		Columns: []string{"rt/lane off", "rt/lane on", "vtime off", "vtime on"},
	}
	for _, l := range scale.SynSizes {
		off, rtOff, err := runSynBatch(scale, l, false)
		if err != nil {
			return nil, fmt.Errorf("batchcmp l=%d off: %w", l, err)
		}
		on, rtOn, err := runSynBatch(scale, l, true)
		if err != nil {
			return nil, fmt.Errorf("batchcmp l=%d on: %w", l, err)
		}
		if rtOn >= rtOff {
			t.Note("l=%dB: batching did NOT reduce round trips (%.1f -> %.1f)", l, rtOff, rtOn)
		}
		t.Add(fmt.Sprintf("l=%dB", l), rtOff, rtOn, off.VTime, on.VTime)
	}
	return t, nil
}
