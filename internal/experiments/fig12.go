package experiments

import (
	"fmt"
	"strings"

	"efind/internal/ixclient"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/obs"
	"efind/internal/sim"
)

// Fig12 reproduces Figure 12: the elapsed time of a local vs remote index
// lookup as the result size grows from 10 B to 30 KB. The lookups go
// through the same index client pipeline the runtime uses, so the
// latencies are exactly what the runtime charges per lookup: the index
// serve time T_j, plus the network transfer of key and result when the
// task node does not host the key's partition.
func Fig12(scale Scale, _ *obs.Trace) (*Table, error) {
	l := newLab(nil, nil)
	sizes := scale.SynSizes
	t := &Table{
		Title:   "Figure 12: index lookup latency (virtual ms) vs result size",
		Columns: []string{"local", "remote"},
	}
	for _, size := range sizes {
		store := kvstore.NewHash(l.cluster, fmt.Sprintf("lat-%d", size), 32, 3, 0.0002)
		key := "probe-key"
		store.Put(key, strings.Repeat("v", size))
		client := ixclient.New(store, ixclient.Options{Op: "fig12"})

		hosts := store.HostsFor(key)
		localNode := hosts[0]
		remoteNode := sim.NodeID(-1)
		for n := 0; n < l.cluster.Nodes(); n++ {
			if !sim.ContainsNode(hosts, sim.NodeID(n)) {
				remoteNode = sim.NodeID(n)
				break
			}
		}
		if remoteNode < 0 {
			return nil, fmt.Errorf("fig12: every node hosts the probe key's partition")
		}

		probe := func(node sim.NodeID) float64 {
			ctx := mapreduce.NewTaskContext(l.cluster, node, 0, mapreduce.MapTask)
			client.Access(ctx, key)
			return ctx.Extra()
		}
		t.Add(fmt.Sprintf("%dB", size), probe(localNode)*1000, probe(remoteNode)*1000)
	}

	// Remote ≥ local everywhere; the gap grows with result size.
	prevGap := -1.0
	for _, r := range t.Rows {
		local, remote := t.at(r.Label, "local"), t.at(r.Label, "remote")
		t.claim(remote >= local, "%s: remote (%g) below local (%g)", r.Label, remote, local)
		gap := remote - local
		t.claim(gap >= prevGap, "%s: gap %g shrank (prev %g)", r.Label, gap, prevGap)
		prevGap = gap
	}
	t.claim(prevGap > 0, "largest result size should show a clear remote penalty")
	return t, t.err
}
