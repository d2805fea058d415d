package experiments

import (
	"efind/internal/sim"
	"efind/internal/tpch"
)

// setupTPCH generates the TPC-H workload in the lab, lineitem duplicated
// dup times (the paper's DUP10).
func setupTPCH(l *lab, scale Scale, dup int) (*tpch.Workload, error) {
	cfg := tpch.DefaultConfig()
	cfg.ScaleFactor = scale.TPCHSF
	cfg.SupplierScale = scale.TPCHSupplierScale
	cfg.DupFactor = dup
	l.fs.ChunkTarget = chunkTargetFor(int(6000*scale.TPCHSF) * dup * 60)
	return tpch.Setup(l.fs, "lineitem", cfg)
}

// fakeIdx is a stats-only accessor used by planner ablations (never
// actually looked up).
type fakeIdx struct{ name string }

func (f fakeIdx) Name() string                      { return f.name }
func (f fakeIdx) Lookup(k string) ([]string, error) { return nil, nil }
func (f fakeIdx) ServeTime() float64                { return 0 }
func (f fakeIdx) HostsFor(string) []sim.NodeID      { return nil }
