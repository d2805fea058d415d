package experiments

import (
	"efind/internal/cloudsvc"
	"efind/internal/dfs"
	"efind/internal/sim"
	"efind/internal/tpch"
	"efind/internal/workloads"
)

// setupLog generates the LOG input in the lab — in chunks scaled with the
// event count unless the scale pins them — and stands up the cloud geo
// service with the given extra delay (milliseconds).
func setupLog(l *lab, scale Scale, extraDelayMs float64) (*dfs.File, *cloudsvc.Service, error) {
	l.fs.ChunkTarget = chunkTargetFor(scale.LogEvents * 90)
	if scale.FixedLogChunk > 0 {
		l.fs.ChunkTarget = scale.FixedLogChunk
	}
	cfg := workloads.DefaultLogConfig()
	cfg.Events = scale.LogEvents
	input, err := workloads.GenerateLog(l.fs, "log", cfg)
	if err != nil {
		return nil, nil, err
	}
	return input, cloudsvc.NewGeoService(0, geoBaseDelay+extraDelayMs/1000, 50), nil
}

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
