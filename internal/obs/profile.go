package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Profile is the machine-readable job profile (BENCH_<label>.json): the
// per-stage virtual times the CI regression gate compares, the per-index
// modeled-vs-observed cost rows, and the full sorted counter and gauge
// snapshot of the run. Everything is virtual time, so serial and
// parallel runs of the same seed produce bit-identical files.
type Profile struct {
	Label      string         `json:"label"`
	TotalVTime float64        `json:"total_vtime"`
	Stages     []StageProfile `json:"stages"`
	Indexes    []IndexProfile `json:"indexes,omitempty"`
	Counters   []Metric       `json:"counters"`
	Gauges     []Gauge        `json:"gauges,omitempty"`
}

// Profile snapshots the trace into an exportable profile.
func (t *Trace) Profile(label string) *Profile {
	return &Profile{
		Label:      label,
		TotalVTime: t.Clock(),
		Stages:     t.Stages(),
		Indexes:    t.IndexProfiles(),
		Counters:   t.Metrics.Counters(),
		Gauges:     t.Metrics.Gauges(),
	}
}

// Write serializes the profile as indented JSON.
func (p *Profile) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// WriteFile writes the profile to path.
func (p *Profile) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadProfile loads a profile written by Write.
func ReadProfile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("obs: %s is not a profile: %w", path, err)
	}
	return &p, nil
}

// CompareProfiles is the benchmark-regression gate: it returns one
// message per stage (or per latency gauge) of base whose virtual time
// regressed by more than tol in cur (tol 0.10 = fail above +10%), and
// per base stage that disappeared. Stages only cur has are additions,
// not regressions. Speedups never fail the gate.
func CompareProfiles(base, cur *Profile, tol float64) []string {
	var regressions []string
	curStages := make(map[string]StageProfile, len(cur.Stages))
	for _, s := range cur.Stages {
		curStages[s.Name] = s
	}
	for _, b := range base.Stages {
		c, ok := curStages[b.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("stage %q: present in baseline, missing from current profile", b.Name))
			continue
		}
		if b.VTime <= 0 {
			continue
		}
		if ratio := c.VTime / b.VTime; ratio > 1+tol {
			regressions = append(regressions, fmt.Sprintf(
				"stage %q: virtual time %.4fs → %.4fs (%+.1f%%, budget %+.0f%%)",
				b.Name, b.VTime, c.VTime, (ratio-1)*100, tol*100))
		}
	}
	curGauges := make(map[string]float64, len(cur.Gauges))
	for _, g := range cur.Gauges {
		curGauges[g.Name] = g.Value
	}
	for _, b := range base.Gauges {
		if !gated(b.Name) || b.Value <= 0 {
			continue
		}
		c, ok := curGauges[b.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("gauge %q: present in baseline, missing from current profile", b.Name))
			continue
		}
		if ratio := c / b.Value; ratio > 1+tol {
			regressions = append(regressions, fmt.Sprintf(
				"gauge %q: %.6f → %.6f (%+.1f%%, budget %+.0f%%)",
				b.Name, b.Value, c, (ratio-1)*100, tol*100))
		}
	}
	return regressions
}

// gated reports whether a gauge takes part in the gate. That is encoded in
// its name, so experiments opt metrics in just by naming them: ".vms"
// virtual-time latencies must not rise; everything else (Θ or R readings,
// sizes) is descriptive. Wall-clock numbers are not gauges of this program:
// they are measured by bench/, in paired runs.
func gated(name string) bool { return strings.HasSuffix(name, ".vms") }
