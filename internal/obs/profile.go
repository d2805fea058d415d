package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Profile is the machine-readable job profile (BENCH_<label>.json): the
// per-stage virtual times, the per-index modeled-vs-observed cost rows,
// and the full sorted counter and gauge snapshot of the run — all of it
// held to equality by the CI gate. Everything is virtual time, so serial and
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

// CompareProfiles is the benchmark gate: the differences between two
// profiles, one message each, none exactly when the total virtual time
// and every stage, index row, counter and gauge of one is in the other
// with the same value. A profile holds virtual times and counts only, so
// there is no tolerance and no direction: a run reproduces the baseline,
// or the baseline is regenerated on purpose, like any golden. Rows only
// one side has are reported per group — the figure leading their name —
// and not one by one: they mean the two runs covered different figures.
func CompareProfiles(base, cur *Profile) []string {
	b, c := base.rows(), cur.rows()
	var diffs []string
	oneSided := make(map[string]int)
	for row, bv := range b {
		if cv, ok := c[row]; !ok {
			oneSided[row.group()+" only in the baseline"]++
		} else if bv != cv {
			diffs = append(diffs, fmt.Sprintf("%s: baseline %s, current %s", row, bv, cv))
		}
	}
	for row := range c {
		if _, ok := b[row]; !ok {
			oneSided[row.group()+" only in the current profile"]++
		}
	}
	for group, n := range oneSided {
		diffs = append(diffs, fmt.Sprintf("%s (%d) — recorded for a different set of figures?", group, n))
	}
	sort.Strings(diffs)
	return diffs
}

// profileRow names one value of a profile: a stage, counter or gauge by
// its name, an index row by its key and — the jobs of one section share a
// key, and IndexProfiles' sort leaves equal keys in no fixed order, so
// they compare as a multiset — its rank among the rows of that key.
type profileRow struct {
	kind, name string
	nth        int
}

func (r profileRow) String() string {
	if r.nth > 0 {
		return fmt.Sprintf("%s %q #%d", r.kind, r.name, r.nth)
	}
	return fmt.Sprintf("%s %q", r.kind, r.name)
}

// group names the rows that come and go together: those whose name starts
// with the same path element — the section's figure ID for stages and
// index rows, the family for dotted gauge and counter names.
func (r profileRow) group() string {
	first := r.name
	if i := strings.IndexAny(first, "/ ."); i >= 0 {
		first = first[:i]
	}
	return fmt.Sprintf("%s %q", r.kind, first)
}

// rows flattens a profile to one printed value per row (%v prints a
// float64 with the digits that tell it from its neighbours, so rows are
// equal exactly when their values are).
func (p *Profile) rows() map[profileRow]string {
	rows := map[profileRow]string{{kind: "profile", name: "total_vtime"}: fmt.Sprint(p.TotalVTime)}
	for _, s := range p.Stages {
		rows[profileRow{kind: "stage", name: s.Name}] = fmt.Sprintf("%+v", s)
	}
	byKey := make(map[string][]string)
	for _, ix := range p.Indexes {
		byKey[ix.Key] = append(byKey[ix.Key], fmt.Sprintf("%+v", ix))
	}
	for key, vals := range byKey {
		sort.Strings(vals)
		for i, v := range vals {
			rows[profileRow{kind: "index", name: key, nth: i + 1}] = v
		}
	}
	for _, m := range p.Counters {
		rows[profileRow{kind: "counter", name: m.Name}] = fmt.Sprint(m.Value)
	}
	for _, g := range p.Gauges {
		rows[profileRow{kind: "gauge", name: g.Name}] = fmt.Sprint(g.Value)
	}
	return rows
}
