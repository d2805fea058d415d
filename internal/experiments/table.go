// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated cluster: Figure 11(a)–(f) strategy
// comparisons over LOG, TPC-H Q3/Q9 (±DUP10) and the synthetic l-sweep,
// Figure 12's lookup latency curves, Figure 13's kNN join comparison
// against H-zkNNJ, and the ablations DESIGN.md calls out. Results are
// virtual times from the calibrated cost model. Each experiment checks
// the paper's claims on its own table — the relative shapes: who wins, by
// what factor, where the crossovers fall — and fails when one does not
// hold; the benchmark gate pins every cell of every table exactly.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"efind/internal/obs"
)

// Table is one experiment's result: labeled rows of named columns.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	// Notes records per-run observations (chosen plans, recall, replans).
	Notes []string
	// err is the first claim that failed on the table, if any.
	err error
}

// Row is one parameter setting's measurements.
type Row struct {
	Label string
	Cells []float64
}

// Record sets gauge <id>/<row>/<column> of m to every cell of the table,
// its claims failed or not: what the benchmark gate holds to equality.
func (t *Table) Record(m *obs.Registry, id string) {
	for _, r := range t.Rows {
		for i, v := range r.Cells {
			m.SetGauge(id+"/"+r.Label+"/"+t.Columns[i], v)
		}
	}
}

// Add appends a row.
func (t *Table) Add(label string, cells ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// Note appends an observation.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Cell returns the value at (rowLabel, column), or (0, false) when absent.
func (t *Table) Cell(rowLabel, column string) (float64, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel && ci < len(r.Cells) {
			return r.Cells[ci], true
		}
	}
	return 0, false
}

// claim states one of the experiment's claims about its table. The first
// claim that fails sticks, as the experiment's error, prefixed by the
// title; later ones, failing or not, leave it alone.
func (t *Table) claim(ok bool, format string, args ...interface{}) {
	if !ok && t.err == nil {
		t.err = fmt.Errorf("%s: %s", t.Title, fmt.Sprintf(format, args...))
	}
}

// at returns the cell at (rowLabel, column); a missing cell fails a claim,
// since none about it can hold.
func (t *Table) at(rowLabel, column string) float64 {
	v, ok := t.Cell(rowLabel, column)
	t.claim(ok, "no cell (%s, %s)", rowLabel, column)
	return v
}

// Print renders the table in aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	width := 14
	fmt.Fprintf(w, "%-22s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%*s", width, c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-22s", r.Label)
		for _, v := range r.Cells {
			fmt.Fprintf(w, "%*.3f", width, v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w, strings.Repeat("-", 22+width*len(t.Columns)))
}

// Scale sizes an experiment run. Quick keeps the benchmark gate fast;
// Full is the cmd/efind-bench default and stresses multiple task waves
// per phase.
type Scale struct {
	LogEvents         int
	LogDelaysMs       []float64
	TPCHSF            float64
	TPCHSupplierScale int
	SynRecords        int
	SynKeyDomain      int
	SynSizes          []int
	SpatialA          int
	SpatialB          int
	KNNK              int
	// Chaos multi-tenant sizes: the shared cluster's node count, the
	// tenant count, and the jobs each tenant submits (full scale: 64
	// concurrent jobs on a 10k-node cluster). ChaosMTRecords,
	// when non-zero, sizes the shared synthetic input the tenants' jobs
	// query instead of SynRecords — at full scale the experiment's claim
	// is jobs × nodes, so the per-job input stays moderate to keep the
	// five-leg run (which re-executes every job up to five times)
	// bench-budget sized.
	ChaosMTNodes   int
	ChaosMTTenants int
	ChaosMTJobs    int
	ChaosMTRecords int
}

// QuickScale is what -quick, the benchmark gate and TestExperiments run.
func QuickScale() Scale {
	return Scale{
		LogEvents:         20000,
		LogDelaysMs:       []float64{0, 1, 3, 5},
		TPCHSF:            1,
		TPCHSupplierScale: 75,
		SynRecords:        8000,
		SynKeyDomain:      4000,
		SynSizes:          []int{10, 1024, 30720},
		SpatialA:          1500,
		SpatialB:          6000,
		KNNK:              10,
		ChaosMTNodes:      96,
		ChaosMTTenants:    3,
		ChaosMTJobs:       4,
	}
}

// FullScale mirrors the paper's relative sizes at simulation scale.
func FullScale() Scale {
	return Scale{
		LogEvents:         150000,
		LogDelaysMs:       []float64{0, 1, 2, 3, 4, 5},
		TPCHSF:            4,
		TPCHSupplierScale: 75,
		SynRecords:        50000,
		SynKeyDomain:      25000,
		SynSizes:          []int{10, 100, 1024, 10240, 30720},
		SpatialA:          6000,
		SpatialB:          20000,
		KNNK:              10,
		ChaosMTNodes:      10_000,
		ChaosMTTenants:    4,
		ChaosMTJobs:       16,
		ChaosMTRecords:    12_000,
	}
}
