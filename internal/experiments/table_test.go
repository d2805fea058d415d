package experiments

import (
	"fmt"
	"strings"
	"testing"

	"efind/internal/obs"
)

func TestTablePrintLayout(t *testing.T) {
	tbl := &Table{Title: "demo table", Columns: []string{"colA", "colB"}}
	tbl.Add("row-one", 1.25, 2.5)
	tbl.Add("row-two", 3, 4)
	tbl.Note("something %d", 42)
	var b strings.Builder
	tbl.Print(&b)
	out := b.String()
	for _, want := range []string{"demo table", "colA", "colB", "row-one", "1.250", "note: something 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printed table missing %q:\n%s", want, out)
		}
	}
	// Every row line has the same column alignment width.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

func TestTableCellLookup(t *testing.T) {
	tbl := &Table{Columns: []string{"x"}}
	tbl.Add("r", 7)
	if v, ok := tbl.Cell("r", "x"); !ok || v != 7 {
		t.Fatalf("cell = %v %v", v, ok)
	}
	if _, ok := tbl.Cell("r", "y"); ok {
		t.Fatal("unknown column resolved")
	}
	if _, ok := tbl.Cell("z", "x"); ok {
		t.Fatal("unknown row resolved")
	}
}

// TestTableClaim: the first failed claim sticks, named with the table's
// title; later claims, failing or not, leave it. A missing cell fails one.
func TestTableClaim(t *testing.T) {
	tbl := &Table{Title: "demo table", Columns: []string{"x"}}
	tbl.Add("r", 7)
	tbl.claim(tbl.at("r", "x") == 7, "held")
	tbl.claim(false, "first %d", 1)
	tbl.claim(false, "second")
	tbl.claim(true, "third")
	if fmt.Sprint(tbl.err) != "demo table: first 1" {
		t.Fatalf("err = %v, want the first failure under the title", tbl.err)
	}
	if tbl := (&Table{Title: "t"}); tbl.at("r", "x") != 0 || fmt.Sprint(tbl.err) != "t: no cell (r, x)" {
		t.Fatalf("a missing cell gave err = %v", tbl.err)
	}
}

// TestPinCells: every cell of a table — its claims failed or not — lands
// in the registry as gauge <id>/<row>/<column>.
func TestPinCells(t *testing.T) {
	tr := obs.NewTrace()
	tbl := &Table{Title: "demo", Columns: []string{"a", "b"}}
	tbl.Add("r1", 1, 2)
	tbl.Add("r2", 3, 4)
	tbl.claim(false, "failed")
	tbl.Record(tr.Metrics, "demo")
	var got []string
	for _, g := range tr.Metrics.Gauges() {
		got = append(got, fmt.Sprintf("%s=%g", g.Name, g.Value))
	}
	if want := "demo/r1/a=1 demo/r1/b=2 demo/r2/a=3 demo/r2/b=4"; tbl.err == nil || strings.Join(got, " ") != want {
		t.Fatalf("err %v, gauges %v; want the claim's error and %s", tbl.err, got, want)
	}
}

func TestScalesDistinct(t *testing.T) {
	q, f := QuickScale(), FullScale()
	if q.LogEvents >= f.LogEvents || q.SynRecords >= f.SynRecords {
		t.Fatal("full scale should exceed quick scale")
	}
	if len(f.SynSizes) < len(q.SynSizes) {
		t.Fatal("full scale should sweep at least as many sizes")
	}
}
