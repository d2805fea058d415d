package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"efind/internal/experiments"
	"efind/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fig12.json")

// Every test but TestQuickGate runs Figure 12 only: six probes, no job,
// under 0.1 s.
const fig12Golden = "testdata/fig12.json"

func bench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

func TestListEqualsRegistry(t *testing.T) {
	code, stdout, stderr := bench(t, "-list")
	if code != 0 || stderr != "" {
		t.Fatalf("-list: exit %d, stderr %q", code, stderr)
	}
	var want strings.Builder
	for _, e := range experiments.All() {
		fmt.Fprintf(&want, "%-18s %s\n", e.ID, e.Description)
	}
	if stdout != want.String() {
		t.Fatalf("-list printed\n%s\nwant experiments.All():\n%s", stdout, want.String())
	}
}

// TestFlagSet pins the command's options: the one-clock harness has seven,
// none of them a tolerance or a second source of constants.
func TestFlagSet(t *testing.T) {
	code, _, usage := bench(t, "-h")
	var flags []string
	for _, line := range strings.Split(usage, "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	if got, want := strings.Join(flags, " "), "-fig -gate -label -list -profile -quick -trace"; code != 0 || got != want {
		t.Fatalf("-h: exit %d, flags %s; want %s", code, got, want)
	}
}

// TestRejectedFlags: what the command cannot do as asked is one line on
// stderr, nothing run, and a non-zero status — 2 for a flag that does not
// exist.
func TestRejectedFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string
	}{
		{"-quick -fig 12,fig99", 1, `unknown experiment "fig99"`},
		{"-quick -batch", 2, "flag provided but not defined: -batch"},
		{"-quick -chaos seed=7", 2, "flag provided but not defined: -chaos"},
		{"-quick -fig 12 -gate-tol 0.1", 2, "flag provided but not defined: -gate-tol"},
	} {
		code, stdout, stderr := bench(t, strings.Fields(tc.args)...)
		if code != tc.code || !strings.Contains(stderr, tc.want) || strings.Contains(stdout, "==") {
			t.Errorf("efind-bench %s: exit %d, stdout %q, stderr %q; want exit %d naming %q and no table",
				tc.args, code, stdout, stderr, tc.code, tc.want)
		}
	}
}

// TestGateIsEquality drives -gate end to end: the committed Figure 12
// profile passes; a baseline one ulp away in either direction fails naming
// the gauge; so does a stage that only one side has.
func TestGateIsEquality(t *testing.T) {
	if *updateGolden {
		if code, _, stderr := bench(t, "-quick", "-fig", "12", "-label", "golden", "-profile", fig12Golden); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
	}
	code, stdout, stderr := bench(t, "-quick", "-fig", "12", "-gate", fig12Golden)
	if code != 0 || !strings.Contains(stdout, "benchmark gate passed") {
		t.Fatalf("gate against the committed golden: exit %d\n%s%s", code, stdout, stderr)
	}

	golden, err := obs.ReadProfile(fig12Golden)
	if err != nil {
		t.Fatal(err)
	}
	gateAgainst := func(edit func(p *obs.Profile)) (int, string) {
		p := *golden
		p.Gauges = append([]obs.Gauge(nil), golden.Gauges...)
		edit(&p)
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := p.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		code, _, stderr := bench(t, "-quick", "-fig", "12", "-gate", path)
		return code, stderr
	}

	for _, towards := range []float64{math.Inf(1), math.Inf(-1)} {
		code, stderr := gateAgainst(func(p *obs.Profile) {
			p.Gauges[0].Value = math.Nextafter(p.Gauges[0].Value, towards)
		})
		if name := golden.Gauges[0].Name; code != 1 || !strings.Contains(stderr, "1 difference(s)") || !strings.Contains(stderr, name) {
			t.Fatalf("baseline one ulp towards %v: exit %d, stderr %q; want exit 1 naming %s alone", towards, code, stderr, name)
		}
	}

	code, stderr = gateAgainst(func(p *obs.Profile) {
		p.Stages = append(p.Stages, obs.StageProfile{Name: "11f/l=10/base syn-base-j0/map", Kind: "map", VTime: 0.1})
	})
	if code != 1 || !strings.Contains(stderr, `stage "11f" only in the baseline (1)`) {
		t.Fatalf("baseline with a Fig. 11(f) stage: exit %d, stderr %q", code, stderr)
	}
	code, stderr = gateAgainst(func(p *obs.Profile) { p.Gauges = nil })
	if want := fmt.Sprintf(`gauge "12" only in the current profile (%d)`, len(golden.Gauges)); code != 1 || !strings.Contains(stderr, want) {
		t.Fatalf("baseline without Figure 12: exit %d, stderr %q; want %q", code, stderr, want)
	}
}

// TestStdoutReproducible: nothing the command prints depends on the run.
func TestStdoutReproducible(t *testing.T) {
	_, first, _ := bench(t, "-quick", "-fig", "12")
	code, second, stderr := bench(t, "-quick", "-fig", "12")
	if code != 0 || first != second || !strings.Contains(first, "Figure 12") {
		t.Fatalf("two runs differ (exit %d, stderr %q):\n%s\n---\n%s", code, stderr, first, second)
	}
}

// TestQuickGate runs CI's gate command: every experiment at quick scale,
// each checking the paper's claims on its table, and the run's profile —
// every stage, index row, counter and table cell — equal to the
// committed baseline. A change that moves a cell with every claim intact
// fails here, naming the gauge.
func TestQuickGate(t *testing.T) {
	code, stdout, stderr := bench(t, "-quick", "-gate", "../../BENCH_baseline.json")
	if code != 0 || !strings.Contains(stdout, "benchmark gate passed") {
		t.Fatalf("efind-bench -quick -gate ../../BENCH_baseline.json: exit %d\n%s", code, stderr)
	}
}
