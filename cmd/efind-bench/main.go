// Command efind-bench regenerates the paper's evaluation (§5): every
// panel of Figure 11, Figure 12, Figure 13, and the ablation studies
// DESIGN.md calls out. Results are virtual times from the cluster
// simulation under the cost model's stipulated constants, so everything
// the command prints or writes is identical from run to run and across
// GOMAXPROCS values; the reproduced claims are the relative shapes, which
// every experiment checks on its own table: the command prints the table
// and exits 1 naming the first claim that does not hold. What the Go code
// costs in wall time is measured by bench/, in paired runs.
//
// Usage:
//
//	efind-bench                    # run everything at full scale
//	efind-bench -quick             # run everything at quick (test) scale
//	efind-bench -fig 11a           # run one experiment
//	efind-bench -fig 11f,12        # run several
//	efind-bench -list              # list experiment IDs
//	efind-bench -chaos seed=7      # chaos ablation under fault schedule 7
//
// The -chaos mode runs the seeded chaos ablation (node crash, stragglers
// with speculative backups, index outage with degradation to baseline)
// and exits 1 if any faulty run's output diverges from the fault-free
// run. Combine with -fig to run other experiments under the same seed.
// The ablation's runs keep private traces (each row is judged on its own
// isolated counters), so -trace captures only the regular experiments;
// chaos trace instants (crash:node, speculate:, reopt:failure) are
// pinned by the Chaos test suites instead.
//
// Observability:
//
//	efind-bench -quick -fig 11f -trace trace.json   # Chrome trace (Perfetto)
//	efind-bench -quick -fig 11f,12 -profile BENCH_ci.json -label ci
//	efind-bench -quick -profile BENCH_ci.json -gate BENCH_baseline.json   # CI's gate: all experiments
//
// With -gate, the run's profile is compared against the baseline profile
// and the command exits 1 unless the two are equal: total virtual time,
// every stage, index row, counter and gauge, in both directions. Every
// printed table cell is gauge <ID>/<row>/<column>. A change that moves a
// virtual time on purpose regenerates the baseline with -profile, like any
// golden file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"efind/internal/experiments"
	"efind/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: 0 on success, 1 when an experiment or the gate
// fails, 2 when the flags make no sense.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("efind-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig        = fs.String("fig", "", "comma-separated experiment IDs to run (default: all)")
		quick      = fs.Bool("quick", false, "use the quick (test) scale instead of full scale")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
		traceOut   = fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto)")
		profileOut = fs.String("profile", "", "write the machine-readable job profile (BENCH JSON) to this file")
		label      = fs.String("label", "bench", "label recorded in the -profile output")
		gate       = fs.String("gate", "", "baseline BENCH JSON the run's profile must equal; exit 1 on any difference")
		chaosSeed  = fs.String("chaos", "", "run the chaos ablation under this fault-schedule seed (seed=N or N)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...interface{}) int {
		fmt.Fprintf(stderr, "efind-bench: "+format+"\n", a...)
		return code
	}
	if *chaosSeed != "" && *gate != "" {
		return fail(2, "-gate compares against a baseline recorded under the default fault seed; drop -chaos or -gate")
	}

	if *chaosSeed != "" {
		seed, err := parseChaosSeed(*chaosSeed)
		if err != nil {
			return fail(1, "%v", err)
		}
		experiments.ChaosSeed = seed
		if *fig == "" {
			*fig = "ablation-chaos"
		}
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-18s %s\n", e.ID, e.Description)
		}
		return 0
	}

	scale := experiments.FullScale()
	scaleName := "full"
	if *quick {
		scale = experiments.QuickScale()
		scaleName = "quick"
	}

	todo := experiments.All()
	if *fig != "" {
		todo = nil
		for _, id := range strings.Split(*fig, ",") {
			id = strings.TrimSpace(id)
			e := experiments.Find(id)
			if e == nil {
				return fail(1, "unknown experiment %q (try -list)", id)
			}
			todo = append(todo, *e)
		}
	}

	var tr *obs.Trace
	if *traceOut != "" || *profileOut != "" || *gate != "" {
		tr = obs.NewTrace()
		experiments.SetTrace(tr)
		defer experiments.SetTrace(nil)
	}

	fmt.Fprintf(stdout, "EFind evaluation harness — %d experiment(s) at %s scale\n\n", len(todo), scaleName)
	for _, e := range todo {
		if tr != nil {
			tr.SetSection(e.ID)
		}
		tbl, err := e.Run(scale)
		if tbl != nil { // a table whose claim failed is shown too
			tbl.Print(stdout)
			fmt.Fprintln(stdout)
		}
		if err != nil {
			return fail(1, "experiment %s failed: %v", e.ID, err)
		}
	}

	if tr == nil {
		return 0
	}
	if *traceOut != "" {
		if err := writeTrace(tr, *traceOut); err != nil {
			return fail(1, "%v", err)
		}
		fmt.Fprintf(stdout, "wrote Chrome trace to %s (open at https://ui.perfetto.dev)\n", *traceOut)
	}
	prof := tr.Profile(*label)
	if *profileOut != "" {
		if err := prof.WriteFile(*profileOut); err != nil {
			return fail(1, "%v", err)
		}
		fmt.Fprintf(stdout, "wrote job profile to %s\n", *profileOut)
	}
	if *gate != "" {
		base, err := obs.ReadProfile(*gate)
		if err != nil {
			return fail(1, "%v", err)
		}
		if diffs := obs.CompareProfiles(base, prof); len(diffs) > 0 {
			return fail(1, "%d difference(s) vs %s:\n  %s", len(diffs), *gate, strings.Join(diffs, "\n  "))
		}
		fmt.Fprintf(stdout, "benchmark gate passed: profile equal to %s\n", *gate)
	}
	return 0
}

// parseChaosSeed accepts "seed=N" (the documented spelling) or bare "N".
func parseChaosSeed(s string) (int64, error) {
	s = strings.TrimPrefix(s, "seed=")
	seed, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid -chaos value %q: want seed=N", s)
	}
	return seed, nil
}

// writeTrace writes the Chrome trace-event file.
func writeTrace(tr *obs.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
