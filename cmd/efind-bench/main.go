// Command efind-bench regenerates the paper's evaluation (§5): every
// panel of Figure 11, Figure 12, Figure 13, and the ablation studies
// DESIGN.md calls out. Results are virtual times from the calibrated
// cluster simulation; the reproduced claims are the relative shapes.
//
// Usage:
//
//	efind-bench                    # run everything at full scale
//	efind-bench -quick             # run everything at quick (test) scale
//	efind-bench -fig 11a           # run one experiment
//	efind-bench -fig 11f,12        # run several
//	efind-bench -batch             # batched multi-get vs per-key lookups
//	efind-bench -list              # list experiment IDs
//	efind-bench -chaos seed=7      # chaos ablation under fault schedule 7
//	efind-bench -calibrate -quick -fig fstore-sweep   # measured storage costs
//
// The -calibrate mode builds a real mmap-backed snapshot (internal/fstore),
// measures its write throughput, cold- and warm-mapping lookup latencies,
// and index-only probe latency on this machine, prints the measurements,
// and feeds the measured f (store-and-retrieve cost per byte) and T_j
// (per-lookup serve time) into the cost model for the experiments that
// follow — replacing the stipulated constants of sim.DefaultConfig.
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
// Observability (all virtual time, bit-identical across serial and
// parallel executions of the same seed):
//
//	efind-bench -quick -fig 11f -trace trace.json   # Chrome trace (Perfetto)
//	efind-bench -quick -fig 11f,12 -profile BENCH_ci.json -label ci
//	efind-bench -quick -fig 11f,12 -profile BENCH_ci.json -gate BENCH_baseline.json
//
// With -gate, the run's profile is compared against the baseline profile
// and the command exits 1 if any stage's virtual time (or any latency
// gauge) regressed by more than -gate-tol.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"efind/internal/experiments"
	"efind/internal/fstore"
	"efind/internal/obs"
)

func main() {
	var (
		fig        = flag.String("fig", "", "comma-separated experiment IDs to run (default: all)")
		quick      = flag.Bool("quick", false, "use the quick (test) scale instead of full scale")
		batch      = flag.Bool("batch", false, "run the batched multi-get vs per-key lookup comparison (Fig. 11(f) sweep)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto)")
		profileOut = flag.String("profile", "", "write the machine-readable job profile (BENCH JSON) to this file")
		label      = flag.String("label", "bench", "label recorded in the -profile output")
		gate       = flag.String("gate", "", "baseline BENCH JSON to gate against; exit 1 on regression beyond -gate-tol")
		gateTol    = flag.Float64("gate-tol", 0.10, "per-stage virtual-time regression budget for -gate (0.10 = +10%)")
		chaosSeed  = flag.String("chaos", "", "run the chaos ablation under this fault-schedule seed (seed=N or N)")
		calibrate  = flag.Bool("calibrate", false, "measure real snapshot store latencies (write, cold mmap read, warm lookups, index-only probes) on this machine and feed the measured f and T_j into the cost model")
		calOut     = flag.String("calibrate-out", "", "with -calibrate, also write the measured calibration profile as JSON to this file")
	)
	flag.Parse()

	if *chaosSeed != "" {
		seed, err := parseChaosSeed(*chaosSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "efind-bench: %v\n", err)
			os.Exit(1)
		}
		experiments.ChaosSeed = seed
		if *fig == "" {
			*fig = "ablation-chaos"
		}
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-18s %s\n", e.ID, e.Description)
		}
		return
	}

	scale := experiments.FullScale()
	scaleName := "full"
	if *quick {
		scale = experiments.QuickScale()
		scaleName = "quick"
	}

	run := experiments.All()
	if *batch {
		run = []experiments.Experiment{*experiments.Find("batchcmp")}
	}
	if *fig != "" {
		run = nil
		for _, id := range strings.Split(*fig, ",") {
			id = strings.TrimSpace(id)
			e := experiments.Find(id)
			if e == nil {
				fmt.Fprintf(os.Stderr, "efind-bench: unknown experiment %q (try -list)\n", id)
				os.Exit(1)
			}
			run = append(run, *e)
		}
	}

	var tr *obs.Trace
	if *traceOut != "" || *profileOut != "" || *gate != "" {
		tr = obs.NewTrace()
		experiments.SetTrace(tr)
	}

	if *calibrate {
		cal, err := fstore.Calibrate(os.TempDir(), fstore.DefaultCalibrateConfig())
		if err != nil {
			fmt.Fprintf(os.Stderr, "efind-bench: calibration failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("storage calibration (mmap=%v): %s\n\n", fstore.MmapAvailable(), cal)
		experiments.SetCalibration(&cal)
		if tr != nil {
			// Wall-clock measurements, so deliberately NOT named *.vms:
			// they are recorded in the profile for inspection but
			// never gated — machine variance is the signal here, not a
			// regression.
			tr.Metrics.SetGauge("calibrate.f.s_per_byte", cal.F)
			tr.Metrics.SetGauge("calibrate.tj.cold.s", cal.TjCold)
			tr.Metrics.SetGauge("calibrate.tj.warm.s", cal.TjWarm)
			tr.Metrics.SetGauge("calibrate.tj.probe.s", cal.TjProbe)
			tr.Metrics.SetGauge("calibrate.write.bytes_per_s", cal.WriteBytesPerSec)
			tr.Metrics.SetGauge("calibrate.read.bytes_per_s", cal.ReadBytesPerSec)
		}
		if *calOut != "" {
			data, err := json.MarshalIndent(struct {
				MmapAvailable bool `json:"mmap_available"`
				fstore.Calibration
			}{fstore.MmapAvailable(), cal}, "", " ")
			if err == nil {
				err = os.WriteFile(*calOut, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "efind-bench: writing %s: %v\n", *calOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote calibration profile to %s\n\n", *calOut)
		}
	}

	fmt.Printf("EFind evaluation harness — %d experiment(s) at %s scale\n\n", len(run), scaleName)
	for _, e := range run {
		if tr != nil {
			tr.SetSection(e.ID)
		}
		start := time.Now()
		tbl, err := e.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "efind-bench: experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		tbl.Print(os.Stdout)
		fmt.Printf("  (wall time %.1fs)\n\n", time.Since(start).Seconds())
	}

	if tr == nil {
		return
	}
	if *traceOut != "" {
		if err := writeTrace(tr, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "efind-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace to %s (open at https://ui.perfetto.dev)\n", *traceOut)
	}
	prof := tr.Profile(*label)
	if *profileOut != "" {
		if err := prof.WriteFile(*profileOut); err != nil {
			fmt.Fprintf(os.Stderr, "efind-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote job profile to %s\n", *profileOut)
	}
	if *gate != "" {
		base, err := obs.ReadProfile(*gate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "efind-bench: %v\n", err)
			os.Exit(1)
		}
		regressions := obs.CompareProfiles(base, prof, *gateTol)
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "efind-bench: %d regression(s) vs %s:\n", len(regressions), *gate)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("benchmark gate passed: no stage regressed beyond %+.0f%% vs %s\n", *gateTol*100, *gate)
	}
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
