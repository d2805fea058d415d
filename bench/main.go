// Command bench is the repo's wall-clock benchmark: five workloads that
// drive the system through the exported functions of internal/*, nine
// end-to-end metrics measured with every decorator off, and a traced run
// that attributes the time to layers. BENCHMARK.json at the repo root
// names it; README.md in this directory explains every number.
//
//	go run . -workload syn_small            # one workload, end-to-end metrics
//	go run . -workload syn_small -trace 1   # per-layer metrics + out/trace_syn_small.json
//	go run . -workload all                  # every workload, a fresh process each
//	go run . -aa                            # every workload twice; spreads vs bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
)

// workloads in presentation order.
var allWorkloads = []*workloadSpec{synSmall, synLarge, tpchQ3Q9, schedScale, svcDurable}

func findWorkload(name string) *workloadSpec {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options are the parsed command-line flags.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	out        string
	aa         bool
	seeds      int
	cpuProfile string
	memProfile string
	tiny       bool // test-only reduced sizes; no flag sets it
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: syn_small, syn_large, tpch_q3q9, sched_scale, svc_durable, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every input generator (2 is the hold-out seed, see README.md)")
	fs.Float64Var(&o.seconds, "seconds", 8, "timed seconds per run: rounds repeat until their timed sections add up to this")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and out/trace_<workload>.json instead of end-to-end metrics")
	fs.StringVar(&o.out, "out", "out", "directory for traces and scratch files")
	fs.BoolVar(&o.aa, "aa", false, "A/A check: two sets of runs of every workload, spreads and medians compared against each end-to-end metric's bound")
	fs.IntVar(&o.seeds, "seeds", 10, "with -aa: runs per set, seeds 1..n (1 = every workload twice back to back)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile; samples of timed sections carry the pprof label section=timed (go tool pprof -tagfocus=section=timed)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile sampled in timed sections only")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace takes 0 or 1, got %d", o.trace)
	}
	if o.seeds < 1 {
		return nil, fmt.Errorf("-seeds must be at least 1, got %d", o.seeds)
	}
	if !o.aa && o.workload == "" {
		return nil, fmt.Errorf("-workload is required (or -aa)")
	}
	return o, nil
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildResult pairs the collected values with the declared metrics; a
// declared metric that was not collected is an error for end-to-end
// metrics and 0 (layer not exercised) for per-layer ones.
func buildResult(defs []metricDef, requireAll bool, s summary) (*result, error) {
	r := &result{Correct: s.correct, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := s.metrics[d.name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if err := checkFinite(d.name, v); err != nil {
			return nil, err
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range s.metrics {
		if _, ok := r.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return r, nil
}

// printResult writes every metric by name with its unit, then the JSON
// object as the last line.
func printResult(w io.Writer, spec *workloadSpec, o *options, s summary, r *result) error {
	fmt.Fprintf(w, "# workload %s seed %d trace %d\n", spec.name, o.seed, o.trace)
	for _, n := range s.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-48s %18.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "# correct %v, attempted %d, failed %d\n", r.Correct, r.Attempted, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runWorkload is one process's work: one workload, traced or not.
func runWorkload(spec *workloadSpec, o *options, stdout io.Writer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(o.out, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	// min(nproc, 4) processors: the reference host has 2 vCPUs; capping
	// keeps a bigger machine from measuring a different parallelism.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	probe, err := startHostProbe(procs)
	if err != nil {
		return err
	}
	defer probe.stop()
	e := &env{seed: o.seed, scratch: scratch, tiny: o.tiny, host: probe}

	prof := profiling{cpu: o.cpuProfile != "", mem: o.memProfile != ""}
	if prof.mem {
		// Sampling is switched on by the meter for timed sections only.
		runtime.MemProfileRate = 0
	}
	if prof.cpu {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var s summary
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
		s, err = runTraced(spec, e, filepath.Join(o.out, "trace_"+spec.name+".json"))
	} else {
		var rounds []*roundResult
		if rounds, err = runRounds(spec, e, o.seconds, prof); err == nil {
			s = summarize(rounds)
		}
	}
	if err != nil {
		return err
	}
	// A per-layer metric that was not measured is a layer the workload
	// does not exercise; an end-to-end metric must always be there.
	res, err := buildResult(defs, o.trace == 0, s)
	if err != nil {
		return err
	}
	if prof.mem {
		if err := writeAllocProfile(o.memProfile); err != nil {
			return err
		}
	}
	if err := probe.stop(); err != nil {
		return err
	}
	return printResult(stdout, spec, o, s, res)
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	switch {
	case o.aa:
		err = runAA(o, stdout, stderr)
	case o.workload == "all":
		_, err = runAll(o, o.seed, stdout, stderr)
	default:
		spec := findWorkload(o.workload)
		if spec == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		err = runWorkload(spec, o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func main() {
	if servedHostProbe() {
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
