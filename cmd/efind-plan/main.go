// Command efind-plan explains EFind's cost-based optimizer: given the
// Table 1 statistics of one index access operation, it prices all five
// strategies — formulas (1)–(4) of the paper plus the adaptive build
// strategy of internal/adaptix — and prints the chosen plan with a cost
// breakdown: a what-if tool for understanding when caching,
// re-partitioning, index locality, or building an index as a job
// side-effect pays off.
//
// Example:
//
//	efind-plan -n1 100000 -nik 1 -sik 20 -siv 1024 -tj 0.8ms -theta 8 -r 0.9
//	efind-plan -theta 1 -r 1 -siv 30720        # distinct keys, big results
//	efind-plan -pos head -build-total 240 -build-covered 60
//	                                           # partially built index: the
//	                                           # fifth strategy's BuildCost
//	                                           # term and break-even run
//	efind-plan -profile BENCH_ci.json          # render a bench profile
//	efind-plan -wal /var/efind/journal         # inspect a job-service WAL
//
// With -build-total > 0 the modeled index is buildable (registry coverage
// -build-covered of -build-total splits): -tj becomes the fully-built
// store's serve time, the blended serve time at current coverage prices
// all strategies, and -explain additionally renders the build strategy's
// registry completeness, BuildCost term, amortized rank, and predicted
// break-even run count. The build strategy applies to head operators only
// (the piggyback stage rides the map scan).
//
// Values the model cannot price are rejected with one line on stderr and
// exit status 1: a bandwidth that is not positive, a negative count, size,
// time or cost, a miss ratio outside [0, 1], an unknown position, a build
// coverage outside [0, -build-total].
//
// With -profile, the tool instead renders a machine-readable job profile
// written by `efind-bench -profile` as a human-readable report: per-stage
// virtual times, per-index modeled-vs-observed costs, and the sorted
// counter/gauge snapshot.
//
// With -wal, the tool renders a durable job service's write-ahead
// journal directory: one line per record (admissions, grants, phase
// ends, completions, checkpoints), and a final marker when the journal
// ends in a torn frame — the signature of a crash mid-append.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"efind/internal/core"
	"efind/internal/jobsvc"
	"efind/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("efind-plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		profile = fs.String("profile", "", "render this BENCH profile JSON instead of running the what-if model")
		walDir  = fs.String("wal", "", "render this job-service journal directory instead of running the what-if model")
		explain = fs.Bool("explain", true, "print the per-strategy cost breakdown (false: chosen plan only)")
		n1      = fs.Float64("n1", 50000, "records per parallel lookup lane (Table 1's N1)")
		nik     = fs.Float64("nik", 1, "average lookup keys per record (Nik)")
		sik     = fs.Float64("sik", 20, "average key size in bytes (Sik)")
		siv     = fs.Float64("siv", 1024, "average result size per key in bytes (Siv)")
		tj      = fs.Duration("tj", 800*time.Microsecond, "index serve time per lookup (Tj; the fully-built store's Tj when -build-total > 0)")
		theta   = fs.Float64("theta", 2, "average duplicates per distinct key (Θ)")
		r       = fs.Float64("r", 0.8, "lookup cache miss ratio (R), in [0, 1]")
		spre    = fs.Float64("spre", 120, "carrier size after preProcess in bytes (Spre)")
		spost   = fs.Float64("spost", 150, "output size after postProcess in bytes (Spost)")
		pos     = fs.String("pos", "body", "operator position: head, body, or tail")
		part    = fs.Bool("partitioned", true, "index exposes a partition scheme (enables index locality)")
		bw      = fs.Float64("bw", 125e6, "network bandwidth, bytes/s (BW), positive")
		fCost   = fs.Float64("f", 2.5e-8, "DFS store+retrieve cost, s/byte (f)")
		startup = fs.Float64("startup", 0.005, "task startup, s (drives the extra-job overhead)")

		buildTotal   = fs.Int("build-total", 0, "buildable index: total build units (input splits); 0 = not buildable")
		buildCovered = fs.Int("build-covered", 0, "buildable index: splits already committed in the registry")
		buildScan    = fs.Duration("build-scan", 50*time.Microsecond, "buildable index: scan-fallback serve penalty per uncovered split")
		buildCharge  = fs.Duration("build-charge", 20*time.Microsecond, "buildable index: piggyback build charge per scanned record")
		buildOffer   = fs.Float64("build-offer", 0.25, "buildable index: fraction of total splits offered to build per run")
		buildHorizon = fs.Float64("build-horizon", 0, "build amortization horizon in future runs (0 = default 4, negative disables the build strategy)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "efind-plan: "+format+"\n", a...)
		return 1
	}
	render := func(lines []string, err error) int {
		if err != nil {
			return fail("%v", err)
		}
		for _, line := range lines {
			fmt.Fprintln(stdout, line)
		}
		return 0
	}

	if *profile != "" {
		p, err := obs.ReadProfile(*profile)
		if err != nil {
			return fail("%v", err)
		}
		return render(core.RenderProfile(p), nil)
	}
	if *walDir != "" {
		return render(jobsvc.DescribeJournal(*walDir))
	}

	// The formulas divide by BW and multiply everything else: outside
	// these ranges they print infinities and negative costs.
	if !(*bw > 0) {
		return fail("-bw must be positive, got %g", *bw)
	}
	for _, v := range []struct {
		name  string
		value float64
	}{
		{"n1", *n1}, {"nik", *nik}, {"sik", *sik}, {"siv", *siv}, {"spre", *spre}, {"spost", *spost},
		{"f", *fCost}, {"startup", *startup}, {"tj", tj.Seconds()},
	} {
		if !(v.value >= 0) {
			return fail("-%s must not be negative, got %g", v.name, v.value)
		}
	}
	if !(*r >= 0 && *r <= 1) {
		return fail("-r must be in [0, 1], got %g", *r)
	}
	position, ok := map[string]core.OpPosition{"head": core.HeadOp, "body": core.BodyOp, "tail": core.TailOp}[*pos]
	if !ok {
		return fail("unknown position %q (head|body|tail)", *pos)
	}

	env := core.Env{
		BW:          *bw,
		F:           *fCost,
		Tcache:      1e-6,
		Nodes:       96,
		JobOverhead: 4 * *startup,
		LaneFactor:  2,
	}
	st := &core.OperatorStats{
		N1: *n1, Records: int64(*n1 * 96),
		S1: *spre, Spre: *spre, Sidx: *spre + *nik*(*sik+*siv), Spost: *spost, Smap: *spost,
	}
	facts := core.IndexFacts{
		Stats: core.IndexStats{
			Nik: *nik, Sik: *sik, Siv: *siv,
			Tj: tj.Seconds(), Theta: *theta, R: *r,
		},
		Partitioned: *part,
	}
	if *buildTotal > 0 {
		if *buildCovered < 0 || *buildCovered > *buildTotal {
			return fail("-build-covered must be in [0, %d]", *buildTotal)
		}
		// Pricing blends the serve time for the coverage and caps the
		// offer to what is left, exactly as it does for the planner.
		facts.Buildable = true
		facts.Covered, facts.Total = *buildCovered, *buildTotal
		facts.Offer = int(*buildOffer*float64(*buildTotal) + 0.999999)
		facts.ScanTime, facts.BuildTime = buildScan.Seconds(), buildCharge.Seconds()
		facts.TjIdx = tj.Seconds()
	}
	opts := core.DefaultPlannerOptions()
	opts.BuildHorizon = *buildHorizon
	list, chosen, _ := core.WhatIf(position, st, facts, env, opts)

	if *explain {
		fmt.Fprintln(stdout, "EFind cost model (per-lane virtual seconds, formulas (1)-(4) of the paper + adaptive build)")
		fmt.Fprintf(stdout, "  inputs: N1=%.0f Nik=%.2f Sik=%.0fB Siv=%.0fB Tj=%v Θ=%.2f R=%.2f Spre=%.0fB position=%s\n",
			*n1, *nik, *sik, *siv, *tj, *theta, *r, *spre, position)
		if facts.Buildable {
			fmt.Fprintf(stdout, "  buildable: %d/%d splits covered, scan=%v/split, charge=%v/record, offer rate %.2f\n",
				facts.Covered, facts.Total, *buildScan, *buildCharge, *buildOffer)
		}
		fmt.Fprintln(stdout)

		for _, line := range core.ExplainCosts(list, facts) {
			fmt.Fprintln(stdout, "  "+line)
		}
		if facts.Buildable {
			for _, line := range core.ExplainBuild(list, st, facts, env) {
				fmt.Fprintln(stdout, "  "+line)
			}
			if position != core.HeadOp {
				fmt.Fprintln(stdout, "  build      (only head operators can build: the piggyback stage rides the map scan)")
			}
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintf(stdout, "chosen plan: ix[%s]   (modeled cost %.4f s)\n", chosen, chosen.Cost())
	return 0
}
