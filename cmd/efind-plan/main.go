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
	"efind/internal/index"
	"efind/internal/jobsvc"
	"efind/internal/obs"
	"efind/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	flag := flag.NewFlagSet("efind-plan", flag.ContinueOnError)
	flag.SetOutput(stderr)
	var (
		profile = flag.String("profile", "", "render this BENCH profile JSON instead of running the what-if model")
		walDir  = flag.String("wal", "", "render this job-service journal directory instead of running the what-if model")
		explain = flag.Bool("explain", true, "print the per-strategy cost breakdown (false: chosen plan only)")
		n1      = flag.Float64("n1", 50000, "records per parallel lookup lane (Table 1's N1)")
		nik     = flag.Float64("nik", 1, "average lookup keys per record (Nik)")
		sik     = flag.Float64("sik", 20, "average key size in bytes (Sik)")
		siv     = flag.Float64("siv", 1024, "average result size per key in bytes (Siv)")
		tj      = flag.Duration("tj", 800*time.Microsecond, "index serve time per lookup (Tj; the fully-built store's Tj when -build-total > 0)")
		theta   = flag.Float64("theta", 2, "average duplicates per distinct key (Θ)")
		r       = flag.Float64("r", 0.8, "lookup cache miss ratio (R)")
		spre    = flag.Float64("spre", 120, "carrier size after preProcess in bytes (Spre)")
		spost   = flag.Float64("spost", 150, "output size after postProcess in bytes (Spost)")
		pos     = flag.String("pos", "body", "operator position: head, body, or tail")
		part    = flag.Bool("partitioned", true, "index exposes a partition scheme (enables index locality)")
		bw      = flag.Float64("bw", 125e6, "network bandwidth, bytes/s (BW)")
		fCost   = flag.Float64("f", 2.5e-8, "DFS store+retrieve cost, s/byte (f)")
		startup = flag.Float64("startup", 0.005, "task startup, s (drives the extra-job overhead)")

		buildTotal   = flag.Int("build-total", 0, "buildable index: total build units (input splits); 0 = not buildable")
		buildCovered = flag.Int("build-covered", 0, "buildable index: splits already committed in the registry")
		buildScan    = flag.Duration("build-scan", 50*time.Microsecond, "buildable index: scan-fallback serve penalty per uncovered split")
		buildCharge  = flag.Duration("build-charge", 20*time.Microsecond, "buildable index: piggyback build charge per scanned record")
		buildOffer   = flag.Float64("build-offer", 0.25, "buildable index: fraction of total splits offered to build per run")
		buildHorizon = flag.Float64("build-horizon", 0, "build amortization horizon in future runs (0 = default 4, negative disables the build strategy)")
	)
	if err := flag.Parse(args); err != nil {
		return 2
	}

	if *profile != "" {
		p, err := obs.ReadProfile(*profile)
		if err != nil {
			fmt.Fprintf(stderr, "efind-plan: %v\n", err)
			return 1
		}
		for _, line := range core.RenderProfile(p) {
			fmt.Fprintln(stdout, line)
		}
		return 0
	}

	if *walDir != "" {
		lines, err := jobsvc.DescribeJournal(*walDir)
		if err != nil {
			fmt.Fprintf(stderr, "efind-plan: %v\n", err)
			return 1
		}
		for _, line := range lines {
			fmt.Fprintln(stdout, line)
		}
		return 0
	}

	env := core.Env{
		BW:          *bw,
		F:           *fCost,
		Tcache:      1e-6,
		Nodes:       96,
		JobOverhead: 4 * *startup,
		LaneFactor:  2,
	}
	is := core.IndexStats{
		Nik: *nik, Sik: *sik, Siv: *siv,
		Tj: tj.Seconds(), Theta: *theta, R: *r,
	}
	st := &core.OperatorStats{
		N1: *n1, Records: int64(*n1 * 96),
		S1: *spre, Spre: *spre, Sidx: *spre + *nik*(*sik+*siv), Spost: *spost, Smap: *spost,
		Index: map[string]core.IndexStats{"ix": is},
	}

	position := core.BodyOp
	switch *pos {
	case "head":
		position = core.HeadOp
	case "tail":
		position = core.TailOp
	case "body":
	default:
		fmt.Fprintf(stderr, "efind-plan: unknown position %q (head|body|tail)\n", *pos)
		return 1
	}

	var model core.BuildModel
	buildable := *buildTotal > 0
	if buildable {
		if *buildCovered < 0 || *buildCovered > *buildTotal {
			fmt.Fprintf(stderr, "efind-plan: -build-covered must be in [0, %d]\n", *buildTotal)
			return 1
		}
		offer := int(*buildOffer*float64(*buildTotal) + 0.999999)
		if remainder := *buildTotal - *buildCovered; offer > remainder {
			offer = remainder
		}
		if offer < 0 {
			offer = 0
		}
		model = core.BuildModel{
			Covered:   *buildCovered,
			Total:     *buildTotal,
			ScanTime:  buildScan.Seconds(),
			BuildTime: buildCharge.Seconds(),
			Offer:     offer,
			TjIdx:     tj.Seconds(),
		}
		// Every strategy is priced at the blended serve time of the
		// current coverage, exactly as the planner's effective stats do.
		is.Tj = model.TjAt(model.Covered)
		st.Index["ix"] = is
	}

	op := core.NewOperator("what-if", nil, nil)
	var accessor index.Accessor
	switch {
	case buildable && *part:
		accessor = partitionedBuildableIdx{&buildableIdx{model: model}}
	case buildable:
		accessor = &buildableIdx{model: model}
	case *part:
		accessor = partitionedIdx{}
	default:
		accessor = plainIdx{}
	}
	op.AddIndex(accessor)

	opts := core.DefaultPlannerOptions()
	opts.BuildHorizon = *buildHorizon

	if *explain {
		fmt.Fprintln(stdout, "EFind cost model (per-lane virtual seconds, formulas (1)-(4) of the paper + adaptive build)")
		fmt.Fprintf(stdout, "  inputs: N1=%.0f Nik=%.2f Sik=%.0fB Siv=%.0fB Tj=%v Θ=%.2f R=%.2f Spre=%.0fB position=%s\n",
			*n1, *nik, *sik, *siv, *tj, *theta, *r, *spre, position)
		if buildable {
			fmt.Fprintf(stdout, "  buildable: %d/%d splits covered, scan=%v/split, charge=%v/record, offer rate %.2f\n",
				model.Covered, model.Total, *buildScan, *buildCharge, *buildOffer)
		}
		fmt.Fprintln(stdout)

		for _, line := range core.ExplainCosts(st, is, env, position) {
			fmt.Fprintln(stdout, "  "+line)
		}
		if buildable {
			horizon := *buildHorizon
			switch {
			case horizon == 0:
				horizon = core.DefaultBuildHorizon
			case horizon < 0:
				horizon = 0
			}
			altOpts := opts
			altOpts.BuildHorizon = -1
			alt := core.OptimizeOperator(op, position, st, env, altOpts).Cost
			for _, line := range core.ExplainBuild(st, is, env, model, horizon, alt) {
				fmt.Fprintln(stdout, "  "+line)
			}
			if position != core.HeadOp {
				fmt.Fprintln(stdout, "  build      (only head operators can build: the piggyback stage rides the map scan)")
			}
		}
		fmt.Fprintln(stdout)
	}

	plan := core.OptimizeOperator(op, position, st, env, opts)
	fmt.Fprintf(stdout, "chosen plan: %s   (modeled cost %.4f s)\n", plan.String(), plan.Cost)
	return 0
}

// plainIdx and partitionedIdx are stat-only stand-ins; the optimizer only
// inspects their interfaces, never calls Lookup.
type plainIdx struct{}

func (plainIdx) Name() string                    { return "ix" }
func (plainIdx) Lookup(string) ([]string, error) { return nil, nil }
func (plainIdx) ServeTime() float64              { return 0 }
func (plainIdx) HostsFor(string) []sim.NodeID    { return nil }

type partitionedIdx struct{ plainIdx }

func (partitionedIdx) Scheme() *index.Scheme { return whatIfScheme() }

func whatIfScheme() *index.Scheme {
	hosts := make([][]sim.NodeID, 32)
	for i := range hosts {
		hosts[i] = []sim.NodeID{sim.NodeID(i % 12)}
	}
	return &index.Scheme{Partitions: 32, Fn: func(string) int { return 0 }, Hosts: hosts}
}

// buildableIdx is the stat-only stand-in for a partially built adaptix
// index: it reports the flag-configured registry coverage and build
// geometry so the planner derives the same BuildModel the explain
// section renders. The mutating half of the protocol is inert — the
// what-if tool never runs a job.
type buildableIdx struct{ model core.BuildModel }

func (b *buildableIdx) Name() string                    { return "ix" }
func (b *buildableIdx) Lookup(string) ([]string, error) { return nil, nil }
func (b *buildableIdx) HostsFor(string) []sim.NodeID    { return nil }

// ServeTime is the blended serve time at the configured coverage;
// the planner recovers TjIdx from it by subtracting the scan term.
func (b *buildableIdx) ServeTime() float64 { return b.model.TjAt(b.model.Covered) }

func (b *buildableIdx) BuildProgress() (int, int) { return b.model.Covered, b.model.Total }
func (b *buildableIdx) IsBuilt(split int) bool    { return split < b.model.Covered }
func (b *buildableIdx) ScanServeTime() float64    { return b.model.ScanTime }
func (b *buildableIdx) BuildCharge() float64      { return b.model.BuildTime }

func (b *buildableIdx) OfferSplits() []int {
	splits := make([]int, 0, b.model.Offer)
	for s := b.model.Covered; s < b.model.Covered+b.model.Offer && s < b.model.Total; s++ {
		splits = append(splits, s)
	}
	return splits
}

func (b *buildableIdx) Extract(string, string) []index.BuildEntry { return nil }
func (b *buildableIdx) Stage(sim.NodeID, int, []index.BuildEntry) {}
func (b *buildableIdx) SnapshotBuild(sim.NodeID) func()           { return func() {} }
func (b *buildableIdx) ResetBuild(sim.NodeID)                     {}
func (b *buildableIdx) Commit() int                               { return 0 }
func (b *buildableIdx) Abandon()                                  {}

type partitionedBuildableIdx struct{ *buildableIdx }

func (partitionedBuildableIdx) Scheme() *index.Scheme { return whatIfScheme() }
