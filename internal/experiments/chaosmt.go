package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"efind/internal/chaos"
	"efind/internal/ixclient"
	"efind/internal/jobsvc"
	"efind/internal/obs"
	"efind/internal/sim"
	"efind/internal/vfs"
	"efind/internal/wal"
)

// cmTenants configures the tenants: alternating fair-share weights and
// an in-flight cap small enough that the arrival burst builds real
// admission queues on every tenant.
func cmTenants(scale Scale) []jobsvc.TenantConfig {
	tcs := make([]jobsvc.TenantConfig, scale.ChaosMTTenants)
	for i := range tcs {
		tcs[i] = jobsvc.TenantConfig{
			Name:        fmt.Sprintf("t%02d", i),
			Weight:      1 + i%2,
			MaxInFlight: 4,
			QueueCap:    2 * scale.ChaosMTJobs,
		}
	}
	return tcs
}

// cmChaosConfig sizes the combined fault schedule from the clean run's
// makespan: three node crashes (two recover, one stays dead), seeded
// stragglers raced by capped speculative backups, and a cross-tenant
// index outage window that hits whichever jobs' lookups overlap it.
func cmChaosConfig(span float64) chaos.Config {
	return chaos.Config{
		Seed: faultSeed,
		Crashes: []chaos.Crash{
			{Node: 2, At: 0.15 * span, Recover: 0.55 * span},
			{Node: 5, At: 0.35 * span, Recover: 0.75 * span},
			{Node: 7, At: 0.60 * span, Recover: 1e6},
		},
		Spec:            chaos.Speculation{Enabled: true, MaxPerPhase: 64},
		StragglerRate:   0.05,
		StragglerFactor: 6,
	}
}

// cmRun executes the trace through the job service in a fresh world — a
// cluster far beyond the paper's 12 nodes (10k at full scale), input and
// store —, so the recovery contract "rebuild the same world, Recover
// replays the decisions" is exercised as documented, and with a private
// trace, whose chaos counters are the leg's alone. Every tenant submits ChaosMTJobs ModeCache synthetic joins in a
// staggered burst, so the service holds many concurrent jobs while later
// arrivals queue. wave2At > 0 delays the second half of each tenant's
// jobs to that arrival time: the service drains the first wave, passes a
// quiescent point — where the durable legs fold decided state into a
// checkpoint — and then absorbs the second burst. cfg, when non-nil,
// becomes the service-wide chaos plan (windows are absolute on the
// service clock, so faults race across tenants); durable, when non-nil,
// journals the run, or with recovered set holds the crash image the
// service starts from.
func cmRun(scale Scale, label string, cfg *chaos.Config, durable *jobsvc.Durability, wave2At float64, recovered bool) (*lab, error) {
	if scale.ChaosMTRecords > 0 {
		scale.SynRecords = scale.ChaosMTRecords
		scale.SynKeyDomain = scale.ChaosMTRecords / 2
	}
	shape := func(c *sim.Config) { c.Nodes = scale.ChaosMTNodes }
	return runLeg(leg{trace: obs.NewProfileTrace(), section: "chaos-mt/" + label, shape: shape}, func(l *lab) (strategyJob, error) {
		input, store, err := l.genSyn(scale, 1024)
		if err != nil {
			return strategyJob{}, err
		}
		job := strategyJob{
			tenants:   cmTenants(scale),
			opts:      jobsvc.Options{SharedCache: ixclient.NewPool(0), Durable: durable},
			recovered: recovered,
		}
		if cfg != nil {
			job.opts.Chaos = chaos.MustNew(*cfg, scale.ChaosMTNodes)
		}
		at := func(i int) float64 {
			t := 0.02 * float64(i)
			if wave2At > 0 && i >= (scale.ChaosMTJobs+1)/2 {
				t += wave2At
			}
			return t
		}
		job.subs = synSubs("cm", job.tenants, scale.ChaosMTJobs, at, true, input, store)
		return job, nil
	})
}

// outputDigests fingerprints each job's output, in submission order, so
// cross-leg identity checks hold digests instead of the record sets
// themselves (full scale runs hundreds of jobs).
func (r *lab) outputDigests() ([]uint64, error) {
	digests := make([]uint64, len(r.statuses))
	for i, st := range r.statuses {
		fp, err := st.Result.Output.Fingerprint()
		if err != nil {
			return nil, err
		}
		digests[i] = fp
	}
	return digests, nil
}

// cmCompareStatuses enforces the recovery identity: every scheduling
// outcome of the recovered run — state, identity, admission and finish
// times, charged serve time, output fingerprint — must byte-match the
// uninterrupted reference run's.
func cmCompareStatuses(ref, got []jobsvc.JobStatus) error {
	if len(ref) != len(got) {
		return fmt.Errorf("chaos-mt: recovered run returned %d statuses, reference %d", len(got), len(ref))
	}
	for i := range ref {
		r, g := ref[i], got[i]
		switch {
		case r.State != g.State, r.ID != g.ID, r.Tenant != g.Tenant, r.Name != g.Name:
			return fmt.Errorf("chaos-mt: job %d identity diverged: %s/%s %s (%s) vs %s/%s %s (%s)",
				i, g.Tenant, g.Name, g.State, g.ID, r.Tenant, r.Name, r.State, r.ID)
		case r.Submitted != g.Submitted, r.Admitted != g.Admitted, r.Finished != g.Finished:
			return fmt.Errorf("chaos-mt: job %d (%s) times diverged: sub %v/%v adm %v/%v fin %v/%v",
				i, r.ID, g.Submitted, r.Submitted, g.Admitted, r.Admitted, g.Finished, r.Finished)
		case r.ServeSeconds != g.ServeSeconds:
			return fmt.Errorf("chaos-mt: job %d (%s) serve charge diverged: %v vs %v", i, r.ID, g.ServeSeconds, r.ServeSeconds)
		case r.OutputFP != g.OutputFP:
			return fmt.Errorf("chaos-mt: job %d (%s) output fingerprint diverged: %#x vs %#x", i, r.ID, g.OutputFP, r.OutputFP)
		}
	}
	return nil
}

// ChaosMultiTenant is the cross-job chaos experiment: many concurrent
// ModeCache synthetic joins from several tenants share one large cluster
// (10k nodes at full scale) while node crashes, seeded stragglers with
// speculative backups, and a cross-tenant index outage race across their
// phases. Five legs:
//
//   - clean: the fault-free reference; its per-job output digests are
//     the identity baseline and its makespan sizes the fault windows.
//   - crash+spec: crashes and speculation only — every job's output must
//     be identical to the clean run's (fault tolerance never changes the
//     answer), and both crash and speculation events must actually fire.
//   - +outage: the full schedule with the index outage window — jobs
//     complete degraded (IndexErrors > 0), every tenant's makespan > 0.
//   - durable: the full schedule journaled through the write-ahead log;
//     virtual-time behaviour must be unchanged by durability.
//   - recovered: a crash image is cut from the durable journal (torn
//     tail included), a fresh world Recovers from it and re-runs; every
//     status must byte-match the uninterrupted durable run.
func ChaosMultiTenant(scale Scale, _ *obs.Trace) (*Table, error) {
	if scale.ChaosMTNodes <= 8 || scale.ChaosMTTenants <= 0 || scale.ChaosMTJobs <= 0 {
		return nil, fmt.Errorf("chaos-mt: scale not configured (nodes %d, tenants %d, jobs %d)",
			scale.ChaosMTNodes, scale.ChaosMTTenants, scale.ChaosMTJobs)
	}
	totalJobs := scale.ChaosMTTenants * scale.ChaosMTJobs
	tenants := cmTenants(scale)
	cols := []string{"jobs", "makespan"}
	for _, tn := range tenants {
		cols = append(cols, tn.Name+"_span")
	}
	t := &Table{
		Title: fmt.Sprintf("Cross-job chaos: %d tenants x %d jobs on %d nodes — crashes, speculation, outages, coordinator recovery",
			scale.ChaosMTTenants, scale.ChaosMTJobs, scale.ChaosMTNodes),
		Columns: append(cols, "lookups", "hit_ratio", "ixerrs", "crashes", "spec"),
	}
	addRow := func(label string, r *lab) {
		cells := []float64{float64(totalJobs), r.span("")}
		for _, tn := range tenants {
			cells = append(cells, r.span(tn.Name))
		}
		t.Add(label, append(cells, float64(r.lookups()), r.pool.HitRatio(), float64(r.indexErrors()),
			float64(r.engine.Trace.Metrics.Counter(chaos.CtrNodeCrashes)),
			float64(r.counterSum(chaos.CtrSpecLaunched)))...)
	}

	clean, err := cmRun(scale, "clean", nil, nil, 0, false)
	if err != nil {
		return nil, err
	}
	addRow("clean", clean)
	cleanDigests, err := clean.outputDigests()
	if err != nil {
		return nil, err
	}
	span := clean.span("")
	// The second wave arrives well after chaos (~2x slower than clean)
	// can have drained the first, so every leg below passes a quiescent
	// point mid-trace — where the durable legs write a checkpoint.
	waveGap := 4 * span

	// Crashes and speculation only: the answer must not change.
	crashCfg := cmChaosConfig(span)
	crashed, err := cmRun(scale, "crash+spec", &crashCfg, nil, waveGap, false)
	if err != nil {
		return nil, err
	}
	addRow("crash+spec", crashed)
	crashedDigests, err := crashed.outputDigests()
	if err != nil {
		return nil, err
	}
	for i, d := range crashedDigests {
		if d != cleanDigests[i] {
			return nil, fmt.Errorf("chaos-mt: job %d (%s/%s) output diverged from the fault-free run under crash+spec",
				i, crashed.statuses[i].Tenant, crashed.statuses[i].Name)
		}
	}

	// The full schedule adds a cross-tenant index outage window early in
	// the trace: in-window lookups burn the retry ladder and are counted
	// per index; jobs complete degraded.
	comboCfg := cmChaosConfig(span)
	comboCfg.Outages = []chaos.Outage{{Index: synIndexName, Partition: -1, From: 0.1 * span, Until: 0.3 * span}}
	combo, err := cmRun(scale, "combo", &comboCfg, nil, waveGap, false)
	if err != nil {
		return nil, err
	}
	addRow("+outage", combo)

	// Durable leg: same full schedule, journaled. Journal appends cost no
	// virtual time, so the trace's virtual behaviour must be unchanged.
	dir, err := os.MkdirTemp("", "efind-chaosmt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	refDir, crashDir := filepath.Join(dir, "ref"), filepath.Join(dir, "crash")
	// Checkpoint roughly twice: at the inter-wave quiescent point (half
	// the jobs newly decided comfortably clears a quarter-trace threshold)
	// and at the final drain. At cluster scale every checkpoint serializes
	// the whole shared cache pool, so checkpointing after every decided
	// job would dominate the experiment's wall clock.
	every := max(scale.ChaosMTTenants*scale.ChaosMTJobs/4, 1)
	ref, err := cmRun(scale, "durable", &comboCfg, &jobsvc.Durability{Dir: refDir, CheckpointEvery: every}, waveGap, false)
	if err != nil {
		return nil, err
	}
	addRow("durable", ref)

	// Coordinator crash: cut a byte-accurate crash image midway between
	// the inter-wave checkpoint and the journal's end — so recovery both
	// restores decided first-wave jobs from the checkpoint AND replays a
	// journal tail — with a torn frame appended, then Recover in a
	// rebuilt world and run the same trace to completion.
	lines, err := jobsvc.DescribeJournal(refDir)
	if err != nil {
		return nil, err
	}
	firstCkpt := -1
	for i, line := range lines {
		if strings.Contains(line, "ckpt    file=") {
			firstCkpt = i
			break
		}
	}
	if firstCkpt < 0 {
		return nil, fmt.Errorf("chaos-mt: durable run wrote no checkpoint; the inter-wave quiescent point never folded the first wave")
	}
	keep := firstCkpt + 1 + (ref.journal-firstCkpt-1)/2
	if err := wal.CrashImage(vfs.OS{}, refDir, crashDir, keep, []byte{0x1f, 0xaa, 0x03}); err != nil {
		return nil, err
	}
	recovered, err := cmRun(scale, "recovered", &comboCfg, &jobsvc.Durability{Dir: crashDir, CheckpointEvery: every}, waveGap, true)
	if err != nil {
		return nil, err
	}
	rep := recovered.recovery
	if !rep.TornTail {
		return nil, fmt.Errorf("chaos-mt: crash image carried a torn frame the recovery did not see")
	}
	if rep.Checkpoint == "" || rep.DecidedJobs == 0 {
		return nil, fmt.Errorf("chaos-mt: no checkpoint before the coordinator crash (checkpoint %q, %d decided); the first wave should have been folded at the inter-wave quiescent point",
			rep.Checkpoint, rep.DecidedJobs)
	}
	if len(rep.Divergences) != 0 {
		return nil, fmt.Errorf("chaos-mt: recovery diverged from the journal: %v", rep.Divergences)
	}
	if err := cmCompareStatuses(ref.statuses, recovered.statuses); err != nil {
		return nil, err
	}
	addRow("recovered", recovered)

	t.claim(len(t.Rows) == 5, "%d rows, want one per leg (5)", len(t.Rows))
	t.claim(t.at("crash+spec", "crashes") > 0, "no crash event fired; the crash+spec row is vacuous")
	t.claim(t.at("crash+spec", "spec") > 0, "no speculative backup launched; the crash+spec row is vacuous")
	t.claim(t.at("+outage", "ixerrs") > 0, "outage window hit no lookups; the cross-tenant outage row is vacuous")
	for _, c := range t.Columns[1 : 2+len(tenants)] {
		t.claim(t.at("+outage", c) > 0, "+outage %s is %g, want > 0", c, t.at("+outage", c))
	}
	// Journal appends cost no virtual time.
	durable, outage := t.at("durable", "makespan"), t.at("+outage", "makespan")
	t.claim(durable == outage, "journaling changed the virtual makespan: %v vs %v", durable, outage)

	t.Note("crash+spec outputs identical to the fault-free run for all %d jobs", totalJobs)
	t.Note("recovered coordinator (crash at record %d/%d, torn tail, checkpoint %q, %d decided) matched the uninterrupted run bit for bit",
		keep, ref.journal, rep.Checkpoint, rep.DecidedJobs)
	return t, t.err
}
