package experiments

import (
	"fmt"

	"efind/internal/core"
	"efind/internal/sketch"
)

// AblationCacheCapacity sweeps the lookup-cache capacity (the paper fixes
// 1024 entries and leaves the sweep to future work): the synthetic join,
// whose uniform-random keys make the miss ratio a direct function of
// capacity vs key-domain size.
func AblationCacheCapacity(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: lookup-cache capacity (synthetic join, cache strategy)",
		Columns: []string{"runtime", "missRatio"},
	}
	for _, capacity := range []int{64, 256, 1024, 4096, 16384} {
		vt, miss, err := runSynWithCache(scale, capacity)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("cap=%d", capacity), vt, miss)
	}
	prev := 1.1
	for _, r := range t.Rows {
		miss := t.at(r.Label, "missRatio")
		t.claim(miss <= prev+1e-9, "%s: miss ratio %g rose with capacity (prev %g)", r.Label, miss, prev)
		prev = miss
	}
	return t, t.err
}

func runSynWithCache(scale Scale, capacity int) (float64, float64, error) {
	l := newLab()
	input, store, err := l.genSyn(scale, 1024)
	if err != nil {
		return 0, 0, err
	}
	conf := buildSynConf(fmt.Sprintf("syn-cap%d", capacity), input, store, core.ModeCache)
	conf.CacheCapacity = capacity
	res, err := l.rt.Submit(conf)
	if err != nil {
		return 0, 0, err
	}
	probes := res.Counters["efind.syn.ix."+store.Name()+".cache.probes"]
	misses := res.Counters["efind.syn.ix."+store.Name()+".cache.misses"]
	miss := 1.0
	if probes > 0 {
		miss = float64(misses) / float64(probes)
	}
	return res.VTime, miss, nil
}

// AblationVarianceThreshold sweeps Algorithm 1's variance gate on the LOG
// application: tight thresholds refuse to replan, loose ones replan from
// shaky statistics.
func AblationVarianceThreshold(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: variance threshold for re-optimization (LOG, dynamic)",
		Columns: []string{"runtime", "replanned"},
	}
	for _, th := range []float64{0.001, 0.05, 0.2, 1.0} {
		err := addLogDynamicRow(t, scale, fmt.Sprintf("threshold=%g", th), fmt.Sprintf("log-th%g", th),
			func(conf *core.IndexJobConf) { conf.VarianceThreshold = th })
		if err != nil {
			return nil, err
		}
	}
	// The tightest threshold must block replanning; a sane one must not.
	first := t.Rows[0].Label
	t.claim(t.at(first, "replanned") == 0, "%s should block replanning", first)
	replannedSomewhere := false
	for _, r := range t.Rows[1:] {
		replannedSomewhere = replannedSomewhere || t.at(r.Label, "replanned") == 1
	}
	t.claim(replannedSomewhere, "no threshold allowed a replan")
	return t, t.err
}

// AblationReplanDisabled compares the dynamic runtime with replanning
// allowed (the paper's at-most-once) against the same runtime with the
// plan change disabled — isolating the value of the mid-job switch.
func AblationReplanDisabled(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: plan change at most once vs disabled (LOG, dynamic, +2ms)",
		Columns: []string{"runtime", "replanned"},
	}
	if err := addLogDynamicRow(t, scale, "replan=once", "log-replan", func(*core.IndexJobConf) {}); err != nil {
		return nil, err
	}
	never := func(conf *core.IndexJobConf) { conf.MaxPlanChanges = -1 }
	if err := addLogDynamicRow(t, scale, "replan=never", "log-replan", never); err != nil {
		return nil, err
	}
	once, off := t.at("replan=once", "runtime"), t.at("replan=never", "runtime")
	t.claim(once < off, "replanning should pay off: %g with vs %g without", once, off)
	return t, t.err
}

// addLogDynamicRow runs the LOG application's index job at +2 ms under the
// dynamic runtime in a fresh lab, tune having edited the job, and adds the
// row: runtime, and 1 when the job replanned.
func addLogDynamicRow(t *Table, scale Scale, label, name string, tune func(*core.IndexJobConf)) error {
	l := newLab()
	input, geo, err := setupLog(l, scale, 2)
	if err != nil {
		return err
	}
	conf := logJobConf(name, input, geo, core.ModeDynamic)
	tune(conf)
	res, err := l.rt.Submit(conf)
	if err != nil {
		return err
	}
	replanned := 0.0
	if res.Replanned {
		replanned = 1
	}
	t.Add(label, res.VTime, replanned)
	return nil
}

// AblationPlanner compares FullEnumerate with k-Repart on synthetic
// operator statistics over m independent indices: the plan cost each
// achieves (§3.5's tradeoff; what planning costs in wall time is bench/'s
// core.plan_us_per_operator).
func AblationPlanner(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: FullEnumerate vs k-Repart (m=6 indices, modeled cost)",
		Columns: []string{"planCost"},
	}
	env := core.Env{BW: 125e6, F: 2.5e-8, Tcache: 1e-6, Nodes: 12}
	op := core.NewOperator("m6", nil, nil)
	st := &core.OperatorStats{
		N1: 1e5, Records: 12e5, S1: 120, Spre: 80, Sidx: 400, Spost: 150, Smap: 150,
		Index: map[string]core.IndexStats{},
	}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("ix%d", i)
		op.AddIndex(fakeIdx{name: name})
		st.Index[name] = core.IndexStats{
			Nik: 1, Sik: 16, Siv: float64(50 * (i + 1)),
			Tj: 0.0002 * float64(i+1), Theta: float64(1 + i*i), R: 0.9,
		}
	}
	cases := []struct {
		label string
		opts  core.PlannerOptions
	}{
		{"full-enumerate", core.PlannerOptions{FullEnumerateLimit: 6, KRepart: 2}},
		{"1-repart", core.PlannerOptions{FullEnumerateLimit: 1, KRepart: 1}},
		{"2-repart", core.PlannerOptions{FullEnumerateLimit: 1, KRepart: 2}},
	}
	for _, cse := range cases {
		p := core.OptimizeOperator(op, core.BodyOp, st, env, cse.opts)
		t.Add(cse.label, p.Cost)
		t.Note("%s picked: %v", cse.label, p)
	}
	full, k1, k2 := t.at("full-enumerate", "planCost"), t.at("1-repart", "planCost"), t.at("2-repart", "planCost")
	t.claim(full <= k1 && full <= k2, "FullEnumerate (%g) must find the cheapest plan (1-repart %g, 2-repart %g)", full, k1, k2)
	t.claim(k2 <= k1, "2-Repart (%g) should be at least as good as 1-Repart (%g)", k2, k1)
	return t, t.err
}

// AblationFMAccuracy measures the Flajolet–Martin Θ-estimation error
// against exact distinct counts across cardinalities.
func AblationFMAccuracy(Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: FM sketch distinct-count estimate vs exact",
		Columns: []string{"exact", "estimated", "ratio"},
	}
	for _, n := range []int{100, 1000, 10000, 100000} {
		fm := sketch.New(64)
		for i := 0; i < n; i++ {
			fm.Add(fmt.Sprintf("key-%d", i))
		}
		est := fm.Estimate()
		t.Add(fmt.Sprintf("n=%d", n), float64(n), est, est/float64(n))
	}
	for _, r := range t.Rows {
		ratio := t.at(r.Label, "ratio")
		t.claim(ratio >= 0.5 && ratio <= 2, "%s: FM estimate off by more than 2x (ratio %g)", r.Label, ratio)
	}
	return t, t.err
}

// AblationBoundary forces each re-partitioning boundary on TPC-H Q3's
// Orders index (the S_min choice of §3.3).
func AblationBoundary(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: re-partitioning job boundary (TPC-H Q3, Orders index)",
		Columns: []string{"runtime"},
	}
	for _, b := range []core.Boundary{core.BoundaryPre, core.BoundaryIdx, core.BoundaryLate} {
		vt, err := runQ3Boundary(scale, b)
		if err != nil {
			return nil, err
		}
		t.Add("boundary="+b.String(), vt)
	}
	t.claim(len(t.Rows) == 3, "%d rows, want one per boundary (3)", len(t.Rows))
	return t, t.err
}

func runQ3Boundary(scale Scale, b core.Boundary) (float64, error) {
	l := newLab()
	w, err := setupTPCH(l, scale, 1)
	if err != nil {
		return 0, err
	}
	conf := w.Q3Conf("q3-boundary-"+b.String(), core.ModeCustom)
	op, ix := w.Q3RepartTarget()
	conf.ForceStrategy(op, ix, core.Repartition)
	conf.ForceBoundary(op, ix, b)
	res, err := l.rt.Submit(conf)
	if err != nil {
		return 0, err
	}
	return res.VTime, nil
}
