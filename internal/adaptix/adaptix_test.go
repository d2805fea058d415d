package adaptix

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"efind/internal/dfs"
	"efind/internal/index"
	"efind/internal/kvstore"
	"efind/internal/sim"
)

func testCluster() *sim.Cluster { return sim.NewCluster(sim.DefaultConfig()) }

// testIndex builds a Buildable over a small synthetic file: records
// "r<i>" with value "k<i%%keys> payload", indexed on the first token —
// the same shape the synthetic workload uses.
func testIndex(t *testing.T, reg *Registry, records, keys int) (*Buildable, *kvstore.Store, *dfs.File) {
	t.Helper()
	cl := testCluster()
	fs := dfs.New(cl)
	fs.ChunkTarget = 256 // force several chunks
	recs := make([]dfs.Record, records)
	for i := range recs {
		recs[i] = dfs.Record{
			Key:   fmt.Sprintf("r%04d", i),
			Value: fmt.Sprintf("k%03d payload", i%keys),
		}
	}
	file, err := fs.Create("src", recs)
	if err != nil {
		t.Fatal(err)
	}
	store := kvstore.NewHash(cl, "bix", 8, 2, 1e-5)
	b, err := New(Config{
		Name:   "bix",
		Source: file,
		Extract: func(key, value string) []index.BuildEntry {
			ik := value[:strings.IndexByte(value, ' ')]
			return []index.BuildEntry{{Key: ik, Value: key}}
		},
		Store:     store,
		Registry:  reg,
		ScanTime:  1e-4,
		BuildTime: 1e-6,
		OfferRate: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, store, file
}

// scanAndStage simulates the piggyback build stage for one split on one
// node: extract every record's entries and stage them.
func scanAndStage(t *testing.T, b *Buildable, f *dfs.File, node sim.NodeID, split int) {
	t.Helper()
	recs, err := f.Chunks[split].Records()
	if err != nil {
		t.Fatal(err)
	}
	var entries []index.BuildEntry
	for _, r := range recs {
		entries = append(entries, b.Extract(r.Key, r.Value)...)
	}
	b.Stage(node, split, entries)
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Register("a", 4)
	if s, tot := r.CoveredSplits("a"); len(s) != 0 || tot != 4 {
		t.Fatalf("CoveredSplits = %v of %d, want none of 4", s, tot)
	}
	if !r.MarkBuilt("a", 1) {
		t.Fatal("MarkBuilt(1) = false on fresh split")
	}
	if r.MarkBuilt("a", 1) {
		t.Fatal("MarkBuilt(1) idempotence violated")
	}
	if r.MarkBuilt("a", 9) || r.MarkBuilt("a", -1) || r.MarkBuilt("zz", 0) {
		t.Fatal("out-of-range or unknown-index MarkBuilt accepted")
	}
	r.Register("a", 4) // idempotent re-register keeps coverage
	if got, _ := r.CoveredSplits("a"); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("CoveredSplits = %v, want [1]", got)
	}
	if s, tot := r.CoveredSplits("a"); len(s) != 1 || tot != 4 {
		t.Fatalf("CoveredSplits = %v of %d, want one of 4", s, tot)
	}
	if s, tot := r.CoveredSplits("missing"); s != nil || tot != 0 {
		t.Fatalf("CoveredSplits(missing) = %v of %d, want nil of 0", s, tot)
	}
}

func TestBuildableLookupExactAtAnyCoverage(t *testing.T) {
	reg := NewRegistry()
	b, _, f := testIndex(t, reg, 60, 7)
	if len(f.Chunks) < 3 {
		t.Fatalf("want several chunks, got %d", len(f.Chunks))
	}

	// Ground truth from a full scan.
	want := map[string][]string{}
	for _, rec := range f.All() {
		ik := strings.Fields(rec.Value)[0]
		want[ik] = append(want[ik], rec.Key)
	}

	check := func(stage string) {
		t.Helper()
		for ik, vals := range want {
			got, err := b.Lookup(ik)
			if err != nil {
				t.Fatalf("%s: Lookup(%s): %v", stage, ik, err)
			}
			g, w := append([]string(nil), got...), append([]string(nil), vals...)
			sort.Strings(g)
			sort.Strings(w)
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: Lookup(%s) = %v, want %v", stage, ik, got, w)
			}
		}
		if got, err := b.Lookup("nope"); err != nil || len(got) != 0 {
			t.Fatalf("%s: Lookup(miss) = %v, %v", stage, got, err)
		}
	}

	check("coverage 0")
	base := b.ServeTime()

	// Build the first offered batch through the stage/commit protocol.
	offered := b.OfferSplits()
	if len(offered) == 0 {
		t.Fatal("no splits offered")
	}
	for _, s := range offered {
		scanAndStage(t, b, f, 0, s)
	}
	if got := b.Commit(); got != len(offered) {
		t.Fatalf("Commit = %d, want %d", got, len(offered))
	}
	check("partial coverage")
	if st := b.ServeTime(); st >= base {
		t.Fatalf("ServeTime did not shrink with coverage: %v -> %v", base, st)
	}
	if b.HostsFor("k001") != nil {
		t.Fatal("HostsFor should be unknown under partial coverage")
	}

	// Offered splits advance past committed coverage.
	next := b.OfferSplits()
	for _, s := range next {
		for _, o := range offered {
			if s == o {
				t.Fatalf("split %d re-offered after commit", s)
			}
		}
	}

	// Finish the build.
	for {
		off := b.OfferSplits()
		if len(off) == 0 {
			break
		}
		for _, s := range off {
			scanAndStage(t, b, f, 1, s)
		}
		b.Commit()
	}
	c, tot := b.BuildProgress()
	if c != tot || tot != len(f.Chunks) {
		t.Fatalf("BuildProgress = %d/%d, want full %d", c, tot, len(f.Chunks))
	}
	check("full coverage")
	if st, want := b.ServeTime(), b.cfg.Store.ServeTime(); st != want {
		t.Fatalf("full-coverage ServeTime = %v, want store's %v", st, want)
	}
	if b.HostsFor("k001") == nil {
		t.Fatal("full coverage should expose store placement")
	}
}

// stagedSplits returns the distinct splits staged on any node, ascending.
func stagedSplits(b *Buildable) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []int
	for _, list := range b.staged {
		for _, st := range list {
			out = append(out, st.split)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func TestStageRollbackAndRefcount(t *testing.T) {
	reg := NewRegistry()
	b, _, f := testIndex(t, reg, 60, 5)
	if len(f.Chunks) < 5 {
		t.Fatalf("want >= 5 chunks, got %d", len(f.Chunks))
	}

	// Attempt on node 0 stages split 0, then fails: rollback.
	undo := b.SnapshotNode(0)
	scanAndStage(t, b, f, 0, 0)
	if got := stagedSplits(b); !slices.Equal(got, []int{0}) {
		t.Fatalf("Staged = %v, want [0]", got)
	}
	undo()
	if got := stagedSplits(b); len(got) != 0 {
		t.Fatalf("Staged after rollback = %v, want []", got)
	}

	// Speculative duplicate: winner on node 0, backup on node 1; backup's
	// rollback must not discard the winner's entries.
	scanAndStage(t, b, f, 0, 1)
	undoBackup := b.SnapshotNode(1)
	scanAndStage(t, b, f, 1, 1)
	undoBackup()
	if got := stagedSplits(b); !slices.Equal(got, []int{1}) {
		t.Fatalf("Staged after losing backup rollback = %v, want [1]", got)
	}
	if got := b.Commit(); got != 1 {
		t.Fatalf("Commit = %d, want 1", got)
	}
	if !reg.IsCovered("bix", 1) {
		t.Fatal("split 1 not covered after commit")
	}

	// Node crash: ResetNode discards everything the node staged.
	scanAndStage(t, b, f, 2, 2)
	scanAndStage(t, b, f, 2, 3)
	scanAndStage(t, b, f, 3, 4)
	b.ResetNode(2)
	if got := stagedSplits(b); !slices.Equal(got, []int{4}) {
		t.Fatalf("Staged after crash reset = %v, want [4] (node 3's)", got)
	}
	// Abandon drops the rest.
	b.Abandon()
	if got := stagedSplits(b); len(got) != 0 {
		t.Fatalf("Staged after Abandon = %v, want []", got)
	}
	if c, _ := b.BuildProgress(); c != 1 {
		t.Fatalf("coverage changed by rollback paths: %d, want 1", c)
	}
}

func TestCommitIsIdempotentAcrossDuplicateSplits(t *testing.T) {
	reg := NewRegistry()
	b, store, f := testIndex(t, reg, 40, 5)
	scanAndStage(t, b, f, 0, 0)
	b.Commit()
	keys := store.Len()
	// A later job re-stages the now-covered split (it was offered before
	// the first commit landed); commit must skip it.
	scanAndStage(t, b, f, 1, 0)
	if got := b.Commit(); got != 0 {
		t.Fatalf("re-commit of covered split = %d, want 0", got)
	}
	if store.Len() != keys {
		t.Fatalf("store grew on duplicate commit: %d -> %d", keys, store.Len())
	}
}

// TestFreezeMidBuildRebuildsSnapshot is the kvstore.Freeze interaction
// satellite: a store frozen to disk mid-build must serve post-commit
// lookups from a rebuilt snapshot, never the stale pre-commit one.
func TestFreezeMidBuildRebuildsSnapshot(t *testing.T) {
	reg := NewRegistry()
	b, store, f := testIndex(t, reg, 60, 7)

	// Build and commit the first batch, then freeze: the snapshot now
	// holds exactly the first batch's entries.
	for _, s := range b.OfferSplits() {
		scanAndStage(t, b, f, 0, s)
	}
	b.Commit()
	if err := store.Freeze(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Lookup("k001"); err != nil {
		t.Fatal(err)
	}
	if store.Rebuilds() != 0 {
		t.Fatalf("Rebuilds before second commit = %d, want 0", store.Rebuilds())
	}

	// Second build batch commits while frozen: Puts mark partitions
	// stale, and the next lookups rebuild them instead of serving the
	// mid-build snapshot.
	for _, s := range b.OfferSplits() {
		scanAndStage(t, b, f, 0, s)
	}
	if got := b.Commit(); got == 0 {
		t.Fatal("second commit built nothing")
	}

	want := map[string][]string{}
	for _, rec := range f.All() {
		ik := strings.Fields(rec.Value)[0]
		want[ik] = append(want[ik], rec.Key)
	}
	for ik, vals := range want {
		got, err := b.Lookup(ik)
		if err != nil {
			t.Fatalf("Lookup(%s) after freeze+commit: %v", ik, err)
		}
		g, w := append([]string(nil), got...), append([]string(nil), vals...)
		sort.Strings(g)
		sort.Strings(w)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("stale snapshot served: Lookup(%s) = %v, want %v", ik, got, w)
		}
	}
	if store.Rebuilds() == 0 {
		t.Fatal("expected snapshot rebuilds after mid-build freeze + commit")
	}
}

func TestBuildAllMatchesIncrementalBuild(t *testing.T) {
	regA, regB := NewRegistry(), NewRegistry()
	a, _, fa := testIndex(t, regA, 50, 6)
	c, _, _ := testIndex(t, regB, 50, 6)
	for {
		off := a.OfferSplits()
		if len(off) == 0 {
			break
		}
		for _, s := range off {
			scanAndStage(t, a, fa, 0, s)
		}
		a.Commit()
	}
	if err := c.BuildAll(); err != nil {
		t.Fatal(err)
	}
	for _, ik := range []string{"k000", "k003", "k005"} {
		va, _ := a.Lookup(ik)
		vb, _ := c.Lookup(ik)
		sort.Strings(va)
		sort.Strings(vb)
		if !reflect.DeepEqual(va, vb) {
			t.Fatalf("incremental vs BuildAll diverge on %s: %v vs %v", ik, va, vb)
		}
	}
	if regA.Fingerprint() != regB.Fingerprint() {
		t.Fatalf("registry fingerprints diverge:\n%s\nvs\n%s", regA.Fingerprint(), regB.Fingerprint())
	}
}

// TestStagingMatchesModel drives the staging protocol with seeded random
// sequences — stages, nested guards kept or rolled back, node resets,
// commits and abandons on 3 nodes × 8 splits — against a model that keeps
// each node's staged splits as a list. After every Commit, the count it
// returns, the registry's coverage and the store's contents must be the
// model's: each covered split installed exactly once.
func TestStagingMatchesModel(t *testing.T) {
	const nodes, splits = 3, 8
	for seed := int64(1); seed <= 200; seed++ {
		reg := NewRegistry()
		b, store, f := testIndex(t, reg, 120, 7)
		if len(f.Chunks) < splits {
			t.Fatalf("want >= %d chunks, got %d", splits, len(f.Chunks))
		}
		// want[s] is what split s puts in the store: index key → values.
		want := make([]map[string][]string, splits)
		for s := range want {
			want[s] = map[string][]string{}
			recs, err := f.Chunks[s].Records()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				for _, e := range b.Extract(r.Key, r.Value) {
					want[s][e.Key] = append(want[s][e.Key], e.Value)
				}
			}
		}
		type guard struct {
			rollback func()
			mark     int
		}
		var (
			model   [nodes][]int
			guards  [nodes][]guard
			covered = map[int]bool{}
			rng     = rand.New(rand.NewSource(seed))
		)
		for step := 0; step < 60; step++ {
			n := rng.Intn(nodes)
			node := sim.NodeID(n)
			where := func() string { return fmt.Sprintf("seed %d step %d", seed, step) }
			switch op := rng.Intn(10); {
			case op < 4: // stage
				s := rng.Intn(splits)
				scanAndStage(t, b, f, node, s)
				model[n] = append(model[n], s)
			case op < 6: // open a guard, nested in any open one
				guards[n] = append(guards[n], guard{b.SnapshotNode(node), len(model[n])})
			case op < 8: // close the innermost guard, if one is open
				if len(guards[n]) == 0 {
					break
				}
				g := guards[n][len(guards[n])-1]
				guards[n] = guards[n][:len(guards[n])-1]
				if op == 6 {
					g.rollback()
					model[n] = model[n][:min(g.mark, len(model[n]))]
				}
			case op == 8:
				b.ResetNode(node)
				model[n] = nil
			case rng.Intn(4) == 0:
				b.Abandon()
				model = [nodes][]int{}
			default:
				built := 0
				for _, list := range model {
					for _, s := range list {
						if !covered[s] {
							covered[s] = true
							built++
						}
					}
				}
				model = [nodes][]int{}
				if got := b.Commit(); got != built {
					t.Fatalf("%s: Commit = %d, model %d", where(), got, built)
				}
				var wantSplits []int
				wantVals := map[string][]string{}
				for s := 0; s < splits; s++ {
					if covered[s] {
						wantSplits = append(wantSplits, s)
						for k, vs := range want[s] {
							wantVals[k] = append(wantVals[k], vs...)
						}
					}
				}
				if got, _ := reg.CoveredSplits("bix"); !slices.Equal(got, wantSplits) {
					t.Fatalf("%s: coverage %v, model %v", where(), got, wantSplits)
				}
				if store.Len() != len(wantVals) {
					t.Fatalf("%s: store holds %d keys, model %d", where(), store.Len(), len(wantVals))
				}
				for k, vs := range wantVals {
					got, err := store.Lookup(k)
					if err != nil {
						t.Fatal(err)
					}
					got = slices.Clone(got)
					slices.Sort(got)
					if slices.Sort(vs); !slices.Equal(got, vs) {
						t.Fatalf("%s: store[%s] = %v, model %v", where(), k, got, vs)
					}
				}
			}
		}
	}
}

// TestMaterializeRejectsCoverageOutsideSource: a registry whose coverage
// names a split the source does not have (recovered from a checkpoint of
// a larger file) must make Materialize fail naming the index, the split
// and the chunk count, not index past the source's chunks.
func TestMaterializeRejectsCoverageOutsideSource(t *testing.T) {
	reg := NewRegistry()
	reg.Register("bix", 1000)
	reg.MarkBuilt("bix", 999)
	b, _, f := testIndex(t, reg, 60, 5)
	err := b.Materialize()
	if err == nil {
		t.Fatal("Materialize accepted split 999 of a source with fewer chunks")
	}
	for _, want := range []string{`"bix"`, "999", fmt.Sprintf("%d chunks", len(f.Chunks))} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Materialize error %q does not name %s", err, want)
		}
	}
}

// TestBuildProgressCountsSourceSplits loads a registry whose coverage
// names a split past the source's chunks (a checkpoint of a larger file):
// progress and serve time must price the source's own splits, all six
// uncovered, not the checkpoint's thousand.
func TestBuildProgressCountsSourceSplits(t *testing.T) {
	reg := NewRegistry()
	reg.Register("bix", 1000)
	reg.MarkBuilt("bix", 999)
	b, store, f := testIndex(t, reg, 60, 5)
	n := len(f.Chunks)
	if n != 6 {
		t.Fatalf("source has %d chunks, the case wants 6", n)
	}
	if c, total := b.BuildProgress(); c != 0 || total != n {
		t.Fatalf("BuildProgress = (%d, %d), want (0, %d)", c, total, n)
	}
	if got, want := b.ServeTime(), store.ServeTime()+float64(n)*b.ScanServeTime(); got != want {
		t.Fatalf("ServeTime = %g, want store + %d × scan = %g", got, n, want)
	}
	if s, total := reg.CoveredSplits("bix"); !slices.Equal(s, []int{999}) || total != 1000 {
		t.Fatalf("registry reads %v of %d, want its own [999] of 1000", s, total)
	}
}
