package jobsvc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"efind/internal/adaptix"
	"efind/internal/chaos"
	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/fstore"
	"efind/internal/ixclient"
	"efind/internal/lru"
	"efind/internal/mapreduce"
	"efind/internal/sim"
	"efind/internal/vfs"
	"efind/internal/wal"
)

// TestDurabilityDeadJournalSkipsCheckpoints: once an append has failed
// the log is sticky-dead and can name no checkpoint, so none is written —
// a snapshot no journal names is a file Recover ignores by design. The
// run itself completes with the fault-free outcomes.
func TestDurabilityDeadJournalSkipsCheckpoints(t *testing.T) {
	ref, _ := runDurableRef(t, 1, filepath.Join(t.TempDir(), "wal"), 7)
	e := newDurableEnv(t, 1)
	tenants, subs := durableTrace(e)
	dir := filepath.Join(t.TempDir(), "wal")
	d := durability(dir, e, 7)
	d.FS = chaos.NewFaultFS(vfs.OS{}, chaos.FileFault{Kind: chaos.NoSpace, Match: ".wal"})
	svc, err := New(e.rt, tenants, Options{SharedCache: e.pool, Chaos: e.plan, Durable: d})
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, ref, svc.Run(subs), "dead journal")
	if err := svc.DurableErr(); err == nil || !strings.Contains(err.Error(), "wal: append") {
		t.Fatalf("DurableErr = %v, want the failed append", err)
	}
	names, err := vfs.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".fst") {
			t.Fatalf("a dead journal still wrote checkpoints: %v", names)
		}
	}
}

// TestRecoverSweepsOrphanedTempFiles: a crash between CreateTemp and
// Rename leaves the temp file of a checkpoint or of a segment repair in
// the journal directory. Recover removes exactly those, reports how
// many, and the recovered run is the sweep's.
func TestRecoverSweepsOrphanedTempFiles(t *testing.T) {
	refDir := filepath.Join(t.TempDir(), "wal")
	ref, refRegFP := runDurableRef(t, 1, refDir, 7)
	n, err := wal.CountRecords(vfs.OS{}, refDir)
	if err != nil {
		t.Fatal(err)
	}
	crashDir := filepath.Join(t.TempDir(), "crash")
	if err := wal.CrashImage(vfs.OS{}, refDir, crashDir, n*2/3, []byte{0x1f, 0xaa, 0x03}); err != nil {
		t.Fatal(err)
	}
	planted := map[string][]byte{
		".fstore-123":     make([]byte, 1<<20),
		".vfs-9":          []byte("half a repaired segment"),
		"ckpt-000099.fst": []byte("named like a checkpoint, named by no record"),
		"seg-notes.wal":   []byte("named like a segment, numbered like none"),
	}
	for name, data := range planted {
		if err := os.WriteFile(filepath.Join(crashDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := vfs.OS{}.ReadDir(crashDir)

	got, rep, regFP := recoverAndRun(t, 1, crashDir, 7)
	if rep.OrphansRemoved != 2 {
		t.Fatalf("OrphansRemoved = %d, want 2", rep.OrphansRemoved)
	}
	if len(rep.Divergences) != 0 {
		t.Fatalf("divergences: %v", rep.Divergences)
	}
	compareRuns(t, ref, got, "orphans")
	if regFP != refRegFP {
		t.Fatalf("registry fingerprint diverges: %s vs %s", regFP, refRegFP)
	}
	for _, name := range before {
		_, err := os.Stat(filepath.Join(crashDir, name))
		if orphan := strings.HasPrefix(name, ".fstore-") || strings.HasPrefix(name, ".vfs-"); orphan != os.IsNotExist(err) {
			t.Fatalf("%s after recovery: stat error %v, orphan %v", name, err, orphan)
		}
	}
}

// syncCountingFS counts the fsyncs issued through a Durability.FS.
type syncCountingFS struct {
	vfs.FS
	syncs atomic.Int64
}

type syncCountingFile struct {
	vfs.File
	fs *syncCountingFS
}

func (c *syncCountingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	return &syncCountingFile{f, c}, err
}

func (c *syncCountingFS) OpenAppend(path string) (vfs.File, error) {
	f, err := c.FS.OpenAppend(path)
	return &syncCountingFile{f, c}, err
}

func (f *syncCountingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// TestDurabilitySyncBudget: with Sync on, a journalled job costs at most
// three fsyncs — its decision, and its share of a checkpoint (the
// snapshot and the record naming it) — where every record used to cost
// one; the journal holds the same records.
func TestDurabilitySyncBudget(t *testing.T) {
	e := newDurableEnv(t, 1)
	tenants, subs := durableTrace(e)
	cfs := &syncCountingFS{FS: vfs.OS{}}
	dir := filepath.Join(t.TempDir(), "wal")
	d := durability(dir, e, 7)
	d.FS, d.Sync = cfs, true
	svc, err := New(e.rt, tenants, Options{SharedCache: e.pool, Chaos: e.plan, Durable: d})
	if err != nil {
		t.Fatal(err)
	}
	svc.Run(subs)
	if err := svc.DurableErr(); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "journal.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Count(string(golden), "\n"); svc.JournalRecords() != want {
		t.Fatalf("journal holds %d records, want the golden's %d", svc.JournalRecords(), want)
	}
	if got, limit := cfs.syncs.Load(), int64(3*len(subs)); got > limit {
		t.Fatalf("%d jobs cost %d fsyncs, want <= %d", len(subs), got, limit)
	}
}

// TestRecoverySweepCutsBetweenSyncs names the case group commit adds to
// the recovery sweep: a crash that loses the unsynced suffix. For every
// job the journal holds a record strictly between two syncs; cutting
// there (all of the suffix reached the disk) and at the sync before it
// (none of it did, the tail torn) both recover to the reference run.
func TestRecoverySweepCutsBetweenSyncs(t *testing.T) {
	refDir := filepath.Join(t.TempDir(), "wal")
	ref, refRegFP := runDurableRef(t, 1, refDir, 7)
	recs, _, err := wal.Replay(vfs.OS{}, refDir)
	if err != nil {
		t.Fatal(err)
	}
	cuts := map[int][2]int{} // job → {last sync before, a record between two syncs}
	lastSync := 0            // the start of the journal is a sync: nothing before it to lose
	for i, raw := range recs {
		r, err := decodeRec(raw.Payload)
		if err != nil {
			t.Fatal(err)
		}
		switch k := i + 1; { // cut points count records from 1
		case r.kind == recDone || r.kind == recReject || r.kind == recCkpt:
			lastSync = k
		case r.kind == recGrant || r.kind == recEnd || r.kind == recAdmit:
			if _, have := cuts[r.subIdx]; !have {
				cuts[r.subIdx] = [2]int{lastSync, k}
			}
		}
	}
	if len(cuts) != len(ref) {
		t.Fatalf("only jobs %v have a record between two syncs, want all %d — the sweep no longer covers a lost unsynced suffix for every job", cuts, len(ref))
	}
	for job, c := range cuts {
		for _, k := range c {
			crashDir := filepath.Join(t.TempDir(), fmt.Sprintf("crash-%d-%d", job, k))
			if err := wal.CrashImage(vfs.OS{}, refDir, crashDir, k, []byte{0x1f, 0xaa, 0x03}); err != nil {
				t.Fatal(err)
			}
			got, rep, regFP := recoverAndRun(t, 1, crashDir, 7)
			if len(rep.Divergences) != 0 || regFP != refRegFP {
				t.Fatalf("job %d, cut %d: divergences %v, registry %s vs %s", job, k, rep.Divergences, regFP, refRegFP)
			}
			compareRuns(t, ref, got, fmt.Sprintf("job %d cut %d", job, k))
		}
	}
}

// checkpointOf writes one checkpoint of a service over pool into dir.
func checkpointOf(t *testing.T, pool *ixclient.Pool, dir string) string {
	t.Helper()
	svc, err := New(newEnv(t, 1).rt, []TenantConfig{{Name: "alpha"}}, Options{SharedCache: pool, Durable: &Durability{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	svc.writeCheckpoint()
	svc.jl.close()
	if err := svc.DurableErr(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "ckpt-000001.fst")
}

// samePool compares two dumps; an empty value list reads back as nil.
func samePool(a, b []ixclient.PoolEntry) bool {
	norm := func(es []ixclient.PoolEntry) []ixclient.PoolEntry {
		out := append([]ixclient.PoolEntry(nil), es...)
		for i := range out {
			out[i].Values = append([][]string(nil), out[i].Values...)
			for j, v := range out[i].Values {
				if len(v) == 0 {
					out[i].Values[j] = nil
				}
			}
			if len(out[i].Keys) == 0 {
				out[i].Keys, out[i].Values = nil, nil
			}
		}
		return out
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// TestRecoverCheckpointRoundTrip is the value table's property: a pool
// dumped, checkpointed, loaded and restored dumps equal — over caches
// that hold the same key under different value lists (dedupe by key alone
// would hand the second cache the first one's values), keys the slot
// format would refuse (NUL, 2,000 bytes), empty lists, an empty cache with
// history, and 1 to 64 nodes.
func TestRecoverCheckpointRoundTrip(t *testing.T) {
	long := strings.Repeat("k", 2000)
	for _, nodes := range []int{1, 2, 64} {
		var entries []ixclient.PoolEntry
		for node := 0; node < nodes; node++ {
			pe := ixclient.PoolEntry{Index: "kv", Node: sim.NodeID(node), Snapshot: lru.Snapshot{Hits: int64(node), Misses: 7}}
			for k := 0; k < 20; k++ {
				pe.Keys = append(pe.Keys, fmt.Sprintf("ik%04d", (k+node)%25))
				pe.Values = append(pe.Values, []string{fmt.Sprintf("value-%d", (k+node)%25), "second"})
			}
			pe.Keys = append(pe.Keys, "nul\x00key", long, "empty-list", "no-values", "contested")
			pe.Values = append(pe.Values, []string{"n"}, []string{"l"}, []string{}, []string{""},
				[]string{fmt.Sprintf("as node %d saw it", node%3)}) // three lists under one key
			entries = append(entries, pe)
		}
		entries = append(entries,
			ixclient.PoolEntry{Index: "kv", Node: sim.NodeID(nodes), Snapshot: lru.Snapshot{Hits: 3, Misses: 9}}, // empty, with history
			ixclient.PoolEntry{Index: "other", Node: 0, Snapshot: lru.Snapshot{Keys: []string{"contested"}, Values: [][]string{{"another index's"}}}})
		pool := ixclient.NewPool(0)
		pool.Restore(entries)
		want := pool.Dump()

		ck, err := loadCheckpoint(checkpointOf(t, pool, t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		restored := ixclient.NewPool(0)
		restored.Restore(ck.pool)
		got := restored.Dump()
		for i := range want {
			if i >= len(got) || !samePool(want[i:i+1], got[i:i+1]) {
				t.Fatalf("%d nodes: cache %s@%d restored differently, or not at all", nodes, want[i].Index, want[i].Node)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d nodes: %d caches restored, want %d", nodes, len(got), len(want))
		}
	}
}

// TestLoadCheckpointRefusesStrayKeys: a version-3 checkpoint holds its
// state and its value table and nothing else; an entry of any other
// layout makes it undecodable.
func TestLoadCheckpointRefusesStrayKeys(t *testing.T) {
	state, _ := (&checkpoint{}).encode(nil)
	for _, stray := range []string{"", "sub:000001"} {
		b := fstore.NewBuilder()
		b.Add(ckptState, ckptVersion, string(state))
		if stray != "" {
			b.Add(stray, 0, "x")
		}
		path := filepath.Join(t.TempDir(), "ckpt-000001.fst")
		if err := b.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := loadCheckpoint(path); (err != nil) != (stray != "") || stray != "" && !strings.Contains(err.Error(), strconv.Quote(stray)) {
			t.Fatalf("a checkpoint with stray key %q loads with error %v", stray, err)
		}
	}
}

// rewriteCheckpoint rebuilds the checkpoint at path with its entries
// passed through edit (nil values drop the entry).
func rewriteCheckpoint(t *testing.T, path string, edit func(key string, rev int64, values []string) (int64, []string)) {
	t.Helper()
	snap, err := fstore.Open(path, fstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := fstore.NewBuilder()
	for i := 0; i < snap.Len(); i++ {
		values, err := snap.Values(i)
		if err != nil {
			t.Fatal(err)
		}
		if rev, values := edit(snap.Key(i), snap.Revision(i), append([]string{}, values...)); values != nil {
			b.Add(snap.Key(i), rev, values...)
		}
	}
	snap.Close()
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverFallsBackPastUndecodableCheckpoint: a checkpoint that passes
// its checksums but does not decode — a value-table string gone, a row
// that ends past the table, the previous layout version — is skipped by
// name and recovery falls back to the checkpoint before it.
func TestRecoverFallsBackPastUndecodableCheckpoint(t *testing.T) {
	refDir := filepath.Join(t.TempDir(), "wal")
	ref, refRegFP := runDurableRef(t, 1, refDir, 7)
	n, err := wal.CountRecords(vfs.OS{}, refDir)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		edit func(key string, rev int64, values []string) (int64, []string)
		want string
	}{
		"table string removed": {func(key string, rev int64, values []string) (int64, []string) {
			if key == ckptValues {
				values = values[1:] // every row would shift by one
			}
			return rev, values
		}, "value table holds"},
		"row out of range": {func(key string, rev int64, values []string) (int64, []string) {
			if key == ckptValues {
				rev, values = rev-1, values[:len(values)-1] // the last row's last value
			}
			return rev, values
		}, "outside the"},
		"version 1": {func(key string, rev int64, values []string) (int64, []string) {
			if key == ckptState {
				rev = 1
			}
			return rev, values
		}, "layout version 1"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			crashDir := filepath.Join(t.TempDir(), "crash")
			if err := wal.CrashImage(vfs.OS{}, refDir, crashDir, n, nil); err != nil {
				t.Fatal(err)
			}
			const newest = "ckpt-000003.fst"
			rewriteCheckpoint(t, filepath.Join(crashDir, newest), tc.edit)
			got, rep, regFP := recoverAndRun(t, 1, crashDir, 7)
			if len(rep.CheckpointsSkipped) != 1 || !strings.Contains(rep.CheckpointsSkipped[0], newest) || !strings.Contains(rep.CheckpointsSkipped[0], tc.want) {
				t.Fatalf("CheckpointsSkipped = %v, want %s skipped for %q", rep.CheckpointsSkipped, newest, tc.want)
			}
			if rep.Checkpoint != "ckpt-000002.fst" || len(rep.Divergences) != 0 || regFP != refRegFP {
				t.Fatalf("recovered from %q with divergences %v, registry %s vs %s", rep.Checkpoint, rep.Divergences, regFP, refRegFP)
			}
			compareRuns(t, ref, got, name)
		})
	}
}

// registryService is a one-tenant durable service in dir whose
// checkpoints carry reg, written through fs (nil: the real filesystem).
func registryService(t *testing.T, dir string, reg *adaptix.Registry, fs vfs.FS) *Service {
	t.Helper()
	svc, err := New(newEnv(t, 1).rt, []TenantConfig{{Name: "alpha"}}, Options{Durable: &Durability{Dir: dir, Registry: reg, FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// recoverRegistry recovers registryService's service from a copy of dir,
// as a crash would have left it, into reg.
func recoverRegistry(t *testing.T, dir string, reg *adaptix.Registry) *RecoveryReport {
	t.Helper()
	n, err := wal.CountRecords(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	crashDir := filepath.Join(t.TempDir(), "crash")
	if err := wal.CrashImage(vfs.OS{}, dir, crashDir, n, nil); err != nil {
		t.Fatal(err)
	}
	svc, rep, err := Recover(newEnv(t, 1).rt, []TenantConfig{{Name: "alpha"}}, Options{Durable: &Durability{Dir: crashDir, Registry: reg}})
	if err != nil {
		t.Fatal(err)
	}
	svc.jl.close()
	return rep
}

// TestRecoverRegistryRoundTrip: coverage checkpointed is the coverage
// Recover restores — an empty registry included —, merged into what the
// recovering registry already holds (MarkBuilt is idempotent). A
// checkpoint whose file is gone restores nothing.
func TestRecoverRegistryRoundTrip(t *testing.T) {
	empty, full := adaptix.NewRegistry(), adaptix.NewRegistry()
	full.Register("alpha", 8)
	full.Register("beta", 3)
	for _, s := range []int{0, 2, 5} {
		full.MarkBuilt("alpha", s)
	}
	full.MarkBuilt("beta", 1)
	for name, reg := range map[string]*adaptix.Registry{"empty": empty, "full": full} {
		dir := filepath.Join(t.TempDir(), "wal")
		svc := registryService(t, dir, reg, nil)
		svc.writeCheckpoint()
		svc.jl.close()
		if err := svc.DurableErr(); err != nil {
			t.Fatal(err)
		}
		got := adaptix.NewRegistry()
		if rep := recoverRegistry(t, dir, got); rep.Checkpoint != "ckpt-000001.fst" || got.Fingerprint() != reg.Fingerprint() {
			t.Fatalf("%s: recovered from %q:\n%s\nwant\n%s", name, rep.Checkpoint, got.Fingerprint(), reg.Fingerprint())
		}
		if name == "empty" {
			continue
		}

		merged := adaptix.NewRegistry()
		merged.Register("beta", 3)
		merged.MarkBuilt("beta", 2)
		recoverRegistry(t, dir, merged)
		if got, _ := merged.CoveredSplits("beta"); !reflect.DeepEqual(got, []int{1, 2}) {
			t.Fatalf("merge = %v, want [1 2]", got)
		}

		if err := os.Remove(filepath.Join(dir, "ckpt-000001.fst")); err != nil {
			t.Fatal(err)
		}
		missing := adaptix.NewRegistry()
		if rep := recoverRegistry(t, dir, missing); len(rep.CheckpointsSkipped) != 1 || len(missing.Names()) != 0 {
			t.Fatalf("a missing checkpoint: skipped %v, registry %q, want it skipped and nothing restored", rep.CheckpointsSkipped, missing.Fingerprint())
		}
	}
}

// swapFS writes through whichever filesystem it holds at the moment.
type swapFS struct{ vfs.FS }

// TestCheckpointFaultsNeverYieldPhantomSplits drives a checkpoint
// through every injected write fault at a mid-commit moment: coverage
// has grown in memory, the checkpoint of it dies, and Recover must read
// exactly the last durable coverage. A phantom split — the registry
// claiming a split is built when its entries never became durable —
// would silently corrupt every future lookup that trusts coverage.
func TestCheckpointFaultsNeverYieldPhantomSplits(t *testing.T) {
	for _, kind := range []chaos.FaultKind{chaos.TornWrite, chaos.ShortWrite, chaos.NoSpace, chaos.RenameFail} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			reg := adaptix.NewRegistry()
			reg.Register("bix", 6)
			reg.MarkBuilt("bix", 0)
			fs := &swapFS{vfs.OS{}}
			svc := registryService(t, dir, reg, fs)
			svc.writeCheckpoint() // the last durable coverage: [0]
			if err := svc.DurableErr(); err != nil {
				t.Fatal(err)
			}

			// Coverage grows in memory, then the checkpoint of it dies.
			reg.MarkBuilt("bix", 1)
			reg.MarkBuilt("bix", 2)
			match := ".fstore-"
			if kind == chaos.RenameFail {
				match = "ckpt-000002.fst"
			}
			fs.FS = chaos.NewFaultFS(vfs.OS{}, chaos.FileFault{Kind: kind, Match: match})
			svc.writeCheckpoint()
			if err := svc.DurableErr(); err == nil {
				t.Fatalf("%v during a checkpoint must surface as a durability error", kind)
			}
			fresh := adaptix.NewRegistry()
			rep := recoverRegistry(t, dir, fresh)
			if got, total := fresh.CoveredSplits("bix"); rep.Checkpoint != "ckpt-000001.fst" || !reflect.DeepEqual(got, []int{0}) || total != 6 {
				t.Fatalf("recovered %v of %d from %q, want [0] of 6 from ckpt-000001.fst — %v leaked phantom splits", got, total, rep.Checkpoint, kind)
			}

			// The retry (the fault was one-shot) makes the full coverage durable.
			svc.writeCheckpoint()
			svc.jl.close()
			retried := adaptix.NewRegistry()
			recoverRegistry(t, dir, retried)
			if got, _ := retried.CoveredSplits("bix"); !reflect.DeepEqual(got, []int{0, 1, 2}) {
				t.Fatalf("coverage after the retry = %v, want [0 1 2]", got)
			}
		})
	}
}

// TestRecoverAppliesNoPartOfARejectedCheckpoint: a checkpoint whose
// coverage names a split outside its index is skipped whole. The
// registry Recover fills holds the older checkpoint's coverage and
// nothing of the rejected one — not its first index, not the valid
// splits of the index that holds the bad one.
func TestRecoverAppliesNoPartOfARejectedCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	reg := adaptix.NewRegistry()
	reg.Register("a", 6)
	reg.MarkBuilt("a", 0)
	svc := registryService(t, dir, reg, nil)
	svc.writeCheckpoint()
	want := reg.Fingerprint()
	reg.MarkBuilt("a", 1)
	reg.Register("b", 6)
	reg.MarkBuilt("b", 0)
	svc.writeCheckpoint()
	svc.jl.close()

	// The newest checkpoint, rewritten to hold a=[0 1] and b=[0 99] of 6.
	rewriteCheckpoint(t, filepath.Join(dir, "ckpt-000002.fst"), func(key string, rev int64, values []string) (int64, []string) {
		if key != ckptState {
			return rev, values
		}
		ck, err := decodeState([]byte(values[0]), nil) // no pool, no value table
		if err != nil || len(ck.indices) != 2 || ck.indices[1].name != "b" {
			t.Fatalf("checkpoint indices %+v (err %v), want a and b", ck.indices, err)
		}
		ck.indices[1].splits = append(ck.indices[1].splits, 99)
		state, _ := ck.encode(nil)
		return rev, []string{string(state)}
	})

	fresh := adaptix.NewRegistry()
	rep := recoverRegistry(t, dir, fresh)
	if len(rep.CheckpointsSkipped) != 1 || !strings.Contains(rep.CheckpointsSkipped[0], "split 99") || rep.Checkpoint != "ckpt-000001.fst" {
		t.Fatalf("skipped %v, recovered from %q: want ckpt-000002.fst skipped for split 99, ckpt-000001.fst restored", rep.CheckpointsSkipped, rep.Checkpoint)
	}
	if got := fresh.Fingerprint(); got != want {
		t.Fatalf("registry after recovery:\n%swant the older checkpoint's\n%s", got, want)
	}
}

// TestRefusedRecoverLeavesNoSegment: a checkpoint that names a tenant
// the service does not configure, holds ledgers of another cluster shape,
// or holds pool state with no Options.SharedCache is refused before the
// journal's new segment opens — the directory's files stay what they were.
func TestRefusedRecoverLeavesNoSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	pool := ixclient.NewPool(0)
	pool.Restore([]ixclient.PoolEntry{{Index: "kv", Snapshot: lru.Snapshot{Keys: []string{"k"}, Values: [][]string{{"v"}}}}})
	svc, err := New(newEnv(t, 1).rt, []TenantConfig{{Name: "alpha"}}, Options{SharedCache: pool, Durable: &Durability{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	svc.writeCheckpoint()
	svc.jl.close()
	cluster := sim.NewCluster(sim.DefaultConfig())
	otherShape := core.NewRuntime(mapreduce.New(cluster, dfs.New(cluster)))
	files := func() string { names, err := vfs.OS{}.ReadDir(dir); return fmt.Sprint(names, err) }
	for _, tc := range []struct {
		rt      *core.Runtime
		tenant  string
		pool    *ixclient.Pool
		refusal string
	}{
		{newEnv(t, 1).rt, "beta", ixclient.NewPool(0), `names tenant "alpha" the service does not configure`},
		{otherShape, "alpha", ixclient.NewPool(0), "ledger shaped"},
		{newEnv(t, 1).rt, "alpha", nil, "Options.SharedCache is nil"},
	} {
		before := files()
		_, _, err := Recover(tc.rt, []TenantConfig{{Name: tc.tenant}}, Options{SharedCache: tc.pool, Durable: &Durability{Dir: dir}})
		if err == nil || !strings.Contains(err.Error(), tc.refusal) {
			t.Fatalf("Recover: %v; want the refusal %q", err, tc.refusal)
		}
		if after := files(); after != before {
			t.Errorf("refused (%s): files %s, were %s", tc.refusal, after, before)
		}
	}
}

// TestRecoverContinuesCheckpointNumbering: a recovered service names its
// next checkpoint after the last one the journal names, so it never
// overwrites a checkpoint an older record still names — the one
// Recover would fall back to.
func TestRecoverContinuesCheckpointNumbering(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	svc := registryService(t, dir, nil, nil)
	svc.writeCheckpoint()
	svc.writeCheckpoint()
	svc.jl.close()
	before := map[string][]byte{}
	for _, name := range []string{"ckpt-000001.fst", "ckpt-000002.fst"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		before[name] = b
	}
	recovered, _, err := Recover(newEnv(t, 1).rt, []TenantConfig{{Name: "alpha"}}, Options{Durable: &Durability{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	recovered.writeCheckpoint()
	recovered.jl.close()
	if err := recovered.DurableErr(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-000003.fst")); err != nil {
		t.Fatalf("the recovered service's checkpoint is not ckpt-000003.fst: %v", err)
	}
	for name, b := range before {
		if after, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(after, b) {
			t.Fatalf("%s changed after recovery (err %v)", name, err)
		}
	}
}
