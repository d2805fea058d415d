package jobsvc

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"efind/internal/chaos"
	"efind/internal/fstore"
	"efind/internal/ixclient"
	"efind/internal/lru"
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

		ck, err := loadCheckpoint(checkpointOf(t, pool, t.TempDir()), nil)
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
			if key == ckptPoolValues {
				values = values[1:] // every row would shift by one
			}
			return rev, values
		}, "value table holds"},
		"row out of range": {func(key string, rev int64, values []string) (int64, []string) {
			if key == ckptPoolValues {
				rev, values = rev-1, values[:len(values)-1] // the last row's last value
			}
			return rev, values
		}, "outside the"},
		"version 1": {func(key string, rev int64, values []string) (int64, []string) {
			if key == ckptSentinel {
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
