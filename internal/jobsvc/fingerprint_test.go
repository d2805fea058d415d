package jobsvc

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/fstore"
	"efind/internal/ixclient"
	"efind/internal/sim"
	"efind/internal/vfs"
	"efind/internal/wal"
)

// fpOf fingerprints records laid out as a job output: shards of the
// given sizes, in memory or (backed) in a snapshot under a temp dir.
func fpOf(t *testing.T, backed bool, recs []dfs.Record, shardSizes ...int) uint64 {
	t.Helper()
	fp, err := outputFile(t, backed, recs, shardSizes...).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func outputFile(t *testing.T, backed bool, recs []dfs.Record, shardSizes ...int) *dfs.File {
	t.Helper()
	fs := dfs.New(sim.NewCluster(sim.DefaultConfig()))
	fs.ChunkTarget = 256
	if backed {
		if err := fs.SetBacking(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
	}
	if len(shardSizes) == 0 {
		shardSizes = []int{len(recs)}
	}
	var shards [][]dfs.Record
	var homes []sim.NodeID
	for i, n := range shardSizes {
		shards = append(shards, recs[:n:n])
		homes = append(homes, sim.NodeID(i))
		recs = recs[n:]
	}
	f, err := fs.CreateSharded("out", shards, homes)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func fpRecords(n int) []dfs.Record {
	recs := make([]dfs.Record, n)
	for i := range recs {
		recs[i] = dfs.Record{Key: fmt.Sprintf("r%04d", i), Value: fmt.Sprintf("payload %d => joined-%d", i, i%7)}
	}
	return recs
}

// TestOutputFingerprintIsAMultisetDigest: the fingerprint depends on
// which records the output holds and on nothing else — not their order,
// their sharding or chunking, or whether they sit in memory or in a
// snapshot — and any dropped, duplicated or altered record changes it.
func TestOutputFingerprintIsAMultisetDigest(t *testing.T) {
	recs := fpRecords(60)
	want := fpOf(t, false, recs)
	if want>>63 != 1 {
		t.Fatalf("fingerprint %#x of a non-empty output lacks the top bit that keeps it apart from 0 and fixes its encoded width", want)
	}
	if got := fpOf(t, false, nil); got != 0 {
		t.Fatalf("empty output fingerprints to %#x, want 0", got)
	}

	reversed := make([]dfs.Record, len(recs))
	for i, r := range recs {
		reversed[len(recs)-1-i] = r
	}
	same := map[string]uint64{
		"file-backed":            fpOf(t, true, recs),
		"three shards":           fpOf(t, false, recs, 10, 0, 50),
		"reversed":               fpOf(t, false, reversed),
		"reversed, backed, 4 sh": fpOf(t, true, reversed, 15, 15, 15, 15),
	}
	for name, got := range same {
		if got != want {
			t.Errorf("%s: fingerprint %#x, want %#x — layout leaked into the digest", name, got, want)
		}
	}

	mutate := func(f func(rs []dfs.Record) []dfs.Record) []dfs.Record {
		return f(append([]dfs.Record(nil), recs...))
	}
	flip := func(s string, i int) string { b := []byte(s); b[i] ^= 0x01; return string(b) }
	different := map[string][]dfs.Record{
		"dropped":        mutate(func(rs []dfs.Record) []dfs.Record { return rs[1:] }),
		"duplicated":     mutate(func(rs []dfs.Record) []dfs.Record { return append(rs, rs[17]) }),
		"value bit flip": mutate(func(rs []dfs.Record) []dfs.Record { rs[5].Value = flip(rs[5].Value, 3); return rs }),
		"key bit flip":   mutate(func(rs []dfs.Record) []dfs.Record { rs[5].Key = flip(rs[5].Key, 0); return rs }),
		"boundary moved": mutate(func(rs []dfs.Record) []dfs.Record {
			rs[9].Key, rs[9].Value = rs[9].Key+rs[9].Value[:1], rs[9].Value[1:]
			return rs
		}),
		"value moved between records": mutate(func(rs []dfs.Record) []dfs.Record {
			rs[1].Value, rs[2].Value = rs[2].Value, rs[1].Value
			return rs
		}),
	}
	for name, rs := range different {
		for _, backed := range []bool{false, true} {
			if got := fpOf(t, backed, rs); got == want {
				t.Errorf("%s (backed=%v): fingerprint unchanged", name, backed)
			}
		}
	}
}

// TestOutputFingerprintAcrossExecutors: the serial executor and a
// 4-worker parallel one write their reducers' shards in different
// orders; the journaled fingerprints agree job for job. (Recovered
// versus uninterrupted runs are compared by the crash sweep.)
func TestOutputFingerprintAcrossExecutors(t *testing.T) {
	serial, _ := runDurableRef(t, 1, filepath.Join(t.TempDir(), "p1"), 7)
	parallel, _ := runDurableRef(t, 4, filepath.Join(t.TempDir(), "p4"), 7)
	compareRuns(t, serial, parallel, "parallelism 4 vs 1")
}

// TestFingerprintAllocs: hashing an output costs nothing per record —
// no record slice, no concatenation, no sort — in memory and through the
// mapping alike.
func TestFingerprintAllocs(t *testing.T) {
	for _, backed := range []bool{false, true} {
		out := outputFile(t, backed, fpRecords(5000), 2500, 2500)
		if len(out.Chunks) < 100 {
			t.Fatalf("only %d chunks: the per-chunk path is barely exercised", len(out.Chunks))
		}
		if n := testing.AllocsPerRun(5, func() { out.Fingerprint() }); n != 0 {
			t.Errorf("backed=%v: fingerprinting 5000 records allocates %.0f times, want 0", backed, n)
		}
	}
}

// trash overwrites a snapshot's slot and data sections in place, under
// whatever mapping is live on it.
func trash(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 48; i < len(data); i++ {
		data[i] = 0xff
	}
	w, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
}

// TestUnreadableOutputFailsTheDecision: when the output snapshot is
// corrupted under the live file, fingerprinting reports ErrCorrupt and
// the job is decided — and journaled — as failed with that cause. It
// used to be journaled as completed with fingerprint 0, the value of a
// job without output.
func TestUnreadableOutputFailsTheDecision(t *testing.T) {
	e := newEnv(t, 1)
	dir := t.TempDir()
	if err := e.fs.SetBacking(filepath.Join(dir, "dfs")); err != nil {
		t.Fatal(err)
	}
	defer e.fs.Close()
	out, err := e.fs.Create("job-output", fpRecords(50))
	if err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "dfs", "*.fmc1"))
	if len(snaps) != 1 {
		t.Fatalf("expected the output's one snapshot, found %v", snaps)
	}
	trash(t, snaps[0])

	res := &core.JobResult{Output: out, Counters: map[string]int64{}}
	if fp, err := out.Fingerprint(); !errors.Is(err, fstore.ErrCorrupt) || fp != 0 {
		t.Fatalf("Fingerprint = %#x, %v; want 0 and ErrCorrupt", fp, err)
	}

	walDir := filepath.Join(dir, "wal")
	svc, err := New(e.rt, []TenantConfig{{Name: "alpha"}}, Options{Durable: &Durability{Dir: walDir}})
	if err != nil {
		t.Fatal(err)
	}
	ten := svc.order[0]
	j := &jobState{idx: 0, tenant: ten, sub: Submission{Tenant: "alpha", Conf: e.conf("j", core.ModeBaseline)}}
	ten.inflight, ten.active, svc.active = 1, 1, 1
	svc.finish(event{kind: evDone, job: j, res: res, finish: 1})
	svc.jl.close()

	st := j.status
	if st.State != JobFailed || !errors.Is(st.Err, fstore.ErrCorrupt) || st.OutputFP != 0 {
		t.Fatalf("decision = %v, err %v, fp %#x; want failed with ErrCorrupt", st.State, st.Err, st.OutputFP)
	}
	lines, err := DescribeJournal(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if last := lines[len(lines)-1]; !strings.Contains(last, "done") || !strings.Contains(last, "state=failed") {
		t.Fatalf("journal's last record is %q, want the failed decision", last)
	}
}

// TestRecoverRefusesOtherJournalVersions: version 1 journals carry
// fingerprints of the old definition; replaying one would report every
// job as divergent. Recover names the version instead.
func TestRecoverRefusesOtherJournalVersions(t *testing.T) {
	e := newEnv(t, 1)
	dir := t.TempDir()
	log, err := wal.Open(vfs.OS{}, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var hello walEnc
	hello.u64(recHello)
	hello.u64(1)
	hello.u64(tenantHash([]TenantConfig{{Name: "alpha"}}))
	if err := log.Append(hello.b); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = Recover(e.rt, []TenantConfig{{Name: "alpha"}}, Options{Durable: &Durability{Dir: dir}})
	if err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("Recover of a version-1 journal: %v", err)
	}
}

// warmPool returns a pool of nodes caches over one index, each holding
// the same keys, every entry its own copy of a valueBytes-byte value — as
// every node of a cluster caches its own copy of an index value.
func warmPool(nodes, keys, valueBytes int) *ixclient.Pool {
	pool := ixclient.NewPool(keys)
	var entries []ixclient.PoolEntry
	for node := 0; node < nodes; node++ {
		pe := ixclient.PoolEntry{Index: "kv", Node: sim.NodeID(node), Hits: 10, Misses: 1000}
		for k := 0; k < keys; k++ {
			pe.Keys = append(pe.Keys, fmt.Sprintf("ik%06d", k))
			pe.Values = append(pe.Values, []string{strings.Repeat(string(rune('a'+k%26)), valueBytes)})
		}
		entries = append(entries, pe)
	}
	pool.Restore(entries)
	return pool
}

// TestCheckpointAllocs budgets a checkpoint over a warm pool. In bytes it
// costs a constant whatever the cached values weigh: they stream from the
// caches into the file through fstore's window, each distinct one once.
// In allocations it costs per cache, not per cached entry: the value
// table is one sequence over the cached strings, its bookkeeping one map
// and one slice per index.
func TestCheckpointAllocs(t *testing.T) {
	e := newEnv(t, 1)
	// The least of three checkpoints: what the runtime allocates on the side
	// now and then (a thread for a blocking write, lazy set-up on a first
	// call) is not on the bill.
	checkpoint := func(pool *ixclient.Pool) (bytes, mallocs uint64, dir string) {
		bytes, mallocs = ^uint64(0), ^uint64(0)
		for i := 0; i < 3; i++ {
			dir = t.TempDir()
			svc, err := New(e.rt, []TenantConfig{{Name: "alpha"}}, Options{SharedCache: pool, Durable: &Durability{Dir: dir}})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			svc.writeCheckpoint()
			runtime.ReadMemStats(&after)
			svc.jl.close()
			if err := svc.DurableErr(); err != nil {
				t.Fatal(err)
			}
			bytes, mallocs = min(bytes, after.TotalAlloc-before.TotalAlloc), min(mallocs, after.Mallocs-before.Mallocs)
		}
		return bytes, mallocs, dir
	}

	const window = 128 << 10 // fstore's
	small, _, _ := checkpoint(warmPool(4, 32, 4<<10))
	big, _, dir := checkpoint(warmPool(4, 32, 64<<10))
	if diff := int64(big) - int64(small); diff < -1<<10 || diff > 1<<10 {
		t.Errorf("checkpoints over 4 KB and 64 KB values allocated %d and %d bytes, want the same within 1 KB", small, big)
	}
	// Per cached entry: Dump's key and value-list headers (40 B) and a share of the table.
	if limit := uint64(2*window + 16<<10 + 4*32*64); big > limit {
		t.Errorf("checkpointing 8 MB of cached values allocated %d bytes, want <= %d (two windows, a constant, 64 B per cached entry)", big, limit)
	}
	ck, err := loadCheckpoint(filepath.Join(dir, "ckpt-000001.fst"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.pool) != 4 || len(ck.pool[3].Keys) != 32 || ck.pool[3].Values[31][0] != strings.Repeat("f", 64<<10) {
		t.Fatalf("checkpoint does not read back the pool it was written from")
	}
	if info, err := os.Stat(filepath.Join(dir, "ckpt-000001.fst")); err != nil || info.Size() > 33*64<<10 {
		t.Fatalf("checkpoint of 32 distinct 64 KB values cached on 4 nodes is %d bytes (err %v): each value must be stored once", info.Size(), err)
	}

	_, few, _ := checkpoint(warmPool(4, 250, 16))
	_, many, _ := checkpoint(warmPool(4, 4000, 16))
	// The slack is the doublings of the encode buffer, the table and the
	// row map (112 and 160 allocations at the time of writing).
	if many > few+128 {
		t.Errorf("checkpoints over 1,000 and 16,000 cached entries made %d and %d allocations, want the same within 128: the bookkeeping is per cache, not per entry", few, many)
	}
}
