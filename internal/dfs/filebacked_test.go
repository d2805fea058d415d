package dfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"efind/internal/fstore"
	"efind/internal/sim"
)

func makeRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: fmt.Sprintf("k%05d", i), Value: fmt.Sprintf("value-%d", i)}
	}
	return recs
}

func newBackedFS(t *testing.T, opts fstore.Options) *FS {
	t.Helper()
	fs := New(sim.NewCluster(sim.DefaultConfig()))
	fs.ChunkTarget = 512
	if err := fs.SetBackingOpts(t.TempDir(), opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// TestFileBackedMatchesInMemory creates the same file in a plain and a
// file-backed namespace and asserts chunking, metadata, and every record
// agree exactly.
func TestFileBackedMatchesInMemory(t *testing.T) {
	for _, opts := range []fstore.Options{{}, {NoMmap: true}} {
		recs := makeRecords(100)
		mem := New(sim.NewCluster(sim.DefaultConfig()))
		mem.ChunkTarget = 512
		mf, err := mem.Create("f", recs)
		if err != nil {
			t.Fatal(err)
		}
		fb := newBackedFS(t, opts)
		ff, err := fb.Create("f", recs)
		if err != nil {
			t.Fatal(err)
		}
		if ff.snap == nil || mf.snap != nil {
			t.Fatalf("backing wrong: mem=%v file=%v", mf.snap != nil, ff.snap != nil)
		}
		if len(ff.Chunks) != len(mf.Chunks) || ff.Records() != mf.Records() {
			t.Fatalf("shape differs: %d/%d chunks, %d/%d records",
				len(ff.Chunks), len(mf.Chunks), ff.Records(), mf.Records())
		}
		for i := range ff.Chunks {
			fc, mc := ff.Chunks[i], mf.Chunks[i]
			if fc.Bytes != mc.Bytes || fc.Shard != mc.Shard || fc.n != mc.n {
				t.Fatalf("chunk %d metadata differs", i)
			}
		}
		got, want := ff.All(), mf.All()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

func TestFileBackedSharded(t *testing.T) {
	fb := newBackedFS(t, fstore.Options{})
	shards := [][]Record{makeRecords(5), nil, makeRecords(3)}
	homes := []sim.NodeID{1, 2, 3}
	f, err := fb.CreateSharded("s", shards, homes)
	if err != nil {
		t.Fatal(err)
	}
	if f.snap == nil {
		t.Fatal("sharded file should be file-backed")
	}
	if f.Records() != 8 {
		t.Fatalf("records = %d", f.Records())
	}
	for _, c := range f.Chunks {
		recs, err := c.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != c.n {
			t.Fatalf("chunk decode length %d != %d", len(recs), c.n)
		}
	}
}

func TestFileBackedEmptyFile(t *testing.T) {
	fb := newBackedFS(t, fstore.Options{})
	f, err := fb.Create("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Records() != 0 || len(f.All()) != 0 {
		t.Fatalf("empty file: %d records", f.Records())
	}
}

func TestRemoveDeletesSnapshotAndMapping(t *testing.T) {
	base := fstore.OpenHandles()
	fb := newBackedFS(t, fstore.Options{})
	if _, err := fb.Create("gone", makeRecords(10)); err != nil {
		t.Fatal(err)
	}
	if fstore.OpenHandles() != base+1 {
		t.Fatalf("handles = %d, want %d", fstore.OpenHandles(), base+1)
	}
	if err := fb.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if fstore.OpenHandles() != base {
		t.Fatalf("handle leaked after Remove: %d vs %d", fstore.OpenHandles(), base)
	}
	names, err := filepath.Glob(filepath.Join(fb.backing, "*.fmc1"))
	if err != nil || len(names) != 0 {
		t.Fatalf("snapshot files left behind: %v (%v)", names, err)
	}
}

func TestFSCloseReleasesEveryMapping(t *testing.T) {
	base := fstore.OpenHandles()
	fb := newBackedFS(t, fstore.Options{})
	for i := 0; i < 3; i++ {
		if _, err := fb.Create(fmt.Sprintf("f%d", i), makeRecords(20)); err != nil {
			t.Fatal(err)
		}
	}
	if fstore.OpenHandles() != base+3 {
		t.Fatalf("handles = %d, want %d", fstore.OpenHandles(), base+3)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if fstore.OpenHandles() != base {
		t.Fatalf("handles leaked after Close: %d vs %d", fstore.OpenHandles(), base)
	}
	if err := fb.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
}

// TestCorruptChunkSurfacesError overwrites a live snapshot's sections
// with garbage (the mapping is MAP_SHARED, so the pages change under the
// reader) and asserts record reads fail with ErrCorrupt — a DFS chunk
// has no in-memory source of truth, so detection, not silent garbage, is
// the contract.
func TestCorruptChunkSurfacesError(t *testing.T) {
	fb := newBackedFS(t, fstore.Options{})
	f, err := fb.Create("c", makeRecords(30))
	if err != nil {
		t.Fatal(err)
	}
	path := f.path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the 48-byte header, trash slots and data: slot offsets become
	// 0xFFFFFFFF, far outside the data section. Write in place (no
	// truncation) so the live mapping never shrinks mid-test.
	for i := 48; i < len(data); i++ {
		data[i] = 0xff
	}
	w, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for _, c := range f.Chunks {
		if _, err := c.Records(); err != nil {
			if !errors.Is(err, fstore.ErrCorrupt) {
				t.Fatalf("corruption error does not wrap ErrCorrupt: %v", err)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("no chunk reported corruption")
	}
}

// TestCreatesPersistOutsideTheLock: the namespace lock covers the name
// table, not the I/O. Two creates of different file-backed names are
// inside persist at the same time (the seam blocks each there until the
// test has seen both); their names are reserved meanwhile — taken for
// creates and TempName, absent for Open, Remove and List — and published
// when persist returns. A failed persist frees the name and leaves no
// file behind. Run under -race.
func TestCreatesPersistOutsideTheLock(t *testing.T) {
	fs := newBackedFS(t, fstore.Options{})
	arrived, release := make(chan string), make(chan struct{})
	fs.persisting = func(name string) {
		arrived <- name
		<-release
	}
	names := []string{"out-0000", "out-0001"}
	done := make(chan error)
	go func() {
		_, err := fs.Create(names[0], makeRecords(50))
		done <- err
	}()
	go func() {
		_, err := fs.CreateSharded(names[1], [][]Record{makeRecords(50)}, []sim.NodeID{0})
		done <- err
	}()
	for range names {
		select {
		case <-arrived:
		case <-time.After(30 * time.Second):
			t.Fatal("the second create never reached persist: the first holds the lock across its I/O")
		}
	}
	for _, name := range names {
		if _, err := fs.Open(name); err == nil {
			t.Errorf("Open(%s) sees a file that is not published yet", name)
		}
		if err := fs.Remove(name); err == nil {
			t.Errorf("Remove(%s) removed a reservation", name)
		}
		if _, err := fs.Create(name, nil); err == nil || !strings.Contains(err.Error(), "already exists") {
			t.Errorf("second Create(%s) = %v, want already exists", name, err)
		}
	}
	if got := fs.List(); len(got) != 0 {
		t.Errorf("List = %v while both creates are in flight", got)
	}
	if got := fs.TempName("out"); got != "out-0002" {
		t.Errorf("TempName = %s, want out-0002: reserved names are taken", got)
	}
	close(release)
	for range names {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	fs.persisting = nil
	if got := fs.List(); !reflect.DeepEqual(got, names) {
		t.Fatalf("List = %v after both creates returned, want %v", got, names)
	}
	for _, name := range names {
		if f, err := fs.Open(name); err != nil || f.Records() != 50 || f.snap == nil {
			t.Fatalf("Open(%s) = %v, %v", name, f, err)
		}
	}

	// A persist that fails: the backing directory is gone.
	dir := fs.backing
	if err := os.Rename(dir, dir+".away"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("lost", makeRecords(5)); err == nil {
		t.Fatal("create into a missing directory succeeded")
	}
	if err := os.Rename(dir+".away", dir); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("lost"); err == nil || len(fs.List()) != 2 {
		t.Fatalf("a failed create left its name behind: %v", fs.List())
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Fatalf("a failed create left files behind: %d entries, want the two snapshots", len(ents))
	}
	if _, err := fs.Create("lost", makeRecords(5)); err != nil {
		t.Fatalf("the name of a failed create is not free: %v", err)
	}
}

// BenchmarkPersist times one file-backed create shaped like a job output
// of the svc_durable workload: 48 reducer shards, 2,000 records of about
// 1.3 KB, and a ChunkTarget of 2,383 B, two records per chunk — about
// 1,000 snapshot entries. Each op writes, verifies and serves the
// snapshot, then removes the file. MB/s counts the records' bytes.
func BenchmarkPersist(b *testing.B) {
	const shards, records = 48, 2000
	value := strings.Repeat("0123456789abcdef", 81) // 1,296 B
	all := make([]Record, records)
	userBytes := 0
	for i := range all {
		all[i] = Record{Key: fmt.Sprintf("out-%06d", i), Value: value}
		userBytes += len(all[i].Key) + len(value)
	}
	parts := make([][]Record, shards)
	homes := make([]sim.NodeID, shards)
	for i := range parts {
		parts[i] = all[i*records/shards : (i+1)*records/shards]
		homes[i] = sim.NodeID(i)
	}
	fs := New(sim.NewCluster(sim.DefaultConfig()))
	fs.ChunkTarget = 2383
	if err := fs.SetBacking(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	b.SetBytes(int64(userBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fs.CreateSharded("out", parts, homes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(f.Chunks)), "entries")
		}
		if err := fs.Remove("out"); err != nil {
			b.Fatal(err)
		}
	}
}
