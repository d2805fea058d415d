package dfs

import (
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"

	"efind/internal/fstore"
	"efind/internal/sim"
)

// viewAll copies every record out of its views, chunk by chunk.
func viewAll(t *testing.T, f *File) []Record {
	t.Helper()
	var out []Record
	for _, c := range f.Chunks {
		err := c.View(func(key, value []byte) error {
			out = append(out, Record{Key: string(key), Value: string(value)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestViewYieldsRecords: the scoped visitor reads exactly the records
// Records copies out, in order, on resident chunks and on file-backed
// ones under both read paths; an error from the callback stops the walk
// and comes back unchanged.
func TestViewYieldsRecords(t *testing.T) {
	recs := append(makeRecords(100), Record{Key: "empty-value"}, Record{Value: "empty-key"})
	mem := New(sim.NewCluster(sim.DefaultConfig()))
	mem.ChunkTarget = 512
	files := map[string]*File{}
	var err error
	if files["memory"], err = mem.Create("f", recs); err != nil {
		t.Fatal(err)
	}
	if files["mmap"], err = newBackedFS(t, fstore.Options{}).Create("f", recs); err != nil {
		t.Fatal(err)
	}
	if files["fallback"], err = newBackedFS(t, fstore.Options{NoMmap: true}).Create("f", recs); err != nil {
		t.Fatal(err)
	}
	for name, f := range files {
		got := viewAll(t, f)
		if len(got) != len(recs) {
			t.Fatalf("%s: viewed %d records, want %d", name, len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], recs[i])
			}
		}
		stop := errors.New("stop")
		seen := 0
		err := f.Chunks[0].View(func(_, _ []byte) error {
			seen++
			return stop
		})
		if err != stop || seen != 1 {
			t.Fatalf("%s: callback error came back as %v after %d records", name, err, seen)
		}
	}
}

// TestViewOfCorruptChunkIsAnError: a snapshot whose record count no
// longer matches the chunk's metadata, or whose sections were trashed
// under the mapping, is ErrCorrupt through the visitor as through
// Records — never a short or a wrong walk.
func TestViewOfCorruptChunkIsAnError(t *testing.T) {
	fb := newBackedFS(t, fstore.Options{})
	f, err := fb.Create("c", makeRecords(30))
	if err != nil {
		t.Fatal(err)
	}
	c := f.Chunks[0]
	c.n++ // the snapshot now holds one record fewer than the metadata says
	if err := c.View(func(_, _ []byte) error { return nil }); !errors.Is(err, fstore.ErrCorrupt) {
		t.Fatalf("miscounted chunk: %v", err)
	}
	c.n--

	data, err := os.ReadFile(f.path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 48; i < len(data); i++ {
		data[i] = 0xff
	}
	w, err := os.OpenFile(f.path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	for i, c := range f.Chunks {
		if err := c.View(func(_, _ []byte) error { return nil }); !errors.Is(err, fstore.ErrCorrupt) {
			t.Fatalf("chunk %d of a trashed snapshot: %v", i, err)
		}
	}
}

// TestPersistAllocs budgets the file-backed create: the snapshot image
// plus a constant — no staging copy of the records on the way to it.
// (CreateSharded takes its shards over, so the records themselves are
// not part of the bill.)
func TestPersistAllocs(t *testing.T) {
	value := strings.Repeat("v", 1<<10)
	recs := make([]Record, 4096)
	for i := range recs {
		recs[i] = Record{Key: "k", Value: value}
	}
	fs := newBackedFS(t, fstore.Options{})
	fs.ChunkTarget = 256 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := fs.CreateSharded("big", [][]Record{recs}, []sim.NodeID{0})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(f.path)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(info.Size())+256<<10; got > limit {
		t.Fatalf("persisting a %d-byte snapshot allocated %d bytes, want <= %d", info.Size(), got, limit)
	}
}
