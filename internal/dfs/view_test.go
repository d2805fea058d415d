package dfs

import (
	"errors"
	"fmt"
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

// TestChunkKeySpelling: the hand-rendered key is the one fmt spells, on
// both sides of the eight digits it is padded to, so no snapshot byte
// changes.
func TestChunkKeySpelling(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 255, 256, 9_999_999, 10_000_000, 99_999_999, 100_000_000} {
		var b strings.Builder
		b.WriteString("x")
		if writeChunkKey(&b, i); b.String() != fmt.Sprintf("xc%08d", i) {
			t.Errorf("writeChunkKey(%d) wrote %q, want %q", i, b.String()[1:], fmt.Sprintf("c%08d", i))
		}
	}
}

// TestPersistAllocs budgets the file-backed create: a constant whatever
// the records weigh — the snapshot streams through fstore's reused window
// and is verified through the mapping it serves from, with no image of
// the file and no staging copy of the records on the way to it —, and a
// count that does not grow with the chunks: the chunk structs are one
// slice, their keys one string, the builder's entries reserved for them
// at once, and a chunk enumerates its own records. (CreateSharded takes its shards over, so the
// records themselves are not part of the bill.)
func TestPersistAllocs(t *testing.T) {
	// The least of three creates: what the runtime allocates on the side now
	// and then (a thread for a blocking write, lazy set-up on a first call)
	// is not on the bill.
	persist := func(valueBytes, perChunk int) (got, count uint64, size int64) {
		value := strings.Repeat("v", valueBytes)
		got, count = ^uint64(0), ^uint64(0)
		for i := 0; i < 3; i++ {
			recs := make([]Record, 4096)
			for i := range recs {
				recs[i] = Record{Key: "k", Value: value}
			}
			fs := newBackedFS(t, fstore.Options{})
			fs.ChunkTarget = perChunk * recs[0].Size()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f, err := fs.CreateSharded("sized", [][]Record{recs}, []sim.NodeID{0})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			info, err := os.Stat(f.path)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(recs) / perChunk; len(f.Chunks) != want {
				t.Fatalf("%d chunks, want %d", len(f.Chunks), want)
			}
			got, count, size = min(got, after.TotalAlloc-before.TotalAlloc), min(count, after.Mallocs-before.Mallocs), info.Size()
		}
		return got, count, size
	}
	const window = 128 << 10                  // fstore's
	small, few, smallSize := persist(64, 256) // the same 16 chunks at either size
	big, _, bigSize := persist(16*64, 256)
	if bigSize < 12*smallSize || bigSize < 16*window {
		t.Fatalf("snapshots of %d and %d bytes: want values 16x apart and many windows", smallSize, bigSize)
	}
	if diff := int64(big) - int64(small); diff < -1<<10 || diff > 1<<10 {
		t.Errorf("persisting %d bytes allocated %d, persisting %d bytes allocated %d: want the same within 1 KB", smallSize, small, bigSize, big)
	}
	t.Logf("persisting %d bytes allocated %d, persisting %d bytes allocated %d", smallSize, small, bigSize, big)
	if limit := uint64(16 << 10); big > limit {
		t.Errorf("persisting a %d-byte snapshot allocated %d bytes, want <= %d (a constant)", bigSize, big, limit)
	}
	_, many, _ := persist(64, 4)
	t.Logf("persisting 4,096 records: %d allocations in 16 chunks, %d in 1,024: %.2f per extra chunk", few, many, float64(many-few)/(1024-16))
	if many != few {
		t.Errorf("persisting allocates %d times for 16 chunks and %d for 1,024, want the same: none per extra chunk", few, many)
	}
}

// TestChunkRecordsAllocs: reading a file-backed chunk's records costs
// one allocation for the slice and one per record, the string its key and
// value are cut out of.
func TestChunkRecordsAllocs(t *testing.T) {
	for _, perChunk := range []int{4, 512} {
		fs := newBackedFS(t, fstore.Options{})
		recs := make([]Record, 2*perChunk) // of one size
		for i := range recs {
			recs[i] = Record{Key: fmt.Sprintf("k%05d", i), Value: fmt.Sprintf("value-%05d", i)}
		}
		fs.ChunkTarget = perChunk * recs[0].Size()
		f, err := fs.Create("in", recs)
		if err != nil {
			t.Fatal(err)
		}
		c := f.Chunks[1]
		if c.snap == nil || c.n != perChunk {
			t.Fatalf("chunk of %d records, file-backed %v; want %d, file-backed", c.n, c.snap != nil, perChunk)
		}
		allocs := testing.AllocsPerRun(20, func() {
			got, err := c.Records()
			if err != nil || len(got) != perChunk || got[perChunk-1] != recs[2*perChunk-1] {
				t.Fatalf("records of chunk 1: %d, %v", len(got), err)
			}
		})
		if want := float64(1 + perChunk); allocs != want {
			t.Errorf("reading a file-backed chunk of %d records allocates %.1f times, want %.0f", perChunk, allocs, want)
		}
	}
}
