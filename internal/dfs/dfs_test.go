package dfs

import (
	"strings"
	"testing"
	"testing/quick"

	"efind/internal/sim"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	return New(sim.NewCluster(sim.DefaultConfig()))
}

func recs(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Key: strings.Repeat("k", 4), Value: strings.Repeat("v", 16)}
	}
	return out
}

func TestCreateAndOpen(t *testing.T) {
	fs := newFS(t)
	f, err := fs.Create("a", recs(10))
	if err != nil {
		t.Fatal(err)
	}
	if f.Records() != 10 {
		t.Fatalf("want 10 records, got %d", f.Records())
	}
	got, err := fs.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Fatal("Open returned a different file")
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Create("a", recs(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("a", recs(1)); err == nil {
		t.Fatal("expected duplicate-create error")
	}
}

func TestOpenMissingFails(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Open("nope"); err == nil {
		t.Fatal("expected error opening missing file")
	}
}

func TestRemove(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Create("a", recs(1)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("a"); err == nil {
		t.Fatal("file should be gone")
	}
	if err := fs.Remove("a"); err == nil {
		t.Fatal("removing missing file should error")
	}
}

func TestChunkSplitting(t *testing.T) {
	fs := newFS(t)
	fs.ChunkTarget = 100               // tiny chunks
	f, err := fs.Create("a", recs(50)) // each record is 28 bytes
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(f.Chunks))
	}
	total := 0
	for _, c := range f.Chunks {
		if len(c.Replicas) != fs.Replication {
			t.Fatalf("chunk has %d replicas, want %d", len(c.Replicas), fs.Replication)
		}
		total += c.n
	}
	if total != 50 {
		t.Fatalf("records lost in chunking: %d != 50", total)
	}
}

func TestEmptyFileHasOneChunk(t *testing.T) {
	fs := newFS(t)
	f, err := fs.Create("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Chunks) != 1 || f.Records() != 0 {
		t.Fatalf("empty file should have one empty chunk, got %d chunks %d records", len(f.Chunks), f.Records())
	}
}

func TestCreateSharded(t *testing.T) {
	fs := newFS(t)
	shards := [][]Record{recs(3), recs(5)}
	homes := []sim.NodeID{2, 7}
	f, err := fs.CreateSharded("out", shards, homes)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Chunks) != 2 {
		t.Fatalf("want 2 chunks, got %d", len(f.Chunks))
	}
	for i, c := range f.Chunks {
		if c.Replicas[0] != homes[i] {
			t.Fatalf("chunk %d first replica = %d, want writer node %d", i, c.Replicas[0], homes[i])
		}
		if len(c.Replicas) != fs.Replication {
			t.Fatalf("chunk %d has %d replicas, want %d", i, len(c.Replicas), fs.Replication)
		}
	}
}

func TestCreateShardedMismatch(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.CreateSharded("out", [][]Record{recs(1)}, nil); err == nil {
		t.Fatal("expected shard/home mismatch error")
	}
}

func TestListSorted(t *testing.T) {
	fs := newFS(t)
	for _, n := range []string{"b", "a", "c"} {
		if _, err := fs.Create(n, recs(1)); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

func TestTempNameUnique(t *testing.T) {
	fs := newFS(t)
	n1 := fs.TempName("tmp")
	if _, err := fs.Create(n1, recs(1)); err != nil {
		t.Fatal(err)
	}
	n2 := fs.TempName("tmp")
	if n1 == n2 {
		t.Fatalf("TempName returned a colliding name %q", n1)
	}
}

func TestRecordSizePositive(t *testing.T) {
	f := func(k, v string) bool {
		if len(k) > 1000 || len(v) > 1000 {
			return true
		}
		r := Record{Key: k, Value: v}
		return r.Size() >= len(k)+len(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sharded creation preserves per-shard record sequences even
// when shards split into several chunks, and every chunk carries its
// shard index.
func TestShardedChunkingPreservesShards(t *testing.T) {
	f := func(sizes []uint8, target uint16) bool {
		if len(sizes) == 0 || len(sizes) > 20 {
			return true
		}
		fs := New(sim.NewCluster(sim.DefaultConfig()))
		fs.ChunkTarget = int(target%256) + 16
		shards := make([][]Record, len(sizes))
		homes := make([]sim.NodeID, len(sizes))
		want := map[int][]string{}
		for s, n := range sizes {
			homes[s] = sim.NodeID(s % 12)
			for i := 0; i < int(n%50); i++ {
				v := strings.Repeat("x", i%30)
				shards[s] = append(shards[s], Record{Key: "k", Value: v})
				want[s] = append(want[s], v)
			}
		}
		file, err := fs.CreateSharded("f", shards, homes)
		if err != nil {
			return false
		}
		got := map[int][]string{}
		for _, c := range file.Chunks {
			if c.Shard < -1 || c.Shard >= len(sizes) {
				return false
			}
			if c.Shard >= 0 && c.n > 0 && c.Replicas[0] != homes[c.Shard] {
				return false
			}
			recs, err := c.Records()
			if err != nil {
				return false
			}
			for _, r := range recs {
				got[c.Shard] = append(got[c.Shard], r.Value)
			}
		}
		for s, vs := range want {
			if len(got[s]) != len(vs) {
				return false
			}
			for i := range vs {
				if got[s][i] != vs[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: chunking never loses, duplicates, or reorders records.
func TestChunkingPreservesRecords(t *testing.T) {
	f := func(vals []string, target uint16) bool {
		if len(vals) > 300 {
			return true
		}
		fs := New(sim.NewCluster(sim.DefaultConfig()))
		fs.ChunkTarget = int(target%512) + 16
		in := make([]Record, len(vals))
		for i, v := range vals {
			if len(v) > 100 {
				v = v[:100]
			}
			in[i] = Record{Key: "k", Value: v}
		}
		file, err := fs.Create("f", in)
		if err != nil {
			return false
		}
		out := file.All()
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
