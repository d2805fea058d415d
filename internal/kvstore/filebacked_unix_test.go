//go:build unix

package kvstore

import (
	"bytes"
	"os"
	"slices"
	"testing"
)

// corruptValue rewrites the length of key-0017's first value in its
// partition file, under the store's live MAP_SHARED mapping, where the
// checksums the write verified no longer look.
func corruptValue(t *testing.T, s *Store) {
	t.Helper()
	path := s.partitionPath(s.dir, s.scheme.Fn("key-0017"))
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// key-0017's values val-17, val-217, val-417, length-prefixed.
	at := bytes.Index(image, []byte("\x06val-17\x07val-217\x07val-417"))
	if at < 0 {
		t.Fatalf("%s holds no value list of key-0017", path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 0x7f: a length that runs past the end of the key's values.
	if _, err := f.WriteAt([]byte{0x7f}, int64(at)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSnapshotRebuildsPartition rewrites one byte of a value — its
// length — in a partition file under the store's live MAP_SHARED mapping,
// where the checksums Open verified no longer look. The next lookup must not
// answer from the damaged bytes: its bounds check reports ErrCorrupt, the
// store rebuilds the partition from its map once, and the lookup returns the
// map's values.
func TestCorruptSnapshotRebuildsPartition(t *testing.T) {
	s, oracle := loadStore(t, 4)
	if err := s.Freeze(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const key = "key-0017"
	corruptValue(t, s)

	got, err := s.Lookup(key)
	if err != nil || !slices.Equal(got, oracle[key]) {
		t.Fatalf("Lookup(%q) after the overwrite = %q, %v; want %q", key, got, err, oracle[key])
	}
	if n := s.Rebuilds(); n != 1 {
		t.Fatalf("rebuilds = %d, want 1", n)
	}
	assertOracle(t, s, oracle)
	if n := s.Rebuilds(); n != 1 {
		t.Fatalf("rebuilds = %d after every key was looked up, want still 1", n)
	}
}

// TestFailedRebuildKeepsServing: a rebuild whose write fails leaves the
// partition's old snapshot mapped, so later lookups fail or retry — never
// read a released mapping — and one after the directory is back rebuilds.
func TestFailedRebuildKeepsServing(t *testing.T) {
	s, oracle := loadStore(t, 4)
	dir := t.TempDir()
	if err := s.Freeze(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	corruptValue(t, s)
	if err := os.RemoveAll(dir); err != nil { // the rebuild cannot write
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, err := s.Lookup("key-0017"); err == nil {
			t.Fatalf("lookup %d with the directory gone = %q, want the rebuild's error", i, got)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, s, oracle)
	if n := s.Rebuilds(); n != 1 {
		t.Fatalf("rebuilds = %d, want 1", n)
	}
}
