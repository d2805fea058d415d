//go:build unix

package kvstore

import (
	"bytes"
	"os"
	"slices"
	"testing"
)

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
	const key = "key-0017" // values val-17, val-217, val-417: length-prefixed in the data section
	path := s.partitionPath(s.dir, s.scheme.Fn(key))
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(image, []byte("\x06val-17\x07val-217\x07val-417"))
	if at < 0 {
		t.Fatalf("%s holds no value list of %q", path, key)
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
