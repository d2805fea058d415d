//go:build unix

package fstore

import (
	"path/filepath"
	"testing"
)

// TestMmapIsTheDefaultOnUnix pins the platform contract: on unix builds
// mmap is available and is what Open uses unless NoMmap is set. The
// !unix build compiles the plain-read fallback instead, so this test
// (guarded by the build tag) is exactly the CI-matrix check that the
// mmap path is exercised where it exists.
func TestMmapIsTheDefaultOnUnix(t *testing.T) {
	if !MmapAvailable() {
		t.Fatal("MmapAvailable() = false on a unix build")
	}
	path := filepath.Join(t.TempDir(), "m.fmc1")
	b := NewBuilder()
	b.Add("k", 1, "v")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.mapped {
		t.Fatal("unix Open without NoMmap should memory-map the snapshot")
	}
	f, err := Open(path, Options{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.mapped {
		t.Fatal("NoMmap snapshot reports a live mapping")
	}
}
