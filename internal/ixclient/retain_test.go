package ixclient

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"efind/internal/dfs"
	"efind/internal/sim"
)

// TestCachedKeyPinsNoChunk: the caches outlive the tasks that fill them
// and keep their keys as given, and a lookup key is often cut from a
// record's value. So a key cut from a file-backed record must keep that
// record alive, not the chunk it was read from: once the task drops its
// records, every other record's string is collected while the cached key
// still serves hits.
func TestCachedKeyPinsNoChunk(t *testing.T) {
	fs := dfs.New(sim.NewCluster(sim.DefaultConfig()))
	if err := fs.SetBacking(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	recs := make([]dfs.Record, 64)
	for i := range recs {
		recs[i] = dfs.Record{Key: fmt.Sprintf("r%04d", i), Value: fmt.Sprintf("k%04d|%s", i, strings.Repeat("p", 64))}
	}
	f, err := fs.Create("in", recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Chunks) != 1 {
		t.Fatalf("%d chunks, want 1", len(f.Chunks))
	}

	fi := newFake("kv")
	fi.data["k0063"] = []string{"v"}
	b := New(fi, Options{Op: "op", CacheMode: CacheReal}).Bind(testCtx(0))
	collected := make(chan struct{})
	func() {
		got, err := f.Chunks[0].Records()
		if err != nil {
			t.Fatal(err)
		}
		key, _, _ := strings.Cut(got[63].Value, "|")
		b.Lookup(key)
		// The first record's key starts its string; were the chunk one
		// string, this would be the chunk's.
		runtime.SetFinalizer(unsafe.StringData(got[0].Key), func(*byte) { close(collected) })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("a cached key cut from the chunk's last record keeps the first record's string alive")
			}
		}
	}
	if got := b.Lookup("k0063"); len(got) != 1 || got[0] != "v" || fi.calls != 1 {
		t.Fatalf("cached key: lookup = %v after %d index calls, want [v] from the cache", got, fi.calls)
	}
}
