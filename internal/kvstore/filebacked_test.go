package kvstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"efind/internal/fstore"
)

func loadStore(t *testing.T, parts int) (*Store, map[string][]string) {
	t.Helper()
	s := NewHash(cluster(), "fb", parts, 3, 1e-3)
	oracle := make(map[string][]string)
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%04d", i%200)
		v := fmt.Sprintf("val-%d", i)
		s.Put(k, v)
		oracle[k] = append(oracle[k], v)
	}
	return s, oracle
}

func assertOracle(t *testing.T, s *Store, oracle map[string][]string) {
	t.Helper()
	for k, want := range oracle {
		got, err := s.Lookup(k)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", k, err)
		}
		if len(got) != len(want) {
			t.Fatalf("Lookup(%q) = %d values, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Lookup(%q)[%d] = %q, want %q", k, i, got[i], want[i])
			}
		}
	}
	if got, err := s.Lookup("absent-key"); err != nil || len(got) != 0 {
		t.Fatalf("absent key: %v, %v", got, err)
	}
}

func TestFreezeServesIdentically(t *testing.T) {
	for _, opts := range []fstore.Options{{}, {NoMmap: true}} {
		s, oracle := loadStore(t, 8)
		assertOracle(t, s, oracle)
		memLookups, memMisses := s.Lookups(), s.Misses()
		s.ResetStats()

		if err := s.FreezeOpts(t.TempDir(), opts); err != nil {
			t.Fatal(err)
		}
		if !s.FileBacked() {
			t.Fatal("store should be file-backed after Freeze")
		}
		assertOracle(t, s, oracle)
		if s.Lookups() != memLookups || s.Misses() != memMisses {
			t.Fatalf("counters diverge: file-backed %d/%d vs in-memory %d/%d",
				s.Lookups(), s.Misses(), memLookups, memMisses)
		}
		if s.Rebuilds() != 0 {
			t.Fatalf("clean freeze should not rebuild, got %d", s.Rebuilds())
		}

		// Batch path resolves through the same backend.
		keys := []string{"key-0000", "absent", "key-0199"}
		vals, err := s.BatchLookup(keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals[0]) == 0 || vals[1] != nil || len(vals[2]) == 0 {
			t.Fatalf("BatchLookup = %v", vals)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFreezeTwiceFails(t *testing.T) {
	s, _ := loadStore(t, 4)
	dir := t.TempDir()
	if err := s.Freeze(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Freeze(dir); err == nil {
		t.Fatal("second Freeze should fail")
	}
}

func TestPutAfterFreezeRebuildsPartition(t *testing.T) {
	s, oracle := loadStore(t, 4)
	if err := s.Freeze(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("fresh-key", "fresh-val")
	oracle["fresh-key"] = []string{"fresh-val"}
	assertOracle(t, s, oracle)
	if s.Rebuilds() == 0 {
		t.Fatal("stale partition should have been rebuilt")
	}
}

func TestCloseReleasesMappingsAndFallsBackToMemory(t *testing.T) {
	base := fstore.OpenHandles()
	s, oracle := loadStore(t, 8)
	if err := s.Freeze(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if fstore.OpenHandles() != base+8 {
		t.Fatalf("open handles = %d, want %d", fstore.OpenHandles(), base+8)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fstore.OpenHandles() != base {
		t.Fatalf("handles leaked: %d vs %d", fstore.OpenHandles(), base)
	}
	if s.FileBacked() {
		t.Fatal("store should be back to in-memory serving")
	}
	assertOracle(t, s, oracle)
	if err := s.Close(); err != nil {
		t.Fatal("closing an unfrozen store must be a no-op, got", err)
	}
}

// TestModelRandomOpSequences drives random Put/Lookup/Freeze/Close
// sequences against a plain map oracle: at every step the store answers
// exactly what the oracle holds, whichever backend is live.
func TestModelRandomOpSequences(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := NewHash(cluster(), fmt.Sprintf("model-%d", seed), 1+rng.Intn(8), 3, 0)
			oracle := make(map[string][]string)
			frozen := false
			dir := t.TempDir()
			key := func() string { return fmt.Sprintf("k%03d", rng.Intn(100)) }
			for op := 0; op < 600; op++ {
				switch r := rng.Intn(9); {
				case r < 4: // Put
					k, v := key(), fmt.Sprintf("v%d", op)
					s.Put(k, v)
					oracle[k] = append(oracle[k], v)
				case r < 8: // Lookup
					k := key()
					got, err := s.Lookup(k)
					if err != nil {
						t.Fatalf("op %d Lookup(%q): %v", op, k, err)
					}
					want := oracle[k]
					if len(got) != len(want) {
						t.Fatalf("op %d Lookup(%q) = %d values, want %d", op, k, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("op %d Lookup(%q)[%d] = %q, want %q", op, k, i, got[i], want[i])
						}
					}
				default: // flip the backend
					if frozen {
						if err := s.Close(); err != nil {
							t.Fatalf("op %d Close: %v", op, err)
						}
						frozen = false
					} else {
						if err := s.Freeze(dir); err != nil {
							t.Fatalf("op %d Freeze: %v", op, err)
						}
						frozen = true
					}
				}
			}
			if frozen {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFreezeBytesIndependentOfPutOrder loads one multi-value key set in
// two key orders (each key's values in the same order) and requires the
// frozen partition files to be byte-identical, with their digests pinned:
// the snapshot's order is the builder's, whatever the partitions hold.
func TestFreezeBytesIndependentOfPutOrder(t *testing.T) {
	const keys = 60
	put := func(s *Store, k int) {
		for v := 0; v <= k%3; v++ {
			s.Put(fmt.Sprintf("key-%03d", k), fmt.Sprintf("val-%d-%d", k, v))
		}
	}
	freeze := func(s *Store) []string {
		dir := t.TempDir()
		if err := s.Freeze(dir); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		names, err := filepath.Glob(filepath.Join(dir, "*.fmc1"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	ascending, descending := NewHash(cluster(), "order", 4, 3, 0), NewHash(cluster(), "order", 4, 3, 0)
	for k := 0; k < keys; k++ {
		put(ascending, k)
		put(descending, keys-1-k)
	}
	a, d := freeze(ascending), freeze(descending)
	want := []string{
		"7acc56932e398df61963800420afa15b836831af08ff662a216c5b1c22655f54",
		"6823c89c6eaf27c73112b285dd81d85df71d1731f9dd356344f46e95bbdaefdb",
		"6f388e2f358429bb2d94b5f47609643d0e209d87f7eb70d06ae5f7e0eeaf0234",
		"74ee9b23732eb4891211655a18ba8b303f02c50b33a5f4a296c7d3015842e667",
	}
	if len(a) != len(want) || len(d) != len(want) {
		t.Fatalf("partition files: %d and %d, want %d", len(a), len(d), len(want))
	}
	for i := range want {
		fa, err := os.ReadFile(a[i])
		if err != nil {
			t.Fatal(err)
		}
		fd, err := os.ReadFile(d[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fa, fd) {
			t.Errorf("%s: snapshot bytes depend on Put order", filepath.Base(a[i]))
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(fa)); got != want[i] {
			t.Errorf("%s: sha256 %s, want %s", filepath.Base(a[i]), got, want[i])
		}
	}
}

// TestLookupsSurviveConcurrentRebuilds is the adaptive-build traffic
// shape: Puts stale a frozen partition while query goroutines look up
// and probe it, so every rebuild unmaps a snapshot readers may be
// inside. A reader that outlives the lock it found the snapshot under
// dies with "unexpected fault address" (a fatal error, not a test
// failure) in the middle of copying a value out of the dead mapping —
// large values keep it there long enough.
func TestLookupsSurviveConcurrentRebuilds(t *testing.T) {
	if !fstore.MmapAvailable() {
		t.Skip("needs a real mapping to unmap")
	}
	s := NewHash(cluster(), "race", 1, 1, 1e-3)
	big := strings.Repeat("v", 512<<10)
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
		s.Put(keys[i], big)
	}
	if err := s.Freeze(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				k := keys[i%len(keys)]
				if vals, err := s.Lookup(k); err != nil || len(vals) == 0 || len(vals[0]) != len(big) {
					t.Errorf("Lookup(%s) = %d values, %v", k, len(vals), err)
					return
				}
				if vals, err := s.BatchLookup(keys[:2]); err != nil || len(vals[1]) == 0 {
					t.Errorf("BatchLookup: %v", err)
					return
				}
			}
		}(g)
	}
	// Each Put waits for the readers to rebuild the partition, so all
	// 100 rebuilds run with lookups in flight.
	for i := 0; i < 100 && !t.Failed(); i++ {
		before := s.Rebuilds()
		s.Put(fmt.Sprintf("fresh-%03d", i), "x")
		for s.Rebuilds() == before && !t.Failed() {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
}
