package kvstore

import (
	"fmt"
	"math/rand"
	"testing"

	"efind/internal/sim"
)

// benchKeys is the size of the benchmarks' key sets, built before any
// timer starts: short keys for the hash cases, 40-byte keys for the range
// cases, each in one fixed shuffled order, as a job's lookups arrive.
const benchKeys = 1 << 17

func benchKeySet(format string) []string {
	keys := make([]string, benchKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf(format, i)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

func shortKeys(prefix string) []string { return benchKeySet(prefix + "-%09d") }

func longKeys() []string { return benchKeySet("range-key-%030d") }

// newBenchStore is a 32-partition store: hashed, or ranged on 31 split
// points spread over the long keys.
func newBenchStore(ranged bool) *Store {
	c := sim.NewCluster(sim.DefaultConfig())
	if !ranged {
		return NewHash(c, "b", 32, 3, 0)
	}
	splits := make([]string, 0, 31)
	for p := 1; p < 32; p++ {
		splits = append(splits, fmt.Sprintf("range-key-%030d", p*benchKeys/32))
	}
	return NewRange(c, "b", splits, 3, 0)
}

// BenchmarkPut inserts fresh keys; a new store replaces a full one with
// the timer stopped.
func BenchmarkPut(b *testing.B) {
	for _, c := range []struct {
		name   string
		ranged bool
		keys   []string
	}{
		{"hash", false, shortKeys("key")},
		{"range/40B", true, longKeys()},
	} {
		b.Run(c.name, func(b *testing.B) {
			var s *Store
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%benchKeys == 0 {
					b.StopTimer()
					s = newBenchStore(c.ranged)
					b.StartTimer()
				}
				s.Put(c.keys[i%benchKeys], "value")
			}
		})
	}
}

// BenchmarkLookup reads a loaded in-memory store: keys it holds, keys it
// does not, and 40-byte keys through the range scheme.
func BenchmarkLookup(b *testing.B) {
	hash, ranged := newBenchStore(false), newBenchStore(true)
	stored, long := shortKeys("key"), longKeys()
	for i := range stored {
		hash.Put(stored[i], "value")
		ranged.Put(long[i], "value")
	}
	for _, c := range []struct {
		name string
		s    *Store
		keys []string
	}{
		{"hit", hash, stored},
		{"miss", hash, shortKeys("absent")},
		{"range/40B", ranged, long},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.s.Lookup(c.keys[i%benchKeys]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHostsFor(b *testing.B) {
	s := NewHash(sim.NewCluster(sim.DefaultConfig()), "b", 32, 3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.HostsFor("some-key")
	}
}
