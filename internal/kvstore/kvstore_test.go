package kvstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"efind/internal/sim"
)

func cluster() *sim.Cluster { return sim.NewCluster(sim.DefaultConfig()) }

func TestPutLookup(t *testing.T) {
	s := NewHash(cluster(), "t", 8, 3, 1e-3)
	s.Put("a", "1")
	s.Put("a", "2")
	s.Put("b", "3")
	got, err := s.Lookup("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("Lookup(a) = %v", got)
	}
	if got, _ := s.Lookup("b"); len(got) != 1 || got[0] != "3" {
		t.Fatalf("Lookup(b) = %v", got)
	}
}

func TestLookupMissingReturnsEmpty(t *testing.T) {
	s := NewHash(cluster(), "t", 8, 3, 0)
	got, err := s.Lookup("missing")
	if err != nil || len(got) != 0 {
		t.Fatalf("missing key should yield empty result, got %v, %v", got, err)
	}
	if s.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses())
	}
}

func TestLookupCounting(t *testing.T) {
	s := NewHash(cluster(), "t", 4, 3, 0)
	s.Put("a", "1")
	for i := 0; i < 5; i++ {
		s.Lookup("a")
	}
	if s.Lookups() != 5 {
		t.Fatalf("lookups = %d, want 5", s.Lookups())
	}
	s.ResetStats()
	if s.Lookups() != 0 {
		t.Fatal("reset failed")
	}
}

func TestSchemeConsistentWithHosts(t *testing.T) {
	s := NewHash(cluster(), "t", 32, 3, 0)
	sch := s.Scheme()
	if sch.Partitions != 32 || len(sch.Hosts) != 32 {
		t.Fatalf("scheme partitions = %d hosts = %d", sch.Partitions, len(sch.Hosts))
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		p := sch.Fn(key)
		if p < 0 || p >= 32 {
			t.Fatalf("partition %d out of range", p)
		}
		hosts := s.HostsFor(key)
		if len(hosts) != 3 {
			t.Fatalf("HostsFor returned %d hosts", len(hosts))
		}
		for j := range hosts {
			if hosts[j] != sch.Hosts[p][j] {
				t.Fatalf("HostsFor disagrees with scheme for key %q", key)
			}
		}
	}
}

func TestHashPartitionBalance(t *testing.T) {
	s := NewHash(cluster(), "t", 16, 3, 0)
	for i := 0; i < 16000; i++ {
		s.Put(fmt.Sprintf("key-%06d", i), "v")
	}
	for p, part := range s.parts {
		n := len(part)
		if n < 500 || n > 1500 {
			t.Fatalf("partition %d badly skewed: %d keys (expect ~1000)", p, n)
		}
	}
	if s.Len() != 16000 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestRangePartitioning(t *testing.T) {
	s := NewRange(cluster(), "t", []string{"g", "p"}, 3, 0)
	sch := s.Scheme()
	if sch.Partitions != 3 {
		t.Fatalf("partitions = %d, want 3", sch.Partitions)
	}
	cases := map[string]int{
		"a": 0, "f": 0,
		"g": 1, "m": 1, "ozzz": 1,
		"p": 2, "z": 2,
	}
	for key, want := range cases {
		if got := sch.Fn(key); got != want {
			t.Fatalf("range Fn(%q) = %d, want %d", key, got, want)
		}
	}
	s.Put("apple", "1")
	s.Put("zebra", "2")
	if got, _ := s.Lookup("apple"); len(got) != 1 {
		t.Fatalf("range lookup apple = %v", got)
	}
	if got, _ := s.Lookup("zebra"); len(got) != 1 {
		t.Fatalf("range lookup zebra = %v", got)
	}
}

func TestServeTime(t *testing.T) {
	s := NewHash(cluster(), "t", 4, 3, 0.0008)
	if s.ServeTime() != 0.0008 {
		t.Fatalf("serve time = %g", s.ServeTime())
	}
}

func TestLoad(t *testing.T) {
	s := NewHash(cluster(), "t", 4, 3, 0)
	s.Load(map[string][]string{"a": {"1", "2"}, "b": {"3"}})
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if got, _ := s.Lookup("a"); len(got) != 2 {
		t.Fatalf("loaded values = %v", got)
	}
}

func TestDegenerateParams(t *testing.T) {
	s := NewHash(cluster(), "t", 0, 0, 0)
	s.Put("a", "1")
	if got, _ := s.Lookup("a"); len(got) != 1 {
		t.Fatal("single-partition fallback store broken")
	}
	if len(s.HostsFor("a")) != 1 {
		t.Fatal("replica clamp failed")
	}
}

// Property: every Put value is returned by Lookup in insertion order,
// regardless of partitioning mode.
func TestLookupReturnsAllPuts(t *testing.T) {
	f := func(keys []string, useRange bool) bool {
		if len(keys) > 200 {
			return true
		}
		var s *Store
		if useRange {
			s = NewRange(cluster(), "t", []string{"m"}, 2, 0)
		} else {
			s = NewHash(cluster(), "t", 7, 2, 0)
		}
		want := map[string][]string{}
		for i, k := range keys {
			if len(k) > 40 {
				k = k[:40]
			}
			v := fmt.Sprintf("v%d", i)
			s.Put(k, v)
			want[k] = append(want[k], v)
		}
		for k, vs := range want {
			got, err := s.Lookup(k)
			if err != nil || len(got) != len(vs) {
				return false
			}
			for i := range vs {
				if got[i] != vs[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchLookupMatchesPerKey(t *testing.T) {
	s := NewHash(cluster(), "t", 8, 3, 0)
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	keys := []string{"k03", "missing", "k03", "k17", "also-missing", "k00"}

	want := make([][]string, len(keys))
	for i, k := range keys {
		v, err := s.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	perKeyLookups, perKeyMisses := s.Lookups(), s.Misses()

	s.ResetStats()
	got, err := s.BatchLookup(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("BatchLookup returned %d results for %d keys", len(got), len(keys))
	}
	for i := range keys {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("key %q: batch %v != per-key %v", keys[i], got[i], want[i])
		}
	}
	if s.Lookups() != perKeyLookups || s.Misses() != perKeyMisses {
		t.Fatalf("batch counted lookups=%d misses=%d, per-key counted %d/%d",
			s.Lookups(), s.Misses(), perKeyLookups, perKeyMisses)
	}
}

// TestRangeFnAllocs holds the range scheme's Fn to the formula it
// replaced, the first bound >= key+"\x00", on bounds, their NUL
// successors, proper prefixes, the empty key, 40-byte keys and repeated
// split points, and pins it and HostsFor at 0 allocations for keys of any
// length (TestLookupAllocs pins the lookup).
func TestRangeFnAllocs(t *testing.T) {
	long := strings.Repeat("k", 40)
	splits := []string{"g", "p", "p", "pq", long, long + "m", "", "ab", "ab"}
	s := NewRange(cluster(), "t", splits, 3, 0)
	bounds := append([]string(nil), splits...)
	sort.Strings(bounds)
	keys := []string{"", "a", "zzz", long[:39], long + "z", strings.Repeat("z", 40)}
	for _, b := range bounds {
		keys = append(keys, b, b+"\x00", b+"\x00\x00", b+"z")
		for n := 0; n < len(b); n++ {
			keys = append(keys, b[:n])
		}
	}
	for _, k := range keys {
		if got, want := s.Scheme().Fn(k), sort.SearchStrings(bounds, k+"\x00"); got != want {
			t.Errorf("Fn(%q) = %d, want %d", k, got, want)
		}
	}

	key := long + "x"
	for name, f := range map[string]func(){
		"Fn":       func() { s.Scheme().Fn(key) },
		"HostsFor": func() { s.HostsFor(key) },
	} {
		if n := testing.AllocsPerRun(1000, f); n != 0 {
			t.Errorf("%s on a %d-byte key: %v allocations, want 0", name, len(key), n)
		}
	}
}

// TestLookupAllocs: an in-memory lookup allocates nothing, hit or miss,
// hash- or range-partitioned.
func TestLookupAllocs(t *testing.T) {
	hash := NewHash(cluster(), "t", 32, 3, 0)
	hash.Put("key", "v")
	long := strings.Repeat("r", 40)
	rng := NewRange(cluster(), "t", []string{long[:20], long + "s"}, 3, 0)
	rng.Put(long, "v")
	for _, c := range []struct {
		name string
		s    *Store
		key  string
		hit  bool
	}{
		{"hash hit", hash, "key", true},
		{"hash miss", hash, "absent", false},
		{"range/40B hit", rng, long, true},
	} {
		n := testing.AllocsPerRun(1000, func() {
			if v, err := c.s.Lookup(c.key); err != nil || (len(v) == 1) != c.hit {
				t.Fatalf("%s: Lookup(%q) = %v, %v", c.name, c.key, v, err)
			}
		})
		if n != 0 {
			t.Errorf("%s: %v allocations, want 0", c.name, n)
		}
	}
}

// TestConcurrentPutLookup: lookups of preloaded keys run while another
// goroutine Puts new keys (growing the maps) and appends to the preloaded
// ones. Every lookup sees a prefix of its key's values in Put order.
func TestConcurrentPutLookup(t *testing.T) {
	const preloaded, fresh, readers = 64, 4000, 4
	s := NewHash(cluster(), "t", 4, 3, 0)
	val := func(k string, i int) string { return fmt.Sprintf("%s/%d", k, i) }
	keys := make([]string, preloaded)
	for i := range keys {
		keys[i] = fmt.Sprintf("pre-%02d", i)
		s.Put(keys[i], val(keys[i], 0))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				k := keys[i%preloaded]
				got, err := s.Lookup(k)
				if err != nil || len(got) == 0 {
					t.Errorf("Lookup(%s) = %v, %v", k, got, err)
					return
				}
				for j, v := range got {
					if v != val(k, j) {
						t.Errorf("Lookup(%s)[%d] = %q, want %q", k, j, v, val(k, j))
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < fresh && !t.Failed(); i++ {
		s.Put(fmt.Sprintf("fresh-%05d", i), "x")
		k := keys[i%preloaded]
		s.Put(k, val(k, 1+i/preloaded))
	}
	close(done)
	wg.Wait()
	if got := s.Len(); got != preloaded+fresh {
		t.Fatalf("Len = %d, want %d", got, preloaded+fresh)
	}
}
