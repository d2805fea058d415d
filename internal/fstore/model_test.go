package fstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// randKey draws a NUL-free key of 1..24 bytes.
func randKey(rng *rand.Rand) string {
	n := 1 + rng.Intn(24)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(1 + rng.Intn(255))
	}
	return string(b)
}

func randValues(rng *rand.Rand) []string {
	vals := make([]string, rng.Intn(5))
	for i := range vals {
		v := make([]byte, rng.Intn(120))
		rng.Read(v)
		vals[i] = string(v)
	}
	return vals
}

// TestModelAgainstMapOracle drives randomized build/query sequences and
// checks every snapshot answer against a plain map holding the same
// entries: same presence, same values, same probe sizes, under both the
// mmap and the fallback read path, through Values and through View.
// Each seed also exercises a rebuild (second generation written over the
// first) — the fstore lifecycle — and a rewrite under the open handle.
func TestModelAgainstMapOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "model.fmc1")
			for gen := int64(1); gen <= 2; gen++ {
				oracle := make(map[string][]string)
				b := NewBuilder()
				for i := 0; i < 50+rng.Intn(200); i++ {
					k := randKey(rng)
					if _, dup := oracle[k]; dup {
						continue
					}
					vs := randValues(rng)
					oracle[k] = vs
					b.Add(k, gen, vs...)
				}
				if err := b.WriteFile(path); err != nil {
					t.Fatal(err)
				}
				s, err := Open(path, Options{NoMmap: rng.Intn(2) == 0})
				if err != nil {
					t.Fatal(err)
				}
				if s.Len() != len(oracle) {
					t.Fatalf("gen %d: Len = %d, oracle holds %d", gen, s.Len(), len(oracle))
				}
				// Full scan: every slot reconstructs its oracle entry.
				seen := 0
				for i := 0; i < s.Len(); i++ {
					k := s.Key(i)
					want, ok := oracle[k]
					if !ok {
						t.Fatalf("slot %d key %q not in oracle", i, k)
					}
					if s.Revision(i) != gen {
						t.Fatalf("slot %d revision %d, want %d", i, s.Revision(i), gen)
					}
					got, err := s.Values(i)
					if err != nil {
						t.Fatal(err)
					}
					assertSameValues(t, k, got, want)
					views, err := viewed(s, i)
					if err != nil {
						t.Fatal(err)
					}
					assertSameValues(t, k, views, want)
					seen++
				}
				if seen != len(oracle) {
					t.Fatalf("scanned %d slots, oracle holds %d", seen, len(oracle))
				}
				// Random queries: present and absent keys, Lookup and Probe.
				keys := make([]string, 0, len(oracle))
				for k := range oracle {
					keys = append(keys, k)
				}
				for q := 0; q < 400; q++ {
					var k string
					if rng.Intn(2) == 0 && len(keys) > 0 {
						k = keys[rng.Intn(len(keys))]
					} else {
						k = randKey(rng)
					}
					want, inOracle := oracle[k]
					got, ok, err := s.Lookup(k)
					if err != nil {
						t.Fatal(err)
					}
					if ok != inOracle {
						t.Fatalf("Lookup(%q) presence %v, oracle %v", k, ok, inOracle)
					}
					if ok {
						assertSameValues(t, k, got, want)
					}
					found, n := s.Probe(k)
					if found != inOracle {
						t.Fatalf("Probe(%q) presence %v, oracle %v", k, found, inOracle)
					}
					if wantN := encodedSize(want); found && n != wantN {
						t.Fatalf("Probe(%q) = %d bytes, oracle encodes to %d", k, n, wantN)
					}
				}
				// The file is rewritten under the open snapshot: random
				// bytes over its slot and data sections, length unchanged.
				// The fallback buffer never notices; a mapping serves
				// either ErrCorrupt or what View and Values agree on.
				img, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				scribble := append([]byte(nil), img...)
				rng.Read(scribble[headerSize:])
				rewriteInPlace(t, path, scribble)
				exerciseSnapshot(t, s, true)
				if !s.mapped {
					for i := 0; i < s.Len(); i++ {
						views, err := viewed(s, i)
						if err != nil {
							t.Fatal(err)
						}
						assertSameValues(t, s.Key(i), views, oracle[s.Key(i)])
					}
				}
				rewriteInPlace(t, path, img)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func assertSameValues(t *testing.T, key string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("key %q: %d values, want %d", key, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %q value %d: %q, want %q", key, i, got[i], want[i])
		}
	}
}

// encodedSize mirrors the builder's data-section framing.
func encodedSize(values []string) int {
	n := 0
	for _, v := range values {
		l := len(v)
		n++ // one uvarint byte covers lengths < 128; values are < 120 bytes
		n += l
	}
	return n
}
