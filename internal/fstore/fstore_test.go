package fstore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSnapshot builds a snapshot from pairs and returns its path.
func writeSnapshot(t *testing.T, entries map[string][]string) string {
	t.Helper()
	b := NewBuilder()
	i := int64(0)
	for k, vs := range entries {
		i++
		b.Add(k, i, vs...)
	}
	path := filepath.Join(t.TempDir(), "snap.fmc1")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func openBoth(t *testing.T, path string) []*Snapshot {
	t.Helper()
	out := make([]*Snapshot, 0, 2)
	for _, opts := range []Options{{}, {NoMmap: true}} {
		s, err := Open(path, opts)
		if err != nil {
			t.Fatalf("Open(%+v): %v", opts, err)
		}
		t.Cleanup(func() { s.Close() })
		out = append(out, s)
	}
	return out
}

func TestRoundtrip(t *testing.T) {
	entries := map[string][]string{
		"apple":  {"1", "22", "333"},
		"banana": {""},
		"cherry": nil,
		"date":   {strings.Repeat("x", 4096)},
	}
	path := writeSnapshot(t, entries)
	for _, s := range openBoth(t, path) {
		if s.Len() != len(entries) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(entries))
		}
		for k, want := range entries {
			vals, ok, err := s.Lookup(k)
			if err != nil || !ok {
				t.Fatalf("Lookup(%q) = %v, %v", k, ok, err)
			}
			if len(vals) != len(want) {
				t.Fatalf("Lookup(%q) = %d values, want %d", k, len(vals), len(want))
			}
			for i := range want {
				if vals[i] != want[i] {
					t.Fatalf("Lookup(%q)[%d] = %q, want %q", k, i, vals[i], want[i])
				}
			}
		}
		if _, ok, err := s.Lookup("missing"); ok || err != nil {
			t.Fatalf("missing key: ok=%v err=%v", ok, err)
		}
		if _, ok, err := s.Lookup(""); ok || err != nil {
			t.Fatalf("empty key: ok=%v err=%v", ok, err)
		}
		// Keys come back sorted and NUL-stripped.
		for i := 1; i < s.Len(); i++ {
			if s.Key(i-1) >= s.Key(i) {
				t.Fatalf("keys not ascending: %q >= %q", s.Key(i-1), s.Key(i))
			}
		}
	}
}

func TestMmapVsFallbackParity(t *testing.T) {
	path := writeSnapshot(t, map[string][]string{"k1": {"a"}, "k2": {"bb", "cc"}})
	snaps := openBoth(t, path)
	if MmapAvailable() && !snaps[0].mapped {
		t.Fatal("default open should mmap where available")
	}
	if snaps[1].mapped {
		t.Fatal("NoMmap open must not be mapped")
	}
	for i := 0; i < snaps[0].Len(); i++ {
		if snaps[0].Key(i) != snaps[1].Key(i) || snaps[0].Revision(i) != snaps[1].Revision(i) ||
			snaps[0].ValueBytes(i) != snaps[1].ValueBytes(i) {
			t.Fatalf("slot %d differs between mmap and fallback", i)
		}
	}
}

func TestProbeIsIndexOnly(t *testing.T) {
	path := writeSnapshot(t, map[string][]string{"hit": {"abc", "de"}})
	for _, s := range openBoth(t, path) {
		found, n := s.Probe("hit")
		if !found || n != 7 { // uvarint(3)+abc + uvarint(2)+de = 1+3+1+2
			t.Fatalf("Probe(hit) = %v, %d", found, n)
		}
		if found, n := s.Probe("miss"); found || n != 0 {
			t.Fatalf("Probe(miss) = %v, %d", found, n)
		}
		if found, _ := s.Probe(strings.Repeat("k", MaxKeySize+1)); found {
			t.Fatal("oversized key probed as present")
		}
	}
}

func TestEmptySnapshot(t *testing.T) {
	path := writeSnapshot(t, nil)
	for _, s := range openBoth(t, path) {
		if s.Len() != 0 {
			t.Fatalf("Len = %d", s.Len())
		}
		if _, ok, err := s.Lookup("anything"); ok || err != nil {
			t.Fatalf("lookup on empty: ok=%v err=%v", ok, err)
		}
	}
}

func TestBuilderRejectsBadKeys(t *testing.T) {
	for name, add := range map[string]func(*Builder){
		"empty":     func(b *Builder) { b.Add("", 0, "v") },
		"oversized": func(b *Builder) { b.Add(strings.Repeat("k", MaxKeySize+1), 0, "v") },
		"nul":       func(b *Builder) { b.Add("a\x00b", 0, "v") },
	} {
		b := NewBuilder()
		b.Add("fine", 0, "v")
		add(b)
		b.Add("also-fine", 0, "v")
		if err := b.WriteFile(filepath.Join(t.TempDir(), "x.fmc1")); err == nil {
			t.Fatalf("%s key: WriteFile should fail", name)
		}
	}
	b := NewBuilder()
	b.Add("dup", 0, "v1")
	b.Add("dup", 1, "v2")
	if err := b.WriteFile(filepath.Join(t.TempDir(), "x.fmc1")); err == nil {
		t.Fatal("duplicate key: WriteFile should fail")
	}
}

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	b := NewBuilder()
	b.Add("k", 1, "v")
	if err := b.WriteFile(filepath.Join(dir, "ok.fmc1")); err != nil {
		t.Fatal(err)
	}
	// A failing write (builder poisoned) must not leave temp files either.
	bad := NewBuilder()
	bad.Add("", 0)
	bad.WriteFile(filepath.Join(dir, "bad.fmc1"))
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if e.Name() != "ok.fmc1" {
			t.Fatalf("unexpected file %q left behind", e.Name())
		}
	}
}

// TestCorruptionDetectedAtOpen flips one byte in each region of a valid
// snapshot and asserts Open reports ErrCorrupt — never a silent success.
func TestCorruptionDetectedAtOpen(t *testing.T) {
	path := writeSnapshot(t, map[string][]string{
		"alpha": {"one", "two"},
		"beta":  {"three"},
		"gamma": {strings.Repeat("z", 100)},
	})
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	regions := map[string]int{
		"magic":    0,
		"version":  4,
		"keysize":  8,
		"count":    13,
		"datalen":  16,
		"slot-crc": 20,
		"data-crc": 24,
		"head-crc": 44,
		"slot":     headerSize + 2,
		"data":     len(good) - 3,
	}
	for name, off := range regions {
		for _, opts := range []Options{{}, {NoMmap: true}} {
			mut := append([]byte(nil), good...)
			mut[off] ^= 0x5a
			p := filepath.Join(t.TempDir(), "bad.fmc1")
			if err := os.WriteFile(p, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(p, opts)
			if err == nil {
				s.Close()
				t.Fatalf("%s corruption (offset %d, opts %+v) not detected", name, off, opts)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s corruption: error %v does not wrap ErrCorrupt", name, err)
			}
		}
	}
	// Truncations, including mid-header and empty files.
	for _, cut := range []int{0, 1, headerSize - 1, headerSize, len(good) - 1} {
		p := filepath.Join(t.TempDir(), "cut.fmc1")
		if err := os.WriteFile(p, good[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(p, Options{}); err == nil {
			s.Close()
			t.Fatalf("truncation to %d bytes not detected", cut)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

func TestOpenMissingFileIsNotCorrupt(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "nope.fmc1"), Options{})
	if err == nil {
		t.Fatal("want error")
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatal("a missing file is an I/O condition, not corruption")
	}
}

func TestOpenHandlesAndDoubleClose(t *testing.T) {
	base := OpenHandles()
	path := writeSnapshot(t, map[string][]string{"k": {"v"}})
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := OpenHandles(); got != base+1 {
		t.Fatalf("OpenHandles = %d, want %d", got, base+1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	if got := OpenHandles(); got != base {
		t.Fatalf("OpenHandles after close = %d, want %d", got, base)
	}
}
