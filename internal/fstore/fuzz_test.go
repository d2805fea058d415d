package fstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// canonicalSnapshot returns the deterministic snapshot bytes the fuzz
// target mutates: a handful of entries spanning empty values, multiple
// values, and a value large enough that slot offsets are non-trivial.
func canonicalSnapshot(tb testing.TB) []byte {
	b := NewBuilder()
	b.Add("alpha", 1, "one", "two")
	b.Add("beta", 2)
	b.Add("gamma", 3, string(bytes.Repeat([]byte{'g'}, 300)))
	b.Add("delta", 4, "", "x")
	path := filepath.Join(tb.TempDir(), "canonical.fmc1")
	if err := b.WriteFile(path); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzFStoreSnapshot feeds mutated snapshot bytes to Open and asserts the
// store's core safety property: corruption is always detected, never
// served. Three oracles run per input:
//
//  1. The raw bytes are opened as a snapshot. If Open accepts them, every
//     read accessor must behave sanely (no panics, keys ascending, every
//     slot's values decodable) — acceptance of bytes that then misbehave
//     would be wrong data served from a corrupt file.
//  2. The canonical snapshot is corrupted with a byte flip derived from
//     (pos, x). Open must reject it with ErrCorrupt — and the caller-side
//     story is then completed by rebuilding: rewriting the snapshot makes
//     Open succeed again with exactly the original content.
//  3. The canonical snapshot is opened and then rewritten in place — the
//     raw bytes over its head, the byte flip on top — under the live
//     handle. Reads through the open snapshot must stay inside the
//     contract: View and Values agree value for value or both report
//     ErrCorrupt, and the NoMmap handle (its own buffer) serves the
//     original content untouched.
func FuzzFStoreSnapshot(f *testing.F) {
	good := canonicalSnapshot(f)
	f.Add([]byte{}, uint32(0), byte(0x01))
	f.Add(good, uint32(0), byte(0x5a))
	f.Add(good, uint32(4), byte(0xff))
	f.Add(good, uint32(headerSize+3), byte(0x80))
	f.Add(good[:headerSize], uint32(20), byte(0x10))
	f.Add([]byte("FMC1 but not really a snapshot file"), uint32(8), byte(0x02))

	f.Fuzz(func(t *testing.T, raw []byte, pos uint32, x byte) {
		dir := t.TempDir()

		// Oracle 1: arbitrary bytes never panic and never half-work.
		rawPath := filepath.Join(dir, "raw.fmc1")
		if err := os.WriteFile(rawPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, {NoMmap: true}} {
			s, err := Open(rawPath, opts)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open of raw bytes failed outside the corruption contract: %v", err)
				}
				continue
			}
			exerciseSnapshot(t, s, false)
			s.Close()
		}

		// Oracle 2: a byte flip in a valid snapshot is always detected,
		// and rebuilding recovers the exact original.
		if x == 0 {
			return // zero xor is the identity, nothing to detect
		}
		mut := append([]byte(nil), good...)
		mut[int(pos)%len(mut)] ^= x
		mutPath := filepath.Join(dir, "mut.fmc1")
		if err := os.WriteFile(mutPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(mutPath, Options{}); err == nil {
			s.Close()
			t.Fatalf("byte flip at %d (xor %#x) not detected", int(pos)%len(good), x)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte flip error does not wrap ErrCorrupt: %v", err)
		}
		if err := os.WriteFile(mutPath, good, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(mutPath, Options{})
		if err != nil {
			t.Fatalf("rebuild after corruption must reopen cleanly: %v", err)
		}
		defer s.Close()
		if vals, ok, err := s.Lookup("alpha"); err != nil || !ok || len(vals) != 2 || vals[0] != "one" {
			t.Fatalf("rebuilt snapshot serves wrong data: %v %v %v", vals, ok, err)
		}

		// Oracle 3: the file changes under open handles.
		livePath := filepath.Join(dir, "live.fmc1")
		if err := os.WriteFile(livePath, good, 0o644); err != nil {
			t.Fatal(err)
		}
		copy(mut, raw) // mut is still good with the flip applied
		for _, opts := range []Options{{}, {NoMmap: true}} {
			live, err := Open(livePath, opts)
			if err != nil {
				t.Fatal(err)
			}
			rewriteInPlace(t, livePath, mut)
			exerciseSnapshot(t, live, true)
			if opts.NoMmap {
				if vals, err := live.Values(0); err != nil || len(vals) != 2 || vals[1] != "two" {
					t.Fatalf("fallback buffer changed with the file: %v %v", vals, err)
				}
			}
			live.Close()
			rewriteInPlace(t, livePath, good)
		}
	})
}

// rewriteInPlace overwrites the file's bytes without truncating it, so a
// live mapping sees new content at an unchanged length.
func rewriteInPlace(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, 0); err != nil {
		t.Fatal(err)
	}
}

// viewed collects slot i's values through View, copying each view before
// the callback returns.
func viewed(s *Snapshot, i int) ([]string, error) {
	var out []string
	err := s.View(i, func(v []byte) error {
		out = append(out, string(v))
		return nil
	})
	return out, err
}

// exerciseSnapshot walks every accessor of an accepted snapshot; any
// inconsistency between what validate accepted and what reads decode is
// a bug (wrong data would be served). rewritten marks a snapshot whose
// file changed after Open: key order was validated on the old bytes, so
// only the per-read checks are held to account.
func exerciseSnapshot(t *testing.T, s *Snapshot, rewritten bool) {
	prev := ""
	for i := 0; i < s.Len(); i++ {
		k := s.Key(i)
		if i > 0 && k <= prev && !(len(k) < len(prev) && prev[:len(k)] == k) && !rewritten {
			// Stripped keys can only collide in order via NUL padding,
			// which the builder forbids but raw bytes may contain; the
			// padded slot keys themselves are checked at open.
			t.Fatalf("slot %d: stripped key %q <= %q", i, k, prev)
		}
		prev = k
		s.Revision(i)
		if n := s.ValueBytes(i); n < 0 {
			t.Fatalf("slot %d: negative value bytes %d", i, n)
		}
		vals, err := s.Values(i)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("slot %d: decode error outside the corruption contract: %v", i, err)
		}
		// The visitor is the same read: exactly Values' bytes where
		// Values decodes, ErrCorrupt where it does not.
		views, verr := viewed(s, i)
		if (err == nil) != (verr == nil) || (verr != nil && !errors.Is(verr, ErrCorrupt)) {
			t.Fatalf("slot %d: View error %v, Values error %v", i, verr, err)
		}
		if err == nil && !reflect.DeepEqual(append([]string{}, vals...), append([]string{}, views...)) {
			t.Fatalf("slot %d: View yields %q, Values %q", i, views, vals)
		}
		if err == nil {
			got, ok, lerr := s.Lookup(s.Key(i))
			// A NUL-padded raw key may strip to a key that finds a
			// different (shorter) slot; presence is only guaranteed when
			// the stripped key round-trips to this slot.
			if j, found := s.Find(s.Key(i)); found && j == i {
				if lerr != nil || !ok || len(got) != len(vals) {
					t.Fatalf("slot %d: Lookup disagrees with Values: %v %v", i, ok, lerr)
				}
			}
			_ = fmt.Sprintf("%v", vals)
		}
	}
	s.Probe("alpha")
	s.Probe("")
}
