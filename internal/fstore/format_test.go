package fstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// spellFMC1 is an independent spelling of the on-disk format, written
// from the layout table in the package comment and sharing no code with
// the builder: entries must arrive sorted by key.
func spellFMC1(entries []wireEntry) []byte {
	keySize := 1
	for _, e := range entries {
		if len(e.key) > keySize {
			keySize = len(e.key)
		}
	}
	le := binary.LittleEndian
	var slots, data []byte
	for _, e := range entries {
		off := len(data)
		for _, v := range e.values {
			data = binary.AppendUvarint(data, uint64(len(v)))
			data = append(data, v...)
		}
		slots = append(slots, e.key...)
		slots = append(slots, make([]byte, keySize-len(e.key))...)
		slots = le.AppendUint64(slots, uint64(e.rev))
		slots = le.AppendUint32(slots, uint32(off))
		slots = le.AppendUint32(slots, uint32(len(data)-off))
		slots = le.AppendUint32(slots, uint32(len(e.values)))
	}
	h := []byte("FMC1")
	h = le.AppendUint32(h, 1)
	h = le.AppendUint32(h, uint32(keySize))
	h = le.AppendUint32(h, uint32(len(entries)))
	h = le.AppendUint32(h, uint32(len(data)))
	h = le.AppendUint32(h, crc32.ChecksumIEEE(slots))
	h = le.AppendUint32(h, crc32.ChecksumIEEE(data))
	h = append(h, make([]byte, 16)...)
	h = le.AppendUint32(h, crc32.ChecksumIEEE(h))
	return append(append(h, slots...), data...)
}

// wireEntry is one entry as spellFMC1 takes it.
type wireEntry = struct {
	key    string
	rev    int64
	values []string
}

// TestEncodeWireFormat pins the FMC1 bytes: however an entry's values
// reach the builder — held in a slice or enumerated — the file on disk
// is the one the format table spells.
func TestEncodeWireFormat(t *testing.T) {
	type want = wireEntry
	long := strings.Repeat("L", 300) // two-byte uvarint length
	cases := []struct {
		name  string
		build func(b *Builder)
		want  []want
	}{
		{"empty", func(b *Builder) {}, nil},
		{"single entry", func(b *Builder) { b.Add("k", 7, "v") }, []want{{"k", 7, []string{"v"}}}},
		{"multi-value, added unsorted", func(b *Builder) {
			b.Add("zeta", -1, "", long, "x")
			b.Add("alpha", 2)
			b.Add("mu", 3, "one", "two")
		}, []want{{"alpha", 2, nil}, {"mu", 3, []string{"one", "two"}}, {"zeta", -1, []string{"", long, "x"}}}},
		{"slice and sequence", func(b *Builder) {
			b.Add("a", 1, "plain")
			b.Add("b", 2, long)
			b.Add("c", 3, "")
			b.AddSeq("d", 4, seqFunc(func(yield func(string)) {
				for _, v := range []string{"k1", long, "k2", ""} {
					yield(v)
				}
			}))
			b.AddSeq("e", 5, seqFunc(func(func(string)) {}))
		}, []want{
			{"a", 1, []string{"plain"}}, {"b", 2, []string{long}}, {"c", 3, []string{""}},
			{"d", 4, []string{"k1", long, "k2", ""}}, {"e", 5, nil},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			tc.build(b)
			path := filepath.Join(t.TempDir(), "wire.fmc1")
			if err := b.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := spellFMC1(tc.want); !bytes.Equal(got, want) {
				t.Fatalf("file on disk differs from the format's spelling:\n got % x\nwant % x", got, want)
			}
		})
	}
}

// TestStreamedFileMatchesReferenceBytes is the reference-bytes property:
// whatever the entries — none, thousands, added unsorted, with empty
// lists, empty values, values that straddle a window boundary and values
// larger than the window — the streamed file is byte for byte the one
// spellFMC1 assembles in memory, and Open + View hand the entries back.
func TestStreamedFileMatchesReferenceBytes(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := []int{0, 1, 2000}[seed%3]
		if seed >= 3 {
			n = rng.Intn(2001)
		}
		var want []wireEntry
		seen := map[string]bool{}
		for len(want) < n {
			k := make([]byte, 1+rng.Intn(64))
			for i := range k {
				k[i] = byte(1 + rng.Intn(255))
			}
			if seen[string(k)] {
				continue
			}
			seen[string(k)] = true
			e := wireEntry{key: string(k), rev: rng.Int63() - 1<<62}
			for v := rng.Intn(4); v > 0; v-- {
				size := rng.Intn(200)
				switch rng.Intn(200) {
				case 0:
					size = window + rng.Intn(window) // passes through the window in pieces
				case 1, 2, 3:
					size = window/8 + rng.Intn(window/4) // a few of these and one straddles a boundary
				case 4, 5, 6, 7:
					size = 0
				}
				val := make([]byte, size)
				rng.Read(val)
				e.values = append(e.values, string(val))
			}
			want = append(want, e)
		}
		b := NewBuilder()
		for i, e := range want { // unsorted: map order is not key order
			if values := e.values; i%2 == 0 {
				b.Add(e.key, e.rev, values...)
			} else {
				b.AddSeq(e.key, e.rev, seqFunc(func(yield func(string)) {
					for _, v := range values {
						yield(v)
					}
				}))
			}
		}
		rng.Shuffle(len(b.entries), func(i, j int) { b.entries[i], b.entries[j] = b.entries[j], b.entries[i] })
		path := filepath.Join(t.TempDir(), "prop.fmc1")
		if err := b.WriteFile(path); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].key < want[j].key })
		if ref := spellFMC1(want); !bytes.Equal(got, ref) {
			t.Fatalf("seed %d (%d entries): the %d streamed bytes differ from the %d reference bytes", seed, n, len(got), len(ref))
		}
		s, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if s.Len() != len(want) {
			t.Fatalf("seed %d: Len = %d, want %d", seed, s.Len(), len(want))
		}
		for i, e := range want {
			vals, err := viewed(s, i)
			if s.Key(i) != e.key || s.Revision(i) != e.rev || err != nil || !slices.Equal(vals, e.values) {
				t.Fatalf("seed %d slot %d: key %q rev %d err %v, %d values; want %q rev %d, %d values", seed, i, s.Key(i), s.Revision(i), err, len(vals), e.key, e.rev, len(e.values))
			}
		}
		s.Close()
	}
}

// seqFunc adapts a function to the Seq an entry's values are enumerated by.
type seqFunc func(yield func(string))

func (f seqFunc) Each(yield func(string)) { f(yield) }

// byPass is a sequence that yields passes[i] on its i-th run (the last
// one from then on): a snapshot write runs it three times — measure,
// write, compare.
func byPass(passes ...[]string) seqFunc {
	run := 0
	return func(yield func(string)) {
		vals := passes[min(run, len(passes)-1)]
		run++
		for _, v := range vals {
			yield(v)
		}
	}
}

// TestRenderMustFillItsDeclaredWindow: a sequence must yield on every
// pass what it yielded when it was measured. One that changes before the
// write fails the per-entry check; one that changes before the compare
// fails that check too or, at equal sizes, the byte-for-byte
// verification — in every case nothing reaches the path and no temp file
// stays behind.
func TestRenderMustFillItsDeclaredWindow(t *testing.T) {
	m := []string{"12345678"} // as measured
	cases := map[string]struct {
		key     string
		passes  [][]string
		corrupt bool // caught by verification, not by the per-entry check
	}{
		"short":                    {"k", [][]string{m, {"1234567"}}, false},
		"long":                     {"k", [][]string{m, {"123456789"}}, false},
		"long, last":               {"zz", [][]string{m, {"123456789"}}, false},
		"nil":                      {"k", [][]string{m, nil}, false},
		"unstable seq":             {"k", [][]string{{"sized"}, {"filled!"}}, false},
		"unstable seq, same bytes": {"k", [][]string{{"abc"}, {"a", "b"}}, false},
		"shifted":                  {"k", [][]string{m, m, {"23456781"}}, true},
		"short on compare":         {"k", [][]string{m, m, {"1234567"}}, false},
		"regrouped on compare":     {"k", [][]string{{"abc"}, {"abc"}, {"a", "b"}}, false},
		"extra value on compare":   {"zz", [][]string{m, m, {"12345678", ""}}, false},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "never.fmc1")
			b := NewBuilder()
			b.Add("before", 0, "x")
			b.AddSeq(tc.key, 1, byPass(tc.passes...))
			b.Add("z-after", 0, "y")
			err := b.WriteFile(path)
			if err == nil {
				t.Fatal("write succeeded")
			}
			if errors.Is(err, ErrCorrupt) != tc.corrupt {
				t.Fatalf("error = %v, want from verification: %v", err, tc.corrupt)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Fatalf("a failed write left %d files behind", len(ents))
			}
		})
	}
}

// allocated reports the heap bytes f allocates: the least of three runs,
// so what the runtime allocates on the side now and then (a thread for a
// blocking write, lazy set-up on a first call) is not on f's bill.
func allocated(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestWriteAllocs budgets the write pipeline: a snapshot costs a constant
// — the plan, the snapshot it serves from — whatever its size. Its window
// is the last write's, there is no image to assemble it in, and it is
// verified through its mapping, not read back into a buffer.
func TestWriteAllocs(t *testing.T) {
	write := func(valueBytes int) (got uint64, size int64) {
		value := strings.Repeat("v", valueBytes)
		path := filepath.Join(t.TempDir(), "sized.fmc1")
		b := NewBuilder()
		for i := 0; i < 1024; i++ {
			b.Add(string(rune('a'+i/26/26))+string(rune('a'+i/26%26))+string(rune('a'+i%26)), 1, value)
		}
		var err error
		got = allocated(func() { err = b.WriteFile(path) })
		if err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return got, info.Size()
	}
	small, smallSize := write(256)
	big, bigSize := write(16 * 256)
	if bigSize < 14*smallSize || bigSize < 16*window {
		t.Fatalf("snapshots of %d and %d bytes: want values 16x apart and many windows", smallSize, bigSize)
	}
	if diff := int64(big) - int64(small); diff < -1<<10 || diff > 1<<10 {
		t.Errorf("writing %d bytes allocated %d, writing %d bytes allocated %d: want the same within 1 KB", smallSize, small, bigSize, big)
	}
	t.Logf("writing %d bytes allocated %d, writing %d bytes allocated %d", smallSize, small, bigSize, big)
	if limit := uint64(16 << 10); big > limit {
		t.Errorf("writing a %d-byte snapshot allocated %d bytes, want <= %d (a constant)", bigSize, big, limit)
	}
}
