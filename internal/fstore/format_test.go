package fstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// spellFMC1 is an independent spelling of the on-disk format, written
// from the layout table in the package comment and sharing no code with
// the builder: entries must arrive sorted by key.
func spellFMC1(entries []struct {
	key    string
	rev    int64
	values []string
}) []byte {
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

// TestEncodeWireFormat pins the FMC1 bytes: however an entry's values
// reach the builder — held in a slice, enumerated, or rendered in place
// at a declared size — the image is the one the format table spells,
// and the file on disk is that image.
func TestEncodeWireFormat(t *testing.T) {
	type want = struct {
		key    string
		rev    int64
		values []string
	}
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
		{"sized render and sequence", func(b *Builder) {
			b.Add("a", 1, "plain")
			b.AddSized("b", 2, len(long), func(dst []byte) []byte { return append(dst, long...) })
			b.AddSized("c", 3, 0, func(dst []byte) []byte { return dst })
			b.AddSeq("d", 4, func(yield func(string)) {
				for _, v := range []string{"k1", long, "k2", ""} {
					yield(v)
				}
			})
			b.AddSeq("e", 5, func(func(string)) {})
		}, []want{
			{"a", 1, []string{"plain"}}, {"b", 2, []string{long}}, {"c", 3, []string{""}},
			{"d", 4, []string{"k1", long, "k2", ""}}, {"e", 5, nil},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			tc.build(b)
			got, err := b.encode()
			if err != nil {
				t.Fatal(err)
			}
			want := spellFMC1(tc.want)
			if !bytes.Equal(got, want) {
				t.Fatalf("encoded image differs from the format's spelling:\n got % x\nwant % x", got, want)
			}
			path := filepath.Join(t.TempDir(), "wire.fmc1")
			if err := b.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			if onDisk, _ := os.ReadFile(path); !bytes.Equal(onDisk, want) {
				t.Fatal("file on disk differs from the encoded image")
			}
		})
	}
}

// TestRenderMustFillItsDeclaredWindow: a value rendered at another
// length than declared, or anywhere but the window it was handed, and a
// sequence that changes between the sizing and the filling pass, fail
// the write — nothing reaches the path, no temp file stays behind.
func TestRenderMustFillItsDeclaredWindow(t *testing.T) {
	flip := false
	cases := map[string]func(b *Builder){
		"short": func(b *Builder) { b.AddSized("k", 1, 8, func(dst []byte) []byte { return append(dst, "1234567"...) }) },
		"long": func(b *Builder) {
			b.AddSized("k", 1, 8, func(dst []byte) []byte { return append(dst, "123456789"...) })
		},
		"long, last": func(b *Builder) {
			b.Add("a", 1, "v")
			b.AddSized("k", 1, 2, func(dst []byte) []byte { return append(dst, "123"...) })
		},
		"own buffer": func(b *Builder) { b.AddSized("k", 1, 8, func(dst []byte) []byte { return make([]byte, len(dst)+8) }) },
		"shifted": func(b *Builder) {
			b.AddSized("k", 1, 8, func(dst []byte) []byte { return append(dst, "12345678"...)[1:] })
		},
		"nil":      func(b *Builder) { b.AddSized("k", 1, 8, func(dst []byte) []byte { return nil }) },
		"negative": func(b *Builder) { b.AddSized("k", 1, -1, func(dst []byte) []byte { return dst }) },
		"unstable seq": func(b *Builder) {
			b.AddSeq("k", 1, func(yield func(string)) {
				if flip = !flip; flip {
					yield("sized")
				} else {
					yield("filled!")
				}
			})
		},
	}
	cases["unstable seq, same bytes"] = func(b *Builder) {
		b.AddSeq("k", 1, func(yield func(string)) {
			if flip = !flip; flip {
				yield("abc")
			} else {
				yield("a")
				yield("b")
			}
		})
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "never.fmc1")
			flip = false
			b := NewBuilder()
			b.Add("before", 0, "x")
			build(b)
			b.Add("z-after", 0, "y")
			if err := b.WriteFile(path); err == nil {
				t.Fatal("write succeeded")
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Fatalf("a failed render left %d files behind", len(ents))
			}
		})
	}
}

// allocated reports the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWriteAllocs budgets the write pipeline: an N-byte snapshot costs
// its one image plus a constant (entry table, verify buffer) — no second
// image to assemble it from, none to read it back into.
func TestWriteAllocs(t *testing.T) {
	value := strings.Repeat("v", 4<<10)
	path := filepath.Join(t.TempDir(), "big.fmc1")
	b := NewBuilder()
	for i := 0; i < 1024; i++ {
		b.Add(string(rune('a'+i/26/26))+string(rune('a'+i/26%26))+string(rune('a'+i%26)), 1, value)
	}
	big := strings.Repeat("s", 1<<20)
	b.AddSized("zz-sized", 1, len(big), func(dst []byte) []byte { return append(dst, big...) })
	var err error
	got := allocated(func() { err = b.WriteFile(path) })
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(info.Size()) + 512<<10; got > limit {
		t.Fatalf("writing a %d-byte snapshot allocated %d bytes, want <= %d", info.Size(), got, limit)
	}
}
