package fstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync/atomic"
)

// Options configures how a snapshot is opened.
type Options struct {
	// NoMmap forces the plain file-read fallback even where mmap is
	// available, so both read paths are testable on any platform.
	NoMmap bool
}

// openHandles counts snapshots opened and not yet closed, across the
// process. Leak tests assert it returns to its starting value after
// engine/store shutdown.
var openHandles atomic.Int64

// OpenHandles returns the number of currently open snapshots (mapped or
// fallback-loaded).
func OpenHandles() int64 { return openHandles.Load() }

// MmapAvailable reports whether this platform serves snapshots via mmap
// (false means every snapshot uses the plain file-read fallback).
func MmapAvailable() bool { return mmapAvailable }

// Snapshot is one opened, validated FMC1 file. All reads go through the
// mapping (or the fallback buffer); the snapshot is immutable and safe
// for concurrent readers. Close releases the mapping.
type Snapshot struct {
	path    string
	data    []byte // full file bytes: the mapping, or a heap buffer
	keySize int
	n       int
	slots   []byte // slot section view
	vals    []byte // data section view
	mapped  bool   // true when served by a real mmap
	closed  atomic.Bool
}

// Open maps the snapshot at path and validates it end to end: magic,
// version, header checksum, section bounds, slot- and data-section
// checksums, and slot key ordering. Any failure returns an error
// wrapping ErrCorrupt (except I/O errors opening the file itself), so
// callers can distinguish "rebuild the cache" from "the disk is gone".
func Open(path string, opts Options) (*Snapshot, error) { return open(path, path, opts, nil) }

// open maps the file at name as a snapshot that serves as path: a
// non-nil check sees the bytes first (the writer holds them to its plan),
// then Open's validation runs.
func open(name, path string, opts Options, check func(data []byte) error) (*Snapshot, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() > maxSnapshotBytes {
		f.Close()
		return nil, corruptf("file is %d bytes, above the 4 GiB format limit", fi.Size())
	}
	data, mapped, err := readImage(f, int(fi.Size()), opts.NoMmap)
	// The file descriptor is only needed to establish the mapping (or
	// read the fallback buffer); the mapping outlives it either way.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	s := &Snapshot{path: path, data: data, mapped: mapped}
	if err == nil && check != nil {
		err = check(data)
	}
	if err == nil {
		err = s.validate()
	}
	if err != nil {
		_ = s.unmap()
		return nil, err
	}
	openHandles.Add(1)
	return s, nil
}

// readImage returns the file's bytes: a read-only mapping, or a heap
// buffer read through plain file I/O on platforms without mmap, under
// Options.NoMmap, and for an empty file (a zero-length mmap is invalid).
func readImage(f *os.File, size int, noMmap bool) (b []byte, mapped bool, err error) {
	if mmapAvailable && !noMmap && size > 0 {
		b, err = mmap(f, size)
		return b, err == nil, err
	}
	b = make([]byte, size)
	_, err = io.ReadFull(f, b)
	return b, false, err
}

func (s *Snapshot) unmap() error {
	if !s.mapped {
		return nil
	}
	return munmap(s.data)
}

// corruptf builds an ErrCorrupt-wrapping error.
func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// validate checks the whole snapshot once at open time. After it passes,
// read paths still bounds-check every decode (a defense against the file
// being rewritten underneath a live mapping), but never re-hash.
func (s *Snapshot) validate() error {
	d := s.data
	if len(d) < headerSize {
		return corruptf("file is %d bytes, smaller than the %d-byte header", len(d), headerSize)
	}
	if string(d[0:4]) != Magic {
		return corruptf("bad magic %q", d[0:4])
	}
	if v := binary.LittleEndian.Uint32(d[4:]); v != Version {
		return corruptf("unsupported version %d", v)
	}
	if got, want := crc32.ChecksumIEEE(d[0:44]), binary.LittleEndian.Uint32(d[44:]); got != want {
		return corruptf("header checksum mismatch (got %08x, stored %08x)", got, want)
	}
	keySize := int(binary.LittleEndian.Uint32(d[8:]))
	n := int(binary.LittleEndian.Uint32(d[12:]))
	dataLen := int(binary.LittleEndian.Uint32(d[16:]))
	if keySize < 1 || keySize > MaxKeySize {
		return corruptf("key size %d outside [1,%d]", keySize, MaxKeySize)
	}
	slotSize := keySize + slotExtra
	slotBytes := uint64(n) * uint64(slotSize)
	if uint64(headerSize)+slotBytes+uint64(dataLen) != uint64(len(d)) {
		return corruptf("sections (%d slots × %d + %d data) do not fill the %d-byte file", n, slotSize, dataLen, len(d))
	}
	slots := d[headerSize : headerSize+int(slotBytes)]
	vals := d[headerSize+int(slotBytes):]
	if got, want := crc32.ChecksumIEEE(slots), binary.LittleEndian.Uint32(d[20:]); got != want {
		return corruptf("slot section checksum mismatch (got %08x, stored %08x)", got, want)
	}
	if got, want := crc32.ChecksumIEEE(vals), binary.LittleEndian.Uint32(d[24:]); got != want {
		return corruptf("data section checksum mismatch (got %08x, stored %08x)", got, want)
	}
	s.keySize, s.n, s.slots, s.vals = keySize, n, slots, vals
	for i := 1; i < n; i++ {
		if bytes.Compare(s.slotKey(i-1), s.slotKey(i)) >= 0 {
			return corruptf("slot keys not strictly ascending at slot %d", i)
		}
	}
	for i := 0; i < n; i++ {
		off, length, _ := s.slotData(i)
		if uint64(off)+uint64(length) > uint64(len(vals)) {
			return corruptf("slot %d data range [%d:%d) outside the %d-byte data section", i, off, off+length, len(vals))
		}
	}
	return nil
}

// Path returns the file the snapshot was opened from, or written to.
func (s *Snapshot) Path() string { return s.path }

// Len returns the entry count.
func (s *Snapshot) Len() int { return s.n }

// slotKey returns the padded key bytes of slot i.
func (s *Snapshot) slotKey(i int) []byte {
	return s.slots[i*(s.keySize+slotExtra) : i*(s.keySize+slotExtra)+s.keySize]
}

// slotData returns slot i's data offset, length, and value count.
func (s *Snapshot) slotData(i int) (off, length uint32, count uint32) {
	b := s.slots[i*(s.keySize+slotExtra)+s.keySize:]
	return binary.LittleEndian.Uint32(b[8:]), binary.LittleEndian.Uint32(b[12:]), binary.LittleEndian.Uint32(b[16:])
}

// Key returns slot i's key with the NUL padding stripped.
func (s *Snapshot) Key(i int) string {
	k := s.slotKey(i)
	end := len(k)
	for end > 0 && k[end-1] == 0 {
		end--
	}
	return string(k[:end])
}

// KeyIs reports whether slot i holds key (keys are NUL-free), as
// Key(i) == key would, without making the string.
func (s *Snapshot) KeyIs(i int, key string) bool {
	k := s.slotKey(i)
	return len(key) <= len(k) && string(k[:len(key)]) == key && string(k[len(key):]) == string(zeros[:len(k)-len(key)])
}

// Revision returns slot i's caller-supplied revision.
func (s *Snapshot) Revision(i int) int64 {
	b := s.slots[i*(s.keySize+slotExtra)+s.keySize:]
	return int64(binary.LittleEndian.Uint64(b[:8]))
}

// ValueBytes returns the byte length of slot i's values — an index-only
// read: it touches the fixed-size slot section and never the data pages.
func (s *Snapshot) ValueBytes(i int) int {
	_, length, _ := s.slotData(i)
	return int(length)
}

// Find binary-searches the slot section for key and returns its slot
// index. Index-only: a miss (or a hit where only presence matters) never
// touches the data section.
func (s *Snapshot) Find(key string) (int, bool) {
	if len(key) > s.keySize || len(key) == 0 {
		return -1, false
	}
	var padded [MaxKeySize]byte
	copy(padded[:], key)
	want := padded[:s.keySize]
	i := sort.Search(s.n, func(i int) bool {
		return bytes.Compare(s.slotKey(i), want) >= 0
	})
	if i < s.n && bytes.Equal(s.slotKey(i), want) {
		return i, true
	}
	return -1, false
}

// Probe answers "is key present, and how many value bytes would a lookup
// materialize?" from the slot section alone.
func (s *Snapshot) Probe(key string) (found bool, valueBytes int) {
	i, ok := s.Find(key)
	if !ok {
		return false, 0
	}
	return true, s.ValueBytes(i)
}

// View calls fn once per value of slot i, in order, with a view that
// aliases the mapping: read-only, and valid only until fn returns, so
// whatever outlives the callback must be copied (Values does that for a
// whole slot). Views are never handed out as strings: nothing ties a
// string's lifetime to the mapping's, and Close unmaps it. Bounds and
// varint shape are checked even though the section checksum was verified
// at open, so a file rewritten underneath a live mapping surfaces
// ErrCorrupt instead of garbage. An error from fn ends the walk.
func (s *Snapshot) View(i int, fn func(v []byte) error) error {
	off, length, count := s.slotData(i)
	if uint64(off)+uint64(length) > uint64(len(s.vals)) {
		return corruptf("slot %d data range [%d:%d) outside the %d-byte data section", i, off, off+length, len(s.vals))
	}
	b := s.vals[off : off+length]
	for j := uint32(0); j < count; j++ {
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(l) > uint64(len(b)-n) {
			return corruptf("slot %d value %d has an undecodable length", i, j)
		}
		if err := fn(b[n : n+int(l)]); err != nil {
			return err
		}
		b = b[n+int(l):]
	}
	if len(b) != 0 {
		return corruptf("slot %d has %d trailing bytes after its %d values", i, len(b), count)
	}
	return nil
}

// Values decodes slot i's value list into strings of its own, for
// whatever retains them (caches, map input): View plus a copy per value.
func (s *Snapshot) Values(i int) ([]string, error) {
	// A value takes at least a byte, so the data section's size caps a
	// count rewritten under the mapping before it sizes the allocation.
	_, _, count := s.slotData(i)
	out := make([]string, 0, min(int(count), len(s.vals)))
	err := s.View(i, func(v []byte) error {
		out = append(out, string(v))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Lookup resolves key to its value list. A missing key returns
// (nil, false, nil) after touching only the slot section.
func (s *Snapshot) Lookup(key string) ([]string, bool, error) {
	i, ok := s.Find(key)
	if !ok {
		return nil, false, nil
	}
	vals, err := s.Values(i)
	return vals, err == nil, err
}

// Close releases the mapping. Closing twice is a no-op; reads after
// Close are invalid.
func (s *Snapshot) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	openHandles.Add(-1)
	return s.unmap()
}
