// Package fstore is a persistent, mmap-backed snapshot store — the
// file-backed substrate behind kvstore partitions and dfs chunk payloads.
// It implements the FMC1 format: a throwaway, rebuildable cache layout
// optimized for fast mapped reads and index-only filtering, NOT a durable
// primary store (writes are whole-snapshot rewrites; corruption is
// detected by checksums and answered by rebuilding from the source of
// truth).
//
// On-disk layout (all integers little-endian):
//
//	header (48 bytes)
//	  [0:4]    magic "FMC1"
//	  [4:8]    version (1)
//	  [8:12]   key size K (bytes per slot key, NUL-padded)
//	  [12:16]  entry count N
//	  [16:20]  data section length D
//	  [20:24]  CRC32 (IEEE) of the slot section
//	  [24:28]  CRC32 (IEEE) of the data section
//	  [28:44]  reserved (zero)
//	  [44:48]  CRC32 (IEEE) of header bytes [0:44]
//	slot section (N × (K+20) bytes), sorted strictly ascending by key
//	  key      [K]byte, NUL-padded
//	  revision int64 (caller-supplied staleness marker)
//	  dataOff  uint32 (offset of the entry's values in the data section)
//	  dataLen  uint32 (byte length of the entry's values)
//	  valCount uint32 (number of values)
//	data section (D bytes)
//	  per entry: valCount × (uvarint length + raw value bytes)
//
// The fixed-size slot section answers key-presence and result-size
// questions (index-only filtering) without touching the variable-length
// data section; value materialization walks only the entry's data range.
// uint32 offsets cap a snapshot below 4 GiB — shard into more snapshots
// (kvstore writes one per partition) rather than growing one file.
package fstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"sort"
	"strings"

	"efind/internal/vfs"
)

// Format constants.
const (
	Magic      = "FMC1"
	Version    = 1
	headerSize = 48
	slotExtra  = 20 // revision + dataOff + dataLen + valCount
	// MaxKeySize bounds the fixed slot key width; wider keys would turn
	// the "fixed-size" slot section into a data section of its own.
	MaxKeySize = 1024
	// maxSnapshotBytes is the uint32-offset file size cap (< 4 GiB).
	maxSnapshotBytes = 1<<32 - 1
)

// ErrCorrupt marks a snapshot whose bytes fail validation: bad magic or
// version, checksum mismatch, out-of-bounds sections, unsorted keys, or
// an undecodable data range. Callers treat it as "the cache is gone" and
// rebuild the snapshot from the source of truth.
var ErrCorrupt = errors.New("fstore: snapshot corrupt")

// FileName makes a user-facing store or DFS file name safe as a component
// of a snapshot's file name.
func FileName(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// Builder accumulates entries and writes one snapshot file. Not safe for
// concurrent use; build, write, discard. Nothing added is copied or
// checked before the write: value slices, sequences and renders are read
// when the file image is laid out and must stay unchanged until then, and
// a bad entry — keys must be unique, NUL-free and of 1 to MaxKeySize
// bytes — fails WriteFile, so loading loops need no per-call handling.
type Builder struct{ entries []entry }

// entry is one slot in the making. Its values come from exactly one of
// values (Add), seq (AddSeq) or render (AddSized).
type entry struct {
	key    string
	rev    int64
	values []string
	seq    func(yield func(string))
	size   int
	render func(dst []byte) []byte

	count, dataLen int // value count and data-section bytes, measured by encode
}

// NewBuilder returns an empty builder. The slot key width is derived
// from the longest key added.
func NewBuilder() *Builder { return &Builder{} }

// Add appends one entry holding the given values.
func (b *Builder) Add(key string, revision int64, values ...string) {
	b.entries = append(b.entries, entry{key: key, rev: revision, values: values})
}

// AddSeq appends one entry whose values are enumerated, not held in a
// slice: seq calls yield once per value, in order. It runs twice — to
// size the file image, then to fill it — and must yield the same values.
func (b *Builder) AddSeq(key string, revision int64, seq func(yield func(string))) {
	b.entries = append(b.entries, entry{key: key, rev: revision, seq: seq})
}

// AddSized appends one entry holding a single value of exactly size
// bytes that is not materialised yet: when the file image is laid out,
// render appends the value to dst — a window onto the image — and
// returns the extended slice. A render that yields another length, or
// anything but that window, fails the write.
func (b *Builder) AddSized(key string, revision int64, size int, render func(dst []byte) []byte) {
	b.entries = append(b.entries, entry{key: key, rev: revision, size: size, render: render})
}

// WriteFile encodes the snapshot and writes it atomically (temp file in
// the same directory, then rename), so readers never observe a partially
// written snapshot.
func (b *Builder) WriteFile(path string) error {
	return b.WriteFileFS(vfs.OS{}, path)
}

// WriteFileFS is WriteFile through an explicit filesystem — the seam the
// durability layer threads fault injection through: size the image, fill
// it in place, write, fsync, verify, rename. Verification compares the
// temp file with the image, every byte and the length, before the rename
// commits it: a write that lied about success (a short write acknowledged
// in full) is caught while the last durable snapshot at path is intact.
func (b *Builder) WriteFileFS(fs vfs.FS, path string) error {
	img, err := b.encode()
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(fs, path, ".fstore-*", img, true, func(tmpName string) error {
		return verifyFile(tmpName, img)
	})
}

// verifyFile compares the file at name with img through one fixed
// buffer, so checking an N-byte snapshot never holds a second N-byte
// copy. Like Open it reads beside the vfs seam, which carries mutations.
func verifyFile(name string, img []byte) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 64<<10)
	for off := 0; ; {
		n, err := f.Read(buf)
		if n > len(img)-off || !bytes.Equal(buf[:n], img[off:off+n]) || (err == io.EOF && off+n != len(img)) {
			return corruptf("write verification failed: the file departs from the %d encoded bytes within %d bytes of offset %d (torn, short or lying write)", len(img), n, off)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		off += n
	}
}

// valueLen is the data-section size of an n-byte value: uvarint length, bytes.
func valueLen(n int) int { return (bits.Len64(uint64(n)|1)+6)/7 + n }

// each yields the values of an entry added by Add or AddSeq.
func (e *entry) each(yield func(string)) {
	if e.seq != nil {
		e.seq(yield)
		return
	}
	for _, v := range e.values {
		yield(v)
	}
}

// encode renders the snapshot bytes — sorted slots, packed data section,
// checksummed header — into one allocation of exactly the file's size: a
// first pass checks and measures the entries, a second fills the image.
func (b *Builder) encode() ([]byte, error) {
	entries := b.entries
	keySize, dataSize, sorted := 1, 0, true // empty snapshots still declare a valid key width
	var e *entry
	measure := func(v string) {
		e.count++
		e.dataLen += valueLen(len(v))
	}
	for i := range entries {
		e = &entries[i]
		switch {
		case len(e.key) == 0 || len(e.key) > MaxKeySize:
			return nil, fmt.Errorf("fstore: key length %d outside [1,%d]", len(e.key), MaxKeySize)
		case strings.IndexByte(e.key, 0) >= 0:
			return nil, fmt.Errorf("fstore: key %q contains NUL (keys are NUL-padded on disk)", e.key)
		case e.size < 0:
			return nil, fmt.Errorf("fstore: key %q declares a negative value size %d", e.key, e.size)
		}
		keySize = max(keySize, len(e.key))
		sorted = sorted && (i == 0 || entries[i-1].key < e.key)
		if e.render != nil {
			e.count, e.dataLen = 1, valueLen(e.size)
		} else {
			e.count, e.dataLen = 0, 0
			e.each(measure)
		}
		if dataSize += e.dataLen; dataSize > maxSnapshotBytes {
			break // refused below; stops the sum short of overflow
		}
	}
	slotSize := keySize + slotExtra
	dataStart := headerSize + len(entries)*slotSize
	total := dataStart + dataSize
	if total > maxSnapshotBytes {
		return nil, fmt.Errorf("fstore: snapshot would be above %d bytes, the 4 GiB format limit — shard into more snapshots", maxSnapshotBytes)
	}
	if !sorted {
		sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
		for i := 1; i < len(entries); i++ {
			if entries[i].key == entries[i-1].key {
				return nil, fmt.Errorf("fstore: duplicate key %q", entries[i].key)
			}
		}
	}

	img := make([]byte, total)
	var w []byte // the entry being filled: a window capped at its measured end
	n, end := 0, dataStart
	put := func(v string) {
		w = append(binary.AppendUvarint(w, uint64(len(v))), v...)
		n++
	}
	for i := range entries {
		e = &entries[i]
		off := end
		end += e.dataLen
		w, n = img[:off:end], 0
		if e.render != nil {
			w, n = e.render(binary.AppendUvarint(w, uint64(e.size))), 1
		} else {
			e.each(put)
		}
		// What outgrew the window was reallocated and left the image.
		if n != e.count || len(w) != end || &w[0] != &img[0] {
			return nil, fmt.Errorf("fstore: key %q did not fill the %d-byte window measured for its %d values", e.key, e.dataLen, e.count)
		}
		s := img[headerSize+i*slotSize:]
		copy(s[:keySize], e.key) // remainder stays NUL
		binary.LittleEndian.PutUint64(s[keySize:], uint64(e.rev))
		binary.LittleEndian.PutUint32(s[keySize+8:], uint32(off-dataStart))
		binary.LittleEndian.PutUint32(s[keySize+12:], uint32(e.dataLen))
		binary.LittleEndian.PutUint32(s[keySize+16:], uint32(e.count))
	}

	copy(img[0:4], Magic)
	binary.LittleEndian.PutUint32(img[4:], Version)
	binary.LittleEndian.PutUint32(img[8:], uint32(keySize))
	binary.LittleEndian.PutUint32(img[12:], uint32(len(entries)))
	binary.LittleEndian.PutUint32(img[16:], uint32(dataSize))
	binary.LittleEndian.PutUint32(img[20:], crc32.ChecksumIEEE(img[headerSize:dataStart]))
	binary.LittleEndian.PutUint32(img[24:], crc32.ChecksumIEEE(img[dataStart:]))
	binary.LittleEndian.PutUint32(img[44:], crc32.ChecksumIEEE(img[0:44]))
	return img, nil
}
