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
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"slices"
	"strings"
	"unsafe"

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
// checked before the write: value slices and sequences are read during it
// and must stay unchanged until it returns, and a bad entry — keys must
// be unique, NUL-free and of 1 to MaxKeySize bytes — fails the write, so
// loading loops need no per-call handling.
type Builder struct{ entries []entry }

// entry is one slot in the making. Its values come from values (Add) or
// seq (AddSeq).
type entry struct {
	key    string
	rev    int64
	values []string
	seq    interface{ Each(yield func(string)) }

	count, dataLen int // value count and data-section bytes, measured by plan
}

// NewBuilder returns an empty builder. The slot key width is derived
// from the longest key added.
func NewBuilder() *Builder { return &Builder{} }

// Add appends one entry holding the given values.
func (b *Builder) Add(key string, revision int64, values ...string) {
	b.entries = append(b.entries, entry{key: key, rev: revision, values: values})
}

// AddSeq appends one entry whose values are enumerated, not held in a
// slice: seq.Each calls yield once per value, in order (dfs wraps a chunk
// in a type with the method, so it needs no closure per chunk). The write
// runs it three times — to measure and checksum, to write, to compare the
// file with —, and it must yield the same values each time.
func (b *Builder) AddSeq(key string, revision int64, seq interface{ Each(yield func(string)) }) {
	b.entries = append(b.entries, entry{key: key, rev: revision, seq: seq})
}

// WriteFile is the cache write: atomic (temp file in the same directory,
// then rename, so readers never observe a partial snapshot) and verified,
// but not fsynced — for snapshots nobody reads after a crash without
// checksumming them and rebuilding from the source of truth.
func (b *Builder) WriteFile(path string) error { return b.write(vfs.OS{}, path, false) }

// WriteFileFS is the durable write: WriteFile plus an fsync before the
// rename, through an explicit filesystem — the seam the durability layer
// threads fault injection through.
func (b *Builder) WriteFileFS(fs vfs.FS, path string) error { return b.write(fs, path, true) }

// write plans the snapshot, so its header is known before a byte is
// written, then emits it twice through one window: into the temp file
// and, once that is closed, against the temp file read back — every byte
// and the length, before the rename commits it. A write that lied about
// success (a short write acknowledged in full shifts all that follows) is
// caught while the last snapshot at path is intact, and no file-sized
// buffer ever exists.
func (b *Builder) write(fs vfs.FS, path string, sync bool) error {
	l, err := b.plan()
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(fs, path, ".fstore-*", sync, l.emit, l.verify)
}

// valueLen is the data-section size of an n-byte value: uvarint length, bytes.
func valueLen(n int) int { return (bits.Len64(uint64(n)|1)+6)/7 + n }

// each yields the values of an entry.
func (e *entry) each(yield func(string)) {
	if e.seq != nil {
		e.seq.Each(yield)
		return
	}
	for _, v := range e.values {
		yield(v)
	}
}

// window is the size of the one buffer a snapshot streams through.
const window = 128 << 10

// layout is a planned snapshot: the entries in slot order, each measured,
// the finished header, and the window every pass goes through.
type layout struct {
	entries []entry
	keySize int
	header  [headerSize]byte
	bw      *bufio.Writer
}

// plan sorts the entries if needed — the data section and its checksum
// follow slot order —, checks and measures each, folding the data checksum
// into that same walk, and derives the slot checksum by emitting the slot
// section into a hash.
func (b *Builder) plan() (*layout, error) {
	entries := b.entries // sorted in place; entries that arrive in key order cost one pass
	slices.SortFunc(entries, func(x, y entry) int { return strings.Compare(x.key, y.key) })
	// Empty snapshots still declare a valid key width.
	l := &layout{entries: entries, keySize: 1, bw: bufio.NewWriterSize(nil, window)}
	var e *entry
	dataSize, dataCRC := 0, uint32(0)
	var prefix [binary.MaxVarintLen64]byte
	measure := func(v string) {
		e.count++
		e.dataLen += valueLen(len(v))
		dataCRC = crc32.Update(dataCRC, crc32.IEEETable, binary.AppendUvarint(prefix[:0], uint64(len(v))))
		dataCRC = crc32.Update(dataCRC, crc32.IEEETable, unsafe.Slice(unsafe.StringData(v), len(v))) // read in place
	}
	for i := range entries {
		e = &entries[i]
		switch {
		case len(e.key) == 0 || len(e.key) > MaxKeySize:
			return nil, fmt.Errorf("fstore: key length %d outside [1,%d]", len(e.key), MaxKeySize)
		case strings.IndexByte(e.key, 0) >= 0:
			return nil, fmt.Errorf("fstore: key %q contains NUL (keys are NUL-padded on disk)", e.key)
		case i > 0 && entries[i-1].key == e.key:
			return nil, fmt.Errorf("fstore: duplicate key %q", e.key)
		}
		l.keySize = max(l.keySize, len(e.key))
		e.count, e.dataLen = 0, 0
		e.each(measure)
		if dataSize += e.dataLen; dataSize > maxSnapshotBytes {
			break // refused below; stops the sum short of overflow
		}
	}
	if headerSize+len(entries)*(l.keySize+slotExtra)+dataSize > maxSnapshotBytes {
		return nil, fmt.Errorf("fstore: snapshot would be above %d bytes, the 4 GiB format limit — shard into more snapshots", maxSnapshotBytes)
	}
	slotCRC := crc32.NewIEEE()
	l.bw.Reset(slotCRC)
	l.emitSlots()
	if err := l.bw.Flush(); err != nil {
		return nil, err
	}
	h := append(l.header[:0], Magic...)
	for _, field := range []uint32{Version, uint32(l.keySize), uint32(len(entries)), uint32(dataSize), slotCRC.Sum32(), dataCRC} {
		h = binary.LittleEndian.AppendUint32(h, field)
	}
	binary.LittleEndian.PutUint32(l.header[44:], crc32.ChecksumIEEE(l.header[:44]))
	return l, nil
}

var zeros [MaxKeySize]byte // pads slot keys to the key width

// emitSlots sends the slot section; errors stick to bw until its Flush.
func (l *layout) emitSlots() {
	off := 0
	for i := range l.entries {
		e := &l.entries[i]
		s := append(append(l.bw.AvailableBuffer(), e.key...), zeros[:l.keySize-len(e.key)]...)
		s = binary.LittleEndian.AppendUint64(s, uint64(e.rev))
		s = binary.LittleEndian.AppendUint32(s, uint32(off))
		s = binary.LittleEndian.AppendUint32(s, uint32(e.dataLen))
		l.bw.Write(binary.LittleEndian.AppendUint32(s, uint32(e.count)))
		off += e.dataLen
	}
}

// emit sends the whole file — header, slots, data — to sink through the
// window (a value larger than the window passes in pieces) and checks per
// entry that exactly the measured values came out.
func (l *layout) emit(sink io.Writer) error {
	l.bw.Reset(sink)
	l.bw.Write(l.header[:])
	l.emitSlots()
	var n, size int
	var err error
	put := func(v string) {
		n++
		size += valueLen(len(v))
		l.bw.Write(binary.AppendUvarint(l.bw.AvailableBuffer(), uint64(len(v))))
		_, err = l.bw.WriteString(v)
	}
	for i := range l.entries {
		e := &l.entries[i]
		n, size = 0, 0
		e.each(put)
		if err != nil {
			return err
		}
		if n != e.count || size != e.dataLen {
			return fmt.Errorf("fstore: key %q yielded %d values in %d bytes, measured %d in %d", e.key, n, size, e.count, e.dataLen)
		}
	}
	return l.bw.Flush()
}

// verify emits the file once more, into a comparison with the temp file.
// Like Open it reads beside the vfs seam, which carries mutations.
func (l *layout) verify(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	c := &comparer{f: f, buf: make([]byte, window)}
	if err := l.emit(c); err != nil {
		return err
	}
	if n, _ := f.Read(c.buf[:1]); n != 0 {
		return corruptf("write verification failed: the file continues past the planned bytes")
	}
	return nil
}

// comparer is the sink of the verification pass: what is written to it
// must be what the file, read through one fixed buffer, holds next.
type comparer struct {
	f   *os.File
	buf []byte
}

func (c *comparer) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; {
		b := c.buf[:min(len(rest), len(c.buf))]
		n, err := io.ReadFull(c.f, b)
		if !bytes.Equal(b[:n], rest[:n]) || err == io.EOF || err == io.ErrUnexpectedEOF {
			end, _ := c.f.Seek(0, io.SeekCurrent)
			return 0, corruptf("write verification failed: the file departs from the planned bytes within the %d bytes before offset %d (torn, short or lying write)", len(b), end)
		}
		if err != nil {
			return 0, err
		}
		rest = rest[n:]
	}
	return len(p), nil
}
