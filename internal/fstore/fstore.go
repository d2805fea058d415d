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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
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

// Grow makes room for n more entries, so that adding them does not grow
// the builder's list as it goes.
func (b *Builder) Grow(n int) { b.entries = slices.Grow(b.entries, n) }

// AddSeq appends one entry whose values are enumerated, not held in a
// slice: seq.Each calls yield once per value, in order (dfs wraps a chunk
// in a type with the method, so it needs no closure per chunk). The write
// runs it three times — to measure and checksum, to write, to compare the
// file with —, and it must yield the same values each time.
func (b *Builder) AddSeq(key string, revision int64, seq interface{ Each(yield func(string)) }) {
	b.entries = append(b.entries, entry{key: key, rev: revision, seq: seq})
}

// WriteSnapshot is the cache write: atomic (temp file in the same
// directory, then rename, so readers never observe a partial snapshot)
// and verified, but not fsynced — for snapshots nobody reads after a
// crash without checksumming them and rebuilding from the source of
// truth. It returns the snapshot at path, served from the mapping (or,
// under opts.NoMmap, the buffer) it was verified through, so the caller
// does not open what it just wrote; the caller closes it.
func (b *Builder) WriteSnapshot(path string, opts Options) (*Snapshot, error) {
	return b.write(vfs.OS{}, path, false, opts)
}

// WriteFile is WriteSnapshot for a caller that does not serve the
// snapshot: it closes what it gets back.
func (b *Builder) WriteFile(path string) error {
	return closed(b.WriteSnapshot(path, Options{}))
}

// WriteFileFS is the durable write: the cache write plus an fsync before
// the temp file is closed and verified, through an explicit filesystem —
// the seam the durability layer threads fault injection through. Nobody
// serves a durable snapshot until recovery opens it, so WriteFileFS closes
// the snapshot it verified.
func (b *Builder) WriteFileFS(fs vfs.FS, path string) error {
	return closed(b.write(fs, path, true, Options{}))
}

// closed closes a snapshot that was written only to be kept on disk.
func closed(s *Snapshot, err error) error {
	if err != nil {
		return err
	}
	return s.Close()
}

// write is plan → emit → (fsync) → close → map, compare, validate →
// rename → serve. The plan fixes the header before a byte is written; the
// snapshot streams into the temp file through one reused window; once the
// file is closed, the one mapping the snapshot will be served from is held
// to the plan — header, slots and every value compared in place, byte for
// byte and in length — and passes Open's validation before the rename
// commits it. A write that lied about success (a short write acknowledged
// in full shifts all that follows) is caught while the last snapshot at
// path is intact, and no file-sized buffer ever exists other than the
// NoMmap fallback's image, which such a snapshot serves from.
func (b *Builder) write(fs vfs.FS, path string, sync bool, opts Options) (*Snapshot, error) {
	bw := spare.Swap(nil)
	if bw == nil {
		bw = bufio.NewWriterSize(nil, window)
	}
	defer func() {
		bw.Reset(nil) // holds no file for the next write
		spare.Store(bw)
	}()
	l, err := b.plan(bw)
	if err != nil {
		return nil, err
	}
	var s *Snapshot
	err = vfs.WriteFileAtomic(fs, path, ".fstore-*", sync, l.emit, func(tmp string) (err error) {
		s, err = open(tmp, path, opts, l.compare)
		return err
	})
	if err != nil && s != nil {
		s.Close() // verified, but the rename failed
		s = nil
	}
	return s, err
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

// spare is the window of the last write to finish, kept for the next: a
// write takes it for its plan and emit passes, or makes its own while
// another write holds it. Unlike a sync.Pool it survives collections and
// is never dropped at random (as the race detector's pool does), so a
// write's allocations are the same constant every time.
var spare atomic.Pointer[bufio.Writer]

// layout is a planned snapshot: the entries in slot order, each measured,
// the finished header, the file's size, and the window the slot checksum
// and the file stream through.
type layout struct {
	entries []entry
	keySize int
	size    int
	header  [headerSize]byte
	bw      *bufio.Writer
}

// plan sorts the entries if needed — the data section and its checksum
// follow slot order —, checks and measures each, folding the data checksum
// into that same walk, and derives the slot checksum by emitting the slot
// section through bw into a hash.
func (b *Builder) plan(bw *bufio.Writer) (*layout, error) {
	entries := b.entries // sorted in place; entries that arrive in key order cost one pass
	slices.SortFunc(entries, func(x, y entry) int { return strings.Compare(x.key, y.key) })
	// Empty snapshots still declare a valid key width.
	l := &layout{entries: entries, keySize: 1, bw: bw}
	var e *entry
	dataSize, dataCRC := 0, uint32(0)
	tab := crc32.IEEETable
	measure := func(v string) {
		e.count++
		e.dataLen += valueLen(len(v))
		// The length prefix goes into the checksum byte by byte, as
		// crc32.Update would take it, the value in one call after it.
		c := ^dataCRC
		for x := uint64(len(v)); ; x >>= 7 {
			if x < 0x80 {
				c = tab[byte(c)^byte(x)] ^ c>>8
				break
			}
			c = tab[byte(c)^(byte(x)|0x80)] ^ c>>8
		}
		dataCRC = crc32.Update(^c, tab, unsafe.Slice(unsafe.StringData(v), len(v))) // read in place
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
	if l.size = headerSize + len(entries)*(l.keySize+slotExtra) + dataSize; l.size > maxSnapshotBytes {
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
		if err := e.yielded(n, size); err != nil {
			return err
		}
	}
	return l.bw.Flush()
}

// yielded checks that a pass over e yielded n values in size bytes, as
// measured: a sequence that changes between passes is the caller's
// error, not the file's.
func (e *entry) yielded(n, size int) error {
	if n != e.count || size != e.dataLen {
		return fmt.Errorf("fstore: key %q yielded %d values in %d bytes, measured %d in %d", e.key, n, size, e.count, e.dataLen)
	}
	return nil
}

// compare holds the bytes of the written file to the plan in place: its
// length, then header and slots as the emitter sends them, then each
// entry's values, enumerated once more, against the data section. An
// entry whose sequence yields other counts than it was measured with
// fails as emit fails; any other difference is the file's, ErrCorrupt.
func (l *layout) compare(d []byte) error {
	if len(d) != l.size {
		return corruptf("write verification failed: the file is %d bytes, planned %d (torn, short or lying write)", len(d), l.size)
	}
	rest := inPlace(d)
	l.bw.Reset(&rest)
	l.bw.Write(l.header[:])
	l.emitSlots()
	if l.bw.Flush() != nil {
		return corruptf("write verification failed: the header or the slots depart from the plan")
	}
	var n, size int
	same := true
	check := func(v string) {
		n++
		size += valueLen(len(v))
		var prefix [binary.MaxVarintLen64]byte
		same = same && rest.next(binary.AppendUvarint(prefix[:0], uint64(len(v)))) && rest.next(unsafe.Slice(unsafe.StringData(v), len(v)))
	}
	for i := range l.entries {
		e := &l.entries[i]
		n, size = 0, 0
		e.each(check)
		if err := e.yielded(n, size); err != nil {
			return err
		}
		if !same {
			return corruptf("write verification failed: the values of key %q depart from the file %d bytes before its end (torn, short or lying write)", e.key, len(rest))
		}
	}
	return nil
}

// inPlace is the part of a written file that compare has not reached yet.
type inPlace []byte

// next reports whether the file continues with p, and moves past it if so.
func (f *inPlace) next(p []byte) bool {
	if len(p) > len(*f) || string((*f)[:len(p)]) != string(p) {
		return false
	}
	*f = (*f)[len(p):]
	return true
}

// Write is next for the emitter's window.
func (f *inPlace) Write(p []byte) (int, error) {
	if !f.next(p) {
		return 0, ErrCorrupt
	}
	return len(p), nil
}
