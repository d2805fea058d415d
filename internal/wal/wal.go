// Package wal is an append-only write-ahead journal in the FMC1 spirit:
// uvarint-framed, CRC32-checksummed records in numbered segment files,
// with atomic segment repair via temp+rename. The job service journals
// every scheduling decision through it; recovery replays the segments,
// tolerating exactly the damage a crash can cause (a torn tail on the
// final segment) and rejecting everything else as corruption.
//
// Frame layout (all integers little-endian where fixed-width):
//
//	uvarint  payload length L
//	L bytes  payload (opaque to this package)
//	4 bytes  CRC32 (IEEE) of the payload
//
// Segment files are named seg-000001.wal, seg-000002.wal, ... and are
// strictly append-only: a Log opened over an existing directory starts a
// fresh segment rather than appending to the old ones, so a previously
// torn tail can be repaired (truncated to its valid prefix) without ever
// rewriting bytes a prior process considered durable.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"efind/internal/vfs"
)

// ErrCorrupt marks journal damage a crash cannot explain: a bad frame
// in the middle of a segment, or in any segment other than the last.
var ErrCorrupt = errors.New("wal: journal corrupt")

// segPrefix and segSuffix frame the segment file names.
const (
	segPrefix = "seg-"
	segSuffix = ".wal"
)

// maxRecordBytes bounds one record's payload; larger frames are treated
// as corruption rather than allocated.
const maxRecordBytes = 16 << 20

// segName renders the file name of segment n.
func segName(n int) string { return fmt.Sprintf("%s%06d%s", segPrefix, n, segSuffix) }

// segNumber parses a segment file name, returning -1 for other files.
func segNumber(name string) int {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return -1
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	n := 0
	for i := 0; i < len(mid); i++ {
		if mid[i] < '0' || mid[i] > '9' {
			return -1
		}
		n = n*10 + int(mid[i]-'0')
	}
	if len(mid) == 0 {
		return -1
	}
	return n
}

// Segments lists the directory's segment file names in segment order. A
// missing directory is an empty journal: none, and no error.
func Segments(fs vfs.FS, dir string) ([]string, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []string
	for _, n := range names {
		if segNumber(n) >= 0 {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segNumber(segs[i]) < segNumber(segs[j]) })
	return segs, nil
}

// Record is one replayed journal record.
type Record struct {
	// Segment is the segment file the record was read from.
	Segment string
	// Payload is the record body, exactly as appended.
	Payload []byte
}

// AppendFrame appends one framed record to buf and returns the extended
// buffer. Exposed so tests and fuzz corpora can build segment images.
func AppendFrame(buf, payload []byte) []byte {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	buf = append(buf, lenBuf[:n]...)
	buf = append(buf, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	return append(buf, crc[:]...)
}

// decodeSegment splits one segment's bytes into record payloads. It
// returns the payloads decoded before the first damaged frame, the byte
// offset where decoding stopped, and whether trailing damage exists
// (torn == true when consumed < len(data)).
func decodeSegment(data []byte) (payloads [][]byte, consumed int, torn bool) {
	off := 0
	for off < len(data) {
		l, n := binary.Uvarint(data[off:])
		if n <= 0 || l > maxRecordBytes {
			return payloads, off, true
		}
		end := off + n + int(l) + 4
		if end > len(data) {
			return payloads, off, true
		}
		payload := data[off+n : off+n+int(l)]
		want := binary.LittleEndian.Uint32(data[off+n+int(l) : end])
		if crc32.ChecksumIEEE(payload) != want {
			return payloads, off, true
		}
		payloads = append(payloads, payload)
		off = end
	}
	return payloads, off, false
}

// Replay reads every record in the journal directory, in order. A torn
// tail — trailing bytes that do not decode as complete, checksummed
// frames — is tolerated only on the final segment (that is the one
// damage profile a crash mid-append can produce) and reported via torn;
// the same damage on an earlier segment returns ErrCorrupt.
func Replay(fs vfs.FS, dir string) (recs []Record, torn bool, err error) {
	segs, err := Segments(fs, dir)
	if err != nil {
		return nil, false, err
	}
	for i, name := range segs {
		data, err := fs.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, false, err
		}
		payloads, consumed, damaged := decodeSegment(data)
		if damaged && i != len(segs)-1 {
			return nil, false, fmt.Errorf("%w: segment %s has %d damaged trailing bytes but is not the final segment",
				ErrCorrupt, name, len(data)-consumed)
		}
		for _, p := range payloads {
			recs = append(recs, Record{Segment: name, Payload: p})
		}
		torn = damaged
	}
	return recs, torn, nil
}

// writeFile replaces path with data, atomically.
func writeFile(fs vfs.FS, path string, data []byte, sync bool) error {
	fill := func(w io.Writer) error { _, err := w.Write(data); return err }
	return vfs.WriteFileAtomic(fs, path, ".vfs-*", sync, fill, nil)
}

// Repair truncates a torn final segment to its valid frame prefix, via
// temp+rename so the repair itself is crash-atomic. Undamaged journals
// are left untouched. It returns the number of bytes discarded.
func Repair(fs vfs.FS, dir string) (discarded int, err error) {
	segs, err := Segments(fs, dir)
	if err != nil || len(segs) == 0 {
		return 0, err
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	data, err := fs.ReadFile(last)
	if err != nil {
		return 0, err
	}
	_, consumed, damaged := decodeSegment(data)
	if !damaged {
		return 0, nil
	}
	if err := writeFile(fs, last, data[:consumed], true); err != nil {
		return 0, err
	}
	return len(data) - consumed, nil
}

// Log is an open journal: one append-only segment file receiving framed
// records. Not safe for concurrent use; the job service appends only
// from its scheduler loop.
type Log struct {
	f     vfs.File
	sync  bool
	err   error  // sticky first append failure
	n     int    // records appended to this Log
	frame []byte // the last frame written, reused for the next
}

// Open creates the journal directory if needed and starts a fresh
// segment after any existing ones. Existing segments are never appended
// to — Replay sees old and new segments as one stream.
func Open(fs vfs.FS, dir string, sync bool) (*Log, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	segs, err := Segments(fs, dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(segs) > 0 {
		next = segNumber(segs[len(segs)-1]) + 1
	}
	f, err := fs.OpenAppend(filepath.Join(dir, segName(next)))
	if err != nil {
		return nil, err
	}
	return &Log{f: f, sync: sync}, nil
}

// Records returns how many records this Log has appended successfully.
func (l *Log) Records() int { return l.n }

// Err returns the sticky error of the first failed append, or nil.
func (l *Log) Err() error { return l.err }

// Append writes one framed record; on a synced log it — and every record
// before it — is durable on return. The first failure is sticky: later appends
// return it without touching the file, so no record ever follows a hole.
func (l *Log) Append(payload []byte) error { return l.append(payload, l.sync) }

// AppendLazy writes one framed record that may wait for the next Append or
// Close to sync the segment: one fsync covers every earlier write to it, so
// what is durable is always a prefix of what was appended.
func (l *Log) AppendLazy(payload []byte) error { return l.append(payload, false) }

func (l *Log) append(payload []byte, sync bool) error {
	if l.err != nil {
		return l.err
	}
	l.frame = AppendFrame(l.frame[:0], payload)
	if _, err := l.f.Write(l.frame); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return l.err
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: sync: %w", err)
			return l.err
		}
	}
	l.n++
	return nil
}

// Close flushes and closes the current segment.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CrashImage copies the journal directory src into dst as it would look
// had the process crashed immediately after appending record number
// keepRecords (counting from 1 over the Replay order): later records
// vanish, and tornExtra bytes — typically a partial frame — are
// appended to the truncation point to model a write torn mid-frame.
// Non-segment files (checkpoints) are copied verbatim: they were
// written atomically, so at any crash point they exist fully or not at
// all, and replay ignores checkpoints the kept records never name.
func CrashImage(fs vfs.FS, src, dst string, keepRecords int, tornExtra []byte) error {
	if err := fs.MkdirAll(dst); err != nil {
		return err
	}
	names, err := fs.ReadDir(src)
	if err != nil {
		return err
	}
	kept := 0
	wroteTorn := false
	for _, name := range names {
		out, err := fs.ReadFile(filepath.Join(src, name)) // not a segment: copied verbatim
		if err != nil {
			return err
		}
		if segNumber(name) >= 0 {
			if kept >= keepRecords && wroteTorn {
				continue // the whole segment is beyond the crash point
			}
			payloads, _, _ := decodeSegment(out)
			out = nil // a segment keeps its frames up to the cut
			for _, p := range payloads {
				if kept >= keepRecords {
					break
				}
				out = AppendFrame(out, p)
				kept++
			}
			if kept >= keepRecords { // a cut at record zero still tears the very first segment
				out = append(out, tornExtra...)
				wroteTorn = true
			}
		}
		if err := writeFile(fs, filepath.Join(dst, name), out, false); err != nil {
			return err
		}
	}
	if kept < keepRecords {
		return fmt.Errorf("wal: crash image wants %d records but %s only holds %d", keepRecords, src, kept)
	}
	return nil
}

// CountRecords returns the journal's total record count (a crash-sweep
// helper).
func CountRecords(fs vfs.FS, dir string) (int, error) {
	recs, _, err := Replay(fs, dir)
	return len(recs), err
}
