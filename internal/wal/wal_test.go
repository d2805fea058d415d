package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"efind/internal/chaos"
	"efind/internal/vfs"
	"efind/internal/wal"
)

// payloads the tests append: varied lengths, including empty and binary.
func testPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = []byte(fmt.Sprintf("record-%04d", i))
		case 1:
			out[i] = nil // empty payload is legal
		case 2:
			out[i] = bytes.Repeat([]byte{byte(i)}, 1+i%97)
		default:
			out[i] = []byte{0, 0xff, byte(i), '\n'}
		}
	}
	return out
}

func appendAll(t *testing.T, fs vfs.FS, dir string, payloads [][]byte, sync bool) {
	t.Helper()
	l, err := wal.Open(fs, dir, sync)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if l.Records() != len(payloads) {
		t.Fatalf("Records() = %d, want %d", l.Records(), len(payloads))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func checkReplay(t *testing.T, fs vfs.FS, dir string, want [][]byte, wantTorn bool) []wal.Record {
	t.Helper()
	recs, torn, err := wal.Replay(fs, dir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if torn != wantTorn {
		t.Fatalf("Replay torn = %v, want %v", torn, wantTorn)
	}
	if len(recs) != len(want) {
		t.Fatalf("Replay returned %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if !bytes.Equal(r.Payload, want[i]) {
			t.Fatalf("record %d payload = %q, want %q", i, r.Payload, want[i])
		}
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	fs := vfs.OS{}
	dir := filepath.Join(t.TempDir(), "wal")
	want := testPayloads(25)
	appendAll(t, fs, dir, want, true)
	checkReplay(t, fs, dir, want, false)
}

func TestSegmentRotation(t *testing.T) {
	// Each Open starts a fresh segment; Replay stitches them in order
	// and never appends to a prior segment.
	fs := vfs.OS{}
	dir := filepath.Join(t.TempDir(), "wal")
	want := testPayloads(30)
	appendAll(t, fs, dir, want[:10], false)
	appendAll(t, fs, dir, want[10:17], false)
	appendAll(t, fs, dir, want[17:], false)
	checkReplay(t, fs, dir, want, false)

	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("expected 3 segments, found %v", names)
	}
}

func TestTornTailToleratedOnFinalSegment(t *testing.T) {
	fs := vfs.OS{}
	dir := filepath.Join(t.TempDir(), "wal")
	want := testPayloads(8)
	appendAll(t, fs, dir, want, false)

	// Tear the last segment mid-frame.
	segs, _ := fs.ReadDir(dir)
	last := filepath.Join(dir, segs[len(segs)-1])
	data, _ := fs.ReadFile(last)
	torn := append(append([]byte{}, data...), 0x7f, 0x01, 0x02) // length byte + partial payload
	if err := os.WriteFile(last, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	checkReplay(t, fs, dir, want, true)

	// Repair truncates exactly the damage, then replay is clean.
	discarded, err := wal.Repair(fs, dir)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if discarded != 3 {
		t.Fatalf("Repair discarded %d bytes, want 3", discarded)
	}
	checkReplay(t, fs, dir, want, false)

	// Repair on a clean journal is a no-op.
	if d, err := wal.Repair(fs, dir); err != nil || d != 0 {
		t.Fatalf("second Repair = (%d, %v), want (0, nil)", d, err)
	}
}

func TestDamageMidStreamIsCorruption(t *testing.T) {
	fs := vfs.OS{}
	dir := filepath.Join(t.TempDir(), "wal")
	want := testPayloads(6)
	appendAll(t, fs, dir, want[:3], false)
	appendAll(t, fs, dir, want[3:], false)

	// Damage the FIRST segment: a crash cannot produce that, so replay
	// must refuse rather than silently drop records.
	segs, _ := fs.ReadDir(dir)
	first := filepath.Join(dir, segs[0])
	data, _ := fs.ReadFile(first)
	data[len(data)-1] ^= 0xff // flip a CRC byte
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := wal.Replay(fs, dir)
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Replay error = %v, want ErrCorrupt", err)
	}
}

func TestCrashImageSweep(t *testing.T) {
	// Every prefix of the record stream must be reconstructible as a
	// crash image, with and without a torn partial frame at the cut.
	fs := vfs.OS{}
	root := t.TempDir()
	src := filepath.Join(root, "src")
	want := testPayloads(12)
	appendAll(t, fs, src, want[:5], false)
	appendAll(t, fs, src, want[5:], false)
	// A non-segment file (checkpoint stand-in) must copy verbatim.
	if err := os.WriteFile(filepath.Join(src, "ckpt-000001.fst"), []byte("snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	for k := 0; k <= len(want); k++ {
		for _, tornExtra := range [][]byte{nil, {0x09, 'p', 'a', 'r'}} {
			dst := filepath.Join(root, fmt.Sprintf("crash-%d-%v", k, tornExtra != nil))
			if err := wal.CrashImage(fs, src, dst, k, tornExtra); err != nil {
				t.Fatalf("CrashImage(k=%d): %v", k, err)
			}
			checkReplay(t, fs, dst, want[:k], tornExtra != nil)
			got, err := fs.ReadFile(filepath.Join(dst, "ckpt-000001.fst"))
			if err != nil || string(got) != "snapshot" {
				t.Fatalf("crash image dropped the checkpoint file: %q, %v", got, err)
			}
		}
	}

	// Asking for more records than exist is an explicit error.
	if err := wal.CrashImage(fs, src, filepath.Join(root, "over"), len(want)+1, nil); err == nil {
		t.Fatal("CrashImage beyond the record count should fail")
	}
}

func TestAppendFaultsAreSticky(t *testing.T) {
	base := vfs.OS{}
	dir := filepath.Join(t.TempDir(), "wal")

	// Third write to a segment file tears; the log must stick the error
	// and the journal must replay its pre-fault prefix (plus torn tail).
	ffs := chaos.NewFaultFS(base, chaos.FileFault{Kind: chaos.TornWrite, Match: ".wal", Nth: 3})
	l, err := wal.Open(ffs, dir, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := testPayloads(6)
	var firstErr error
	appended := 0
	for _, p := range want {
		if err := l.Append(p); err != nil {
			firstErr = err
			break
		}
		appended++
	}
	if firstErr == nil || !errors.Is(firstErr, chaos.ErrIO) {
		t.Fatalf("expected injected ErrIO, got %v after %d appends", firstErr, appended)
	}
	if appended != 2 {
		t.Fatalf("fault fired after %d appends, want 2", appended)
	}
	// Sticky: later appends fail without touching the file.
	if err := l.Append([]byte("after")); !errors.Is(err, chaos.ErrIO) {
		t.Fatalf("append after fault = %v, want sticky ErrIO", err)
	}
	if err := l.Err(); !errors.Is(err, chaos.ErrIO) {
		t.Fatalf("Err() = %v, want sticky ErrIO", err)
	}
	l.Close()

	recs, torn, err := wal.Replay(base, dir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !torn {
		t.Fatal("torn write should leave a torn tail")
	}
	if len(recs) != appended {
		t.Fatalf("replayed %d records, want the %d pre-fault ones", len(recs), appended)
	}

	// ENOSPC writes nothing: the journal stays clean.
	dir2 := filepath.Join(t.TempDir(), "wal2")
	ffs2 := chaos.NewFaultFS(base, chaos.FileFault{Kind: chaos.NoSpace, Match: ".wal", Nth: 2})
	l2, err := wal.Open(ffs2, dir2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("doomed")); !errors.Is(err, chaos.ErrNoSpace) {
		t.Fatalf("append = %v, want ErrNoSpace", err)
	}
	l2.Close()
	recs2, torn2, err := wal.Replay(base, dir2)
	if err != nil || torn2 || len(recs2) != 1 {
		t.Fatalf("after ENOSPC: recs=%d torn=%v err=%v, want 1/false/nil", len(recs2), torn2, err)
	}
}

func TestCountRecords(t *testing.T) {
	fs := vfs.OS{}
	dir := filepath.Join(t.TempDir(), "wal")
	appendAll(t, fs, dir, testPayloads(7), false)
	n, err := wal.CountRecords(fs, dir)
	if err != nil || n != 7 {
		t.Fatalf("CountRecords = (%d, %v), want (7, nil)", n, err)
	}
}

func TestOpenOnEmptyDirectory(t *testing.T) {
	fs := vfs.OS{}
	dir := filepath.Join(t.TempDir(), "fresh", "nested")
	recs, torn, err := wal.Replay(fs, dir)
	if err != nil || torn || len(recs) != 0 {
		t.Fatalf("Replay of missing dir = (%d, %v, %v), want empty", len(recs), torn, err)
	}
	appendAll(t, fs, dir, testPayloads(1), true)
	checkReplay(t, fs, dir, testPayloads(1), false)
}
