package wal_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"efind/internal/vfs"
	"efind/internal/wal"
)

// FuzzWALReplay feeds arbitrary bytes in as the final journal segment.
// Whatever the damage, Replay must not panic and must never report an
// error (a final-segment tail is by definition crash-explainable); the
// records it does return must survive a re-encode/re-decode round trip;
// and after Repair the journal must replay clean with the same records.
func FuzzWALReplay(f *testing.F) {
	var clean []byte
	clean = wal.AppendFrame(clean, []byte("seed-record"))
	clean = wal.AppendFrame(clean, nil)
	f.Add(clean)
	f.Add(clean[:len(clean)-2])                       // torn mid-CRC
	f.Add([]byte{})                                   // empty segment
	f.Add([]byte{0x03, 'a', 'b'})                     // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge length prefix
	f.Add(append(append([]byte{}, clean...), 0x01, 'x', 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := vfs.OS{}
		dir := filepath.Join(t.TempDir(), "wal")
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		// A known-good first segment, then the fuzzed final segment: any
		// tail damage lands where Replay must tolerate it.
		var first []byte
		first = wal.AppendFrame(first, []byte("segment-one"))
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.wal"), first, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-000002.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}

		recs, torn, err := wal.Replay(fs, dir)
		if err != nil {
			t.Fatalf("Replay must tolerate any final-segment bytes, got %v", err)
		}
		if len(recs) < 1 || !bytes.Equal(recs[0].Payload, []byte("segment-one")) {
			t.Fatalf("the intact first segment's record vanished: %v", recs)
		}

		// Re-encode/re-decode idempotence of whatever decoded.
		var re []byte
		for _, r := range recs[1:] {
			re = wal.AppendFrame(re, r.Payload)
		}
		redir := filepath.Join(t.TempDir(), "re")
		if err := fs.MkdirAll(redir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(redir, "seg-000001.wal"), re, 0o644); err != nil {
			t.Fatal(err)
		}
		recs2, torn2, err := wal.Replay(fs, redir)
		if err != nil || torn2 {
			t.Fatalf("re-encoded journal replay = torn=%v err=%v", torn2, err)
		}
		if len(recs2) != len(recs)-1 {
			t.Fatalf("re-encode lost records: %d vs %d", len(recs2), len(recs)-1)
		}
		for i, r := range recs2 {
			if !bytes.Equal(r.Payload, recs[i+1].Payload) {
				t.Fatalf("record %d changed across re-encode", i)
			}
		}

		// Repair must leave a clean journal with the same record stream.
		if _, err := wal.Repair(fs, dir); err != nil {
			t.Fatalf("Repair: %v", err)
		}
		recs3, torn3, err := wal.Replay(fs, dir)
		if err != nil || torn3 {
			t.Fatalf("post-Repair replay = torn=%v err=%v", torn3, err)
		}
		if len(recs3) != len(recs) {
			t.Fatalf("Repair changed the record count: %d vs %d", len(recs3), len(recs))
		}
		_ = torn
	})
}
