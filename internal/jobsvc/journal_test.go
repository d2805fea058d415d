package jobsvc

import (
	"bytes"
	"errors"
	"testing"

	"efind/internal/core"
)

// TestDecodersRejectOversizedCountsAndTruncation feeds the checkpoint and
// journal decoders values a CRC cannot vouch for: element counts far above
// what the payload can hold, and every strict prefix of a valid encoding.
// Each must come back as an error — Recover skips a bad checkpoint and
// falls back, which a makeslice panic would turn into a crash.
func TestDecodersRejectOversizedCountsAndTruncation(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^63-1
	with := func(prefix []byte, tail ...byte) []byte {
		return append(append(append([]byte(nil), prefix...), huge...), tail...)
	}

	var ledger walCodec
	(&slotLedger{perNode: 2, freeAt: []float64{0.5, 1.25, 3}}).fields(&ledger)
	table := []string{"a", "x", "y", "b", "z"}
	pool := []byte{2, 'i', 'x', 3, 4, 5, 2, 0, 2, 3, 1} // index, node, hits, misses, two entries: 2 values at 0, 1 at 3
	done := (&svcRec{kind: recDone, subIdx: 7, regFP: 99, st: JobStatus{
		State: JobCompleted, Tenant: "t", Name: "n", ID: "t/n#1",
		Result: &core.JobResult{VTime: 1, Counters: map[string]int64{"c": 1}, IndexErrors: map[string]int64{"e": 2}},
	}}).encode(nil)

	decoders := map[string]func([]byte) error{
		"ledger": func(b []byte) error { c := &walCodec{b: b, dec: true}; (&slotLedger{}).fields(c); return c.err },
		"pool":   func(b []byte) error { c := &walCodec{b: b, dec: true}; decodePool(c, table); return c.err },
		"rec":    func(b []byte) error { _, err := decodeRec(b); return err },
	}
	valid := map[string][]byte{"ledger": ledger.b, "pool": pool, "rec": done}
	for name, b := range valid {
		if err := decoders[name](b); err != nil {
			t.Fatalf("%s: valid encoding rejected: %v", name, err)
		}
	}

	// The counters map is the last-but-one field of a done record: cut the
	// valid record just before its count and splice the oversized one in.
	var tail walCodec
	counters, indexErrors := map[string]int64{"c": 1}, map[string]int64{"e": 2}
	tail.cmap(&counters)
	tail.cmap(&indexErrors)
	cases := []struct {
		name, dec string
		in        []byte
	}{
		{"ledger slot count", "ledger", with([]byte{1})},
		{"ledger slot count with tail", "ledger", with([]byte{1}, 0, 0, 0)},
		{"pool entry count", "pool", with(pool[:len("ix")+1+3])},
		{"pool row starts outside the table", "pool", append(pool[:len("ix")+1+3:len("ix")+1+3], 1, 5, 0)},
		{"pool row ends outside the table", "pool", append(pool[:len("ix")+1+3:len("ix")+1+3], 1, 3, 2)},
		{"done record counter count", "rec", with(done[:len(done)-len(tail.b)], 1, 'c', 1)},
	}
	for name, b := range valid {
		for cut := 0; cut < len(b); cut++ {
			cases = append(cases, struct {
				name, dec string
				in        []byte
			}{name + " truncated", name, b[:cut]})
		}
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s (% x): decoder panicked: %v", tc.name, tc.in, r)
				}
			}()
			if err := decoders[tc.dec](tc.in); err == nil {
				t.Errorf("%s (% x): decoded without error", tc.name, tc.in)
			}
		}()
	}
}

// FuzzJournalRecord drives the record schema in both directions: decodeRec
// never panics on arbitrary bytes, and a payload that decodes re-encodes
// to bytes that decode to the same record. The records are compared
// through a second encode: a payload may carry non-minimal varints, keys
// out of order or trailing bytes that no decoded field keeps.
func FuzzJournalRecord(f *testing.F) {
	for _, r := range []svcRec{
		{kind: recHello, n: journalVersion, hash: 0xfeed},
		{kind: recTrace, hash: 0xbeef, n: 3},
		{kind: recAdmit, subIdx: 1, seq: 2, id: "t/n#2", at: 0.5, seed: -7},
		{kind: recReject, subIdx: 2, reason: "queue full"},
		{kind: recGrant, subIdx: 1, taskKind: 1, want: 4, at: 0.5, start: 0.75},
		{kind: recEnd, subIdx: 1, taskKind: 1, start: 0.75, end: 2},
		{kind: recDone, subIdx: 1, regFP: 99, st: JobStatus{
			State: JobFailed, Tenant: "t", Name: "n", ID: "t/n#2", Submitted: 0.25, Admitted: 0.5, Finished: 2,
			ServeSeconds: 1.5, OutputFP: 5, Err: errors.New("boom"),
			Result: &core.JobResult{VTime: 1.5, JobsRun: 2, Replanned: true, ReplanPhase: "map",
				Counters: map[string]int64{"a": 1, "b": -2}, IndexErrors: map[string]int64{"kv": 3}},
		}},
		{kind: recCkpt, file: "ckpt-000001.fst", n: 4},
	} {
		f.Add(r.encode(nil))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRec(payload)
		if err != nil {
			return
		}
		once := r.encode(nil)
		again, err := decodeRec(once)
		if err != nil {
			t.Fatalf("% x decodes, its re-encoding % x does not: %v", payload, once, err)
		}
		if twice := again.encode(nil); !bytes.Equal(once, twice) {
			t.Fatalf("% x re-encodes to % x, which re-encodes to % x", payload, once, twice)
		}
	})
}
