package jobsvc

import (
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

	ledger := encodeLedger(&slotLedger{perNode: 2, freeAt: []float64{0.5, 1.25, 3}})
	table := []string{"a", "x", "y", "b", "z"}
	pool := []byte{2, 'i', 'x', 3, 4, 5, 2, 0, 2, 3, 1} // index, node, hits, misses, two entries: 2 values at 0, 1 at 3
	var done walEnc
	done.u64(recDone)
	done.u64(7)
	done.u64(99)
	done.b = append(done.b, encodeStatus(&JobStatus{
		State: JobCompleted, Tenant: "t", Name: "n", ID: "t/n#1",
		Result: &core.JobResult{VTime: 1, Counters: map[string]int64{"c": 1}, IndexErrors: map[string]int64{"e": 2}},
	})...)

	decoders := map[string]func([]byte) error{
		"ledger": func(b []byte) error { d := &walDec{b: b}; decodeLedger(d); return d.err },
		"pool":   func(b []byte) error { d := &walDec{b: b}; decodePool(d, table); return d.err },
		"rec":    func(b []byte) error { _, err := decodeRec(b); return err },
	}
	valid := map[string][]byte{"ledger": ledger, "pool": pool, "rec": done.b}
	for name, b := range valid {
		if err := decoders[name](b); err != nil {
			t.Fatalf("%s: valid encoding rejected: %v", name, err)
		}
	}

	// The counters map is the last-but-one field of a done record: cut the
	// valid record just before its count and splice the oversized one in.
	var tail walEnc
	tail.cmap(map[string]int64{"c": 1})
	tail.cmap(map[string]int64{"e": 2})
	cases := []struct {
		name, dec string
		in        []byte
	}{
		{"ledger slot count", "ledger", with([]byte{1})},
		{"ledger slot count with tail", "ledger", with([]byte{1}, 0, 0, 0)},
		{"pool entry count", "pool", with(pool[:len("ix")+1+3])},
		{"pool row starts outside the table", "pool", append(pool[:len("ix")+1+3:len("ix")+1+3], 1, 5, 0)},
		{"pool row ends outside the table", "pool", append(pool[:len("ix")+1+3:len("ix")+1+3], 1, 3, 2)},
		{"done record counter count", "rec", with(done.b[:len(done.b)-len(tail.b)], 1, 'c', 1)},
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
