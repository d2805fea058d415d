package jobsvc

import (
	"bytes"
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"efind/internal/core"
	"efind/internal/fstore"
	"efind/internal/ixclient"
	"efind/internal/lru"
)

// TestDecodersRejectOversizedCountsAndTruncation feeds the checkpoint and
// journal decoders values a CRC cannot vouch for: element counts far above
// what the payload can hold — in each list of the checkpoint state —,
// rows outside the value table, and every strict prefix of a valid
// encoding. Each must come back as an error — Recover skips a bad
// checkpoint and falls back, which a makeslice panic would turn into a
// crash.
func TestDecodersRejectOversizedCountsAndTruncation(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^63-1
	with := func(prefix []byte, tail ...byte) []byte {
		return append(append(append([]byte(nil), prefix...), huge...), tail...)
	}

	full := checkpoint{
		decided: []jobState{{idx: 3, status: JobStatus{State: JobCompleted, Tenant: "t", Name: "n", ID: "t/n#1"}}},
		tenants: []tenant{{cfg: TenantConfig{Name: "t"}, seq: 1, spent: 0.5}},
		ledgers: [2]slotLedger{{perNode: 2, freeAt: []float64{0.5, 1.25}}, {perNode: 1, freeAt: []float64{3}}},
		pool: []ixclient.PoolEntry{{Index: "ix", Node: 3, Snapshot: lru.Snapshot{Hits: 4, Misses: 5,
			Keys: []string{"a", "b"}, Values: [][]string{{"x", "y"}, {"z"}}}}},
		indices: []indexCkpt{{"bix", 6, []int{0, 2}}},
	}
	state, table := full.encode(nil)
	if !slices.Equal(table, []string{"a", "x", "y", "b", "z"}) {
		t.Fatalf("value table %q, want rows a→[x y] at 0 and b→[z] at 3", table)
	}
	// upTo is the state before one of its counts: ck — full up to that
	// count, empty from it on — encoded, less the bytes of the empty
	// fields (a zero count each, a zero shape and count per ledger).
	upTo := func(ck checkpoint, emptyBytes int) []byte {
		b, _ := ck.encode(nil)
		return b[:len(b)-emptyBytes]
	}
	led0, led1 := full.ledgers[0], full.ledgers[1]
	noKeys := []ixclient.PoolEntry{{Index: "ix", Node: 3, Snapshot: lru.Snapshot{Hits: 4, Misses: 5}}}
	poolRows := upTo(checkpoint{decided: full.decided, tenants: full.tenants, ledgers: full.ledgers, pool: noKeys}, 2)
	done := (&svcRec{kind: recDone, subIdx: 7, regFP: 99, st: JobStatus{
		State: JobCompleted, Tenant: "t", Name: "n", ID: "t/n#1",
		Result: &core.JobResult{VTime: 1, Counters: map[string]int64{"c": 1}, IndexErrors: map[string]int64{"e": 2}},
	}}).encode(nil)

	decoders := map[string]func([]byte) error{
		"state": func(b []byte) error { _, err := decodeState(b, table); return err },
		"rec":   func(b []byte) error { _, err := decodeRec(b); return err },
	}
	valid := map[string][]byte{"state": state, "rec": done}
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
		{"decided count", "state", with(nil)},
		{"tenant count", "state", with(upTo(checkpoint{decided: full.decided}, 7))},
		{"map ledger slot count", "state", with(upTo(checkpoint{decided: full.decided, tenants: full.tenants,
			ledgers: [2]slotLedger{{perNode: led0.perNode}}}, 5), 0, 0, 0)},
		{"reduce ledger slot count", "state", with(upTo(checkpoint{decided: full.decided, tenants: full.tenants,
			ledgers: [2]slotLedger{led0, {perNode: led1.perNode}}}, 3), 0, 0)},
		{"cache count", "state", with(upTo(checkpoint{decided: full.decided, tenants: full.tenants, ledgers: full.ledgers}, 2), 0)},
		{"cache entry count", "state", with(poolRows, 0)},
		{"cache row starts outside the table", "state", append(poolRows, 1, 5, 0, 0)},
		{"cache row ends outside the table", "state", append(poolRows, 1, 3, 2, 0)},
		{"index count", "state", with(upTo(checkpoint{decided: full.decided, tenants: full.tenants, ledgers: full.ledgers, pool: full.pool}, 1))},
		{"split count", "state", with(upTo(checkpoint{decided: full.decided, tenants: full.tenants, ledgers: full.ledgers, pool: full.pool,
			indices: []indexCkpt{{name: "bix", total: 6}}}, 1))},
		{"split outside the index", "state", append(upTo(checkpoint{decided: full.decided, tenants: full.tenants, ledgers: full.ledgers, pool: full.pool,
			indices: []indexCkpt{{name: "bix", total: 6}}}, 1), 1, 6)},
		{"trailing byte", "state", append(slices.Clip(state), 0)},
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

// FuzzCheckpoint drives the checkpoint state walk in both directions
// against the value table of the reference session's last checkpoint:
// decodeState never panics on arbitrary bytes, and a state that decodes
// re-encodes to bytes and a table that decode to the same state. As in
// FuzzJournalRecord, states are compared through a second encode.
func FuzzCheckpoint(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "wal")
	runDurableRef(f, 1, dir, 7)
	snap, err := fstore.Open(filepath.Join(dir, "ckpt-000003.fst"), fstore.Options{})
	if err != nil {
		f.Fatal(err)
	}
	values := func(key string) []string {
		i, ok := snap.Find(key)
		if !ok {
			f.Fatalf("the reference checkpoint has no %q entry", key)
		}
		v, err := snap.Values(i)
		if err != nil {
			f.Fatal(err)
		}
		return v
	}
	state, table := values(ckptState)[0], values(ckptValues)
	snap.Close()
	ck, err := decodeState([]byte(state), table)
	if err != nil || len(ck.decided) == 0 || len(ck.pool) == 0 || len(ck.indices) == 0 {
		f.Fatalf("the reference checkpoint (%d decided, %d caches, %d indices, err %v) does not exercise every list",
			len(ck.decided), len(ck.pool), len(ck.indices), err)
	}
	f.Add([]byte(state))
	f.Fuzz(func(t *testing.T, state []byte) {
		ck, err := decodeState(state, table)
		if err != nil {
			return
		}
		once, onceTable := ck.encode(nil)
		again, err := decodeState(once, onceTable)
		if err != nil {
			t.Fatalf("% x decodes, its re-encoding % x does not: %v", state, once, err)
		}
		if twice, twiceTable := again.encode(nil); !bytes.Equal(once, twice) || !slices.Equal(onceTable, twiceTable) {
			t.Fatalf("% x re-encodes to % x, which re-encodes to % x", state, once, twice)
		}
	})
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
