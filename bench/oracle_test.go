package main

import (
	"testing"

	"efind/internal/dfs"
)

// TestOracleCatchesDamage proves the output check is not vacuous: one
// flipped output byte and one dropped record both change the digest,
// while reordering does not.
func TestOracleCatchesDamage(t *testing.T) {
	recs := []dfs.Record{
		{Key: "s00000000", Value: "00000007 xxxx\x00vvvv"},
		{Key: "s00000001", Value: "00000003 xxxx\x00vvvv"},
		{Key: "s00000002", Value: "00000007 xxxx\x00vvvv"},
	}
	ref := digestRecords(recs)

	reordered := []dfs.Record{recs[2], recs[0], recs[1]}
	if got := digestRecords(reordered); got != ref {
		t.Errorf("reordering changed the digest: %v vs %v", got, ref)
	}
	for i := range recs {
		for pos := 0; pos < len(recs[i].Value); pos++ {
			damaged := append([]dfs.Record(nil), recs...)
			b := []byte(damaged[i].Value)
			b[pos] ^= 0x01
			damaged[i].Value = string(b)
			if got := digestRecords(damaged); got == ref {
				t.Fatalf("flipping byte %d of record %d went unnoticed", pos, i)
			}
		}
		dropped := append(append([]dfs.Record(nil), recs[:i]...), recs[i+1:]...)
		if got := digestRecords(dropped); got == ref {
			t.Fatalf("dropping record %d went unnoticed", i)
		}
	}
	// Two identical records swapped for two copies of one of them keeps
	// the count and must still be caught.
	dup := []dfs.Record{recs[0], recs[0], recs[2]}
	if got := digestRecords(dup); got == ref {
		t.Fatal("replacing a record with a copy of another went unnoticed")
	}
	// A value given in parts hashes like the joined value.
	var parts, whole digest
	parts.add("k", "ab", "\x00", "cd")
	whole.add("k", "ab\x00cd")
	if parts != whole {
		t.Errorf("streamed digest %v differs from whole %v", parts, whole)
	}
}

// TestReferenceMatchesGenerator checks the nested-loop evaluator on a
// hand-checkable input.
func TestReferenceMatchesGenerator(t *testing.T) {
	input := []dfs.Record{
		{Key: "s00000000", Value: "00000002 xx"},
		{Key: "s00000001", Value: "00000005 xx"},
	}
	var want digest
	want.add("s00000000", "00000002 xx\x00vvv")
	want.add("s00000001", "00000005 xx\x00vvv")
	if got := synReference(input, 3); got != want {
		t.Errorf("synReference = %v, want %v", got, want)
	}
}
