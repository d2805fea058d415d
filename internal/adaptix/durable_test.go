package adaptix

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// recoverCoverage copies src's coverage into dst the way the job
// service's Recover applies a checkpoint's: Register each index, then
// MarkBuilt its committed splits.
func recoverCoverage(dst, src *Registry) {
	for _, name := range src.Names() {
		splits, total := src.CoveredSplits(name)
		dst.Register(name, total)
		for _, s := range splits {
			dst.MarkBuilt(name, s)
		}
	}
}

// TestRegistryPersistRoundTrip: the coverage a checkpoint reads out of a
// registry (Names, CoveredSplits) and applies back (Register, MarkBuilt)
// reproduces it exactly, and applying it over in-memory progress merges
// rather than replaces.
func TestRegistryPersistRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Register("alpha", 8)
	r.Register("beta", 3)
	for _, s := range []int{0, 2, 5} {
		r.MarkBuilt("alpha", s)
	}
	r.MarkBuilt("beta", 1)

	r2 := NewRegistry()
	recoverCoverage(r2, r)
	if r.Fingerprint() != r2.Fingerprint() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", r.Fingerprint(), r2.Fingerprint())
	}
	if got, total := r2.CoveredSplits("alpha"); !reflect.DeepEqual(got, []int{0, 2, 5}) || total != 8 {
		t.Fatalf("alpha = %v of %d, want [0 2 5] of 8", got, total)
	}

	// Applying coverage merges with in-memory progress.
	r2.MarkBuilt("beta", 2)
	recoverCoverage(r2, r)
	if got, _ := r2.CoveredSplits("beta"); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("merge = %v, want [1 2]", got)
	}
}

// TestPersistEmptyRegistry: an empty registry's coverage round-trips to
// an empty registry, not to indexes with no splits built.
func TestPersistEmptyRegistry(t *testing.T) {
	r := NewRegistry()
	r2 := NewRegistry()
	recoverCoverage(r2, r)
	if len(r2.Names()) != 0 || r2.Fingerprint() != r.Fingerprint() {
		t.Fatalf("empty round trip yielded %v (%q)", r2.Names(), r2.Fingerprint())
	}
}

// TestMaterializeReproducesCommittedEntries models the recovery path: the
// registry's coverage survives a crash (via the job service's checkpoint)
// but the in-memory kvstore's entries do not. Materialize on a fresh Buildable
// must re-extract the covered splits so every lookup answers exactly as
// the pre-crash index did.
func TestMaterializeReproducesCommittedEntries(t *testing.T) {
	reg := NewRegistry()
	b, _, f := testIndex(t, reg, 300, 12)
	scanAndStage(t, b, f, 1, 0)
	scanAndStage(t, b, f, 3, 2)
	b.Commit()

	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	want := make(map[string][]string)
	for _, k := range keys {
		vs, err := b.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = vs
	}
	wantFP := reg.Fingerprint()

	// Crash: coverage recovered, store contents gone.
	reg2 := NewRegistry()
	recoverCoverage(reg2, reg)
	if reg2.Fingerprint() != wantFP {
		t.Fatalf("registry fingerprint changed across recovery: %s vs %s", reg2.Fingerprint(), wantFP)
	}
	b2, _, _ := testIndex(t, reg2, 300, 12)
	if cov, _ := reg2.CoveredSplits("bix"); len(cov) != 2 {
		t.Fatalf("recovered coverage = %v, want 2 splits", cov)
	}

	// Before Materialize the store is empty: covered splits would serve
	// nothing. After, every lookup matches the pre-crash index exactly.
	if err := b2.Materialize(); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	for _, k := range keys {
		vs, err := b2.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vs, want[k]) {
			t.Fatalf("lookup %q after Materialize = %v, want %v", k, vs, want[k])
		}
	}

	// Materialize is idempotent: a second pass must not duplicate values.
	if err := b2.Materialize(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		vs, err := b2.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vs, want[k]) {
			t.Fatalf("second Materialize changed lookup %q: %v, want %v", k, vs, want[k])
		}
	}
}

// TestLoadedCoverageReachesLookups: a Buildable caches its uncovered
// splits between coverage changes, and coverage it did not commit itself
// — a checkpoint's registry loaded into its own on recovery — must reach
// its next lookup and offer. Until Materialize the loaded splits serve
// from the empty store, so their records drop out of a lookup; after it,
// every lookup answers as before the load.
func TestLoadedCoverageReachesLookups(t *testing.T) {
	reg := NewRegistry()
	b, _, f := testIndex(t, reg, 300, 12)
	before, err := b.Lookup("k005")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.OfferSplits(); len(got) == 0 || got[0] != 0 {
		t.Fatalf("offer before the load = %v, want the lowest splits from 0", got)
	}

	// Another coordinator's registry with splits 0 and 2 built, loaded.
	other := NewRegistry()
	ob, _, _ := testIndex(t, other, 300, 12)
	scanAndStage(t, ob, f, 1, 0)
	scanAndStage(t, ob, f, 1, 2)
	ob.Commit()
	recoverCoverage(reg, other)

	if got := b.OfferSplits(); len(got) == 0 || got[0] != 1 || (len(got) > 1 && got[1] != 3) {
		t.Fatalf("offer after the load = %v, want it to skip the loaded splits 0 and 2", got)
	}
	loaded := map[string]bool{} // k005's records in splits 0 and 2
	for _, split := range []int{0, 2} {
		recs, err := f.Chunks[split].Records()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if strings.HasPrefix(r.Value, "k005 ") {
				loaded[r.Key] = true
			}
		}
	}
	after, err := b.Lookup("k005")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.DeleteFunc(slices.Clone(before), func(k string) bool { return loaded[k] })
	if len(loaded) == 0 || !reflect.DeepEqual(after, want) {
		t.Fatalf("lookup after the load = %v, want %v: %v without splits 0 and 2", after, want, before)
	}
	if err := b.Materialize(); err != nil {
		t.Fatal(err)
	}
	again, err := b.Lookup("k005")
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(before)
	slices.Sort(again)
	if !reflect.DeepEqual(again, before) {
		t.Fatalf("lookup after Materialize = %v, want %v", again, before)
	}
}
