package adaptix

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"efind/internal/chaos"
	"efind/internal/fstore"
	"efind/internal/vfs"
)

// save and load persist a registry the way the job service's checkpoint
// does: AppendTo into an fstore snapshot, LoadFrom out of it.
func save(fs vfs.FS, r *Registry, path string) error {
	b := fstore.NewBuilder()
	r.AppendTo(b, "ix:")
	return b.WriteFileFS(fs, path)
}

func load(r *Registry, path string) error {
	snap, err := fstore.Open(path, fstore.Options{})
	if err != nil {
		return err
	}
	defer snap.Close()
	return r.LoadFrom(snap, "ix:")
}

// TestSaveFaultsNeverYieldPhantomSplits drives the registry save through
// every injected write fault at a mid-commit moment: coverage has grown
// in memory, the save of the new coverage dies, and the durable file must
// still hold exactly the last successfully saved coverage. A phantom
// split — the registry claiming a split is built when its entries never
// became durable — would silently corrupt every future lookup that
// trusts coverage, so this is the invariant the fault matrix pins.
func TestSaveFaultsNeverYieldPhantomSplits(t *testing.T) {
	for _, kind := range []chaos.FaultKind{chaos.TornWrite, chaos.ShortWrite, chaos.NoSpace, chaos.RenameFail} {
		t.Run(kind.String(), func(t *testing.T) {
			reg := NewRegistry()
			b, _, f := testIndex(t, reg, 200, 10)
			total := len(f.Chunks)
			if total < 3 {
				t.Fatalf("need ≥3 chunks, got %d", total)
			}

			// Commit split 0 and save: the last durable coverage.
			scanAndStage(t, b, f, 1, 0)
			b.Commit()
			path := filepath.Join(t.TempDir(), "registry.fmc1")
			if err := save(vfs.OS{}, reg, path); err != nil {
				t.Fatal(err)
			}

			// Coverage grows in memory, then the save of it dies.
			scanAndStage(t, b, f, 2, 1)
			scanAndStage(t, b, f, 2, 2)
			b.Commit()
			match := ".fstore-"
			if kind == chaos.RenameFail {
				match = "registry.fmc1"
			}
			ffs := chaos.NewFaultFS(vfs.OS{}, chaos.FileFault{Kind: kind, Match: match})
			if err := save(ffs, reg, path); err == nil {
				t.Fatalf("%v during save must surface as an error", kind)
			}

			// A recovering process loads the file: exactly split 0, no
			// phantom coverage from the failed save.
			fresh := NewRegistry()
			if err := load(fresh, path); err != nil {
				t.Fatalf("last durable registry unreadable after %v: %v", kind, err)
			}
			got, tot := fresh.CoveredSplits("bix")
			if !reflect.DeepEqual(got, []int{0}) {
				t.Fatalf("recovered coverage = %v, want [0] — %v leaked phantom splits", got, kind)
			}
			if tot != total {
				t.Fatalf("recovered total = %d, want %d", tot, total)
			}

			// The retry (fault was one-shot) persists the full coverage.
			if err := save(ffs, reg, path); err != nil {
				t.Fatalf("retry save: %v", err)
			}
			fresh2 := NewRegistry()
			if err := load(fresh2, path); err != nil {
				t.Fatal(err)
			}
			if got, _ := fresh2.CoveredSplits("bix"); !reflect.DeepEqual(got, []int{0, 1, 2}) {
				t.Fatalf("post-retry coverage = %v, want [0 1 2]", got)
			}
		})
	}
}

// TestMaterializeReproducesCommittedEntries models the recovery path: the
// registry's coverage survives a crash (via the checkpoint) but the
// in-memory kvstore's entries do not. Materialize on a fresh Buildable
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

	// Crash: registry persisted, store contents gone.
	path := filepath.Join(t.TempDir(), "registry.fmc1")
	if err := save(vfs.OS{}, reg, path); err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	if err := load(reg2, path); err != nil {
		t.Fatal(err)
	}
	if reg2.Fingerprint() != wantFP {
		t.Fatalf("registry fingerprint changed across save/load: %s vs %s", reg2.Fingerprint(), wantFP)
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
	path := filepath.Join(t.TempDir(), "registry.fmc1")
	if err := save(vfs.OS{}, other, path); err != nil {
		t.Fatal(err)
	}
	if err := load(reg, path); err != nil {
		t.Fatal(err)
	}

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
