package sketch

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestEmptyEstimateZero(t *testing.T) {
	f := New(64)
	if got := f.Estimate(); got != 0 {
		t.Fatalf("empty sketch estimate = %g, want 0", got)
	}
}

func TestEstimateWithinFactor(t *testing.T) {
	for _, n := range []int{100, 1000, 10000} {
		f := New(64)
		for i := 0; i < n; i++ {
			f.Add(fmt.Sprintf("key-%d", i))
		}
		got := f.Estimate()
		if got < float64(n)/2 || got > float64(n)*2 {
			t.Fatalf("n=%d: estimate %g outside [n/2, 2n]", n, got)
		}
	}
}

func TestDuplicatesDoNotInflate(t *testing.T) {
	f := New(64)
	for i := 0; i < 100; i++ {
		for rep := 0; rep < 50; rep++ {
			f.Add(fmt.Sprintf("key-%d", i))
		}
	}
	g := New(64)
	for i := 0; i < 100; i++ {
		g.Add(fmt.Sprintf("key-%d", i))
	}
	if math.Abs(f.Estimate()-g.Estimate()) > 1e-9 {
		t.Fatalf("duplicates changed the estimate: %g vs %g", f.Estimate(), g.Estimate())
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	a, b, u := New(32), New(32), New(32)
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("a-%d", i)
		a.Add(k)
		u.Add(k)
	}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("b-%d", i)
		b.Add(k)
		u.Add(k)
	}
	a.MergeVectors(b.Vectors())
	if math.Abs(a.Estimate()-u.Estimate()) > 1e-9 {
		t.Fatalf("merge != union: %g vs %g", a.Estimate(), u.Estimate())
	}
}

func TestMergeWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	New(8).MergeVectors(New(16).Vectors())
}

// TestCloneIndependent: a copy through FromVectors — how the statistics
// catalog starts from a task's vectors — shares no state with its source.
func TestCloneIndependent(t *testing.T) {
	a := New(16)
	a.Add("x")
	before := slices.Clone(a.Vectors())
	c := FromVectors(a.Vectors())
	for i := 0; i < 100; i++ {
		c.Add(fmt.Sprintf("y%d", i))
	}
	if !slices.Equal(a.Vectors(), before) || slices.Equal(c.Vectors(), before) {
		t.Fatalf("copy shares state: a=%x c=%x, a was %x", a.Vectors(), c.Vectors(), before)
	}
}

func TestVectorsRoundTrip(t *testing.T) {
	a := New(16)
	for i := 0; i < 200; i++ {
		a.Add(fmt.Sprintf("k%d", i))
	}
	b := FromVectors(a.Vectors())
	if a.Estimate() != b.Estimate() {
		t.Fatalf("round trip changed estimate: %g vs %g", a.Estimate(), b.Estimate())
	}
}

func TestNewClampsWidth(t *testing.T) {
	f := New(0)
	f.Add("x")
	if f.Estimate() <= 0 {
		t.Fatal("clamped sketch should still count")
	}
}

// TestResetEmpties: a reset sketch — how a task's sketch is handed to the
// worker's next task — estimates nothing and counts anew at its width.
func TestResetEmpties(t *testing.T) {
	a, fresh := New(16), New(16)
	for i := 0; i < 100; i++ {
		a.Add(fmt.Sprintf("k%d", i))
	}
	a.Reset()
	if a.Estimate() != 0 || len(a.Vectors()) != 16 {
		t.Fatalf("after Reset: estimate %g over %d vectors, want 0 over 16", a.Estimate(), len(a.Vectors()))
	}
	a.Add("x")
	fresh.Add("x")
	if !slices.Equal(a.Vectors(), fresh.Vectors()) {
		t.Fatalf("a reset sketch counts %x, a new one %x", a.Vectors(), fresh.Vectors())
	}
}
