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
	a.Merge(b)
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
	New(8).Merge(New(16))
}

// TestCloneIndependent: a copy through Vectors and FromVectors — how a
// sketch leaves its task — shares no state with its source.
func TestCloneIndependent(t *testing.T) {
	a := New(16)
	a.Add("x")
	before := a.Vectors()
	c := FromVectors(before)
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
