package knnj

import (
	"testing"
)

func TestSpatialIndexStats(t *testing.T) {
	cluster, _, _ := knnEnv(t)
	cfg := DefaultSpatialIndexConfig(1000)
	cfg.K = 7
	idx, err := BuildSpatialIndex(cluster, "s", points(200, 12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if idx.k != 7 {
		t.Fatalf("k = %d", idx.k)
	}
	if _, err := idx.Lookup("10.0,10.0"); err != nil {
		t.Fatal(err)
	}
	// Bad keys error.
	if _, err := idx.Lookup("not-a-point"); err == nil {
		t.Fatal("bad spatial key should error")
	}
	// Out-of-range coordinates clamp to boundary cells rather than panic.
	if _, err := idx.Lookup("-50.0,99999.0"); err != nil {
		t.Fatal(err)
	}
}
