package cloudsvc

import (
	"fmt"
	"testing"
)

func TestLookupDeterministic(t *testing.T) {
	s := New("svc", 3, 0.001, func(k string) []string { return []string{"echo:" + k} })
	a, err := s.Lookup("x")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Lookup("x")
	if len(a) != 1 || a[0] != "echo:x" || b[0] != a[0] {
		t.Fatalf("lookup not deterministic: %v vs %v", a, b)
	}
}

func TestCallMeter(t *testing.T) {
	s := New("svc", 0, 0, func(string) []string { return nil })
	for i := 0; i < 7; i++ {
		s.Lookup("k")
	}
	if s.Calls() != 7 {
		t.Fatalf("calls = %d, want 7", s.Calls())
	}
}

func TestHostsSingleNode(t *testing.T) {
	s := New("svc", 5, 0, func(string) []string { return nil })
	h := s.HostsFor("anything")
	if len(h) != 1 || h[0] != 5 {
		t.Fatalf("hosts = %v, want [5]", h)
	}
}

func TestGeoServiceShape(t *testing.T) {
	s := NewGeoService(0, 0.0008, 50)
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		ip := fmt.Sprintf("10.0.%d.%d", i/256, i%256)
		got, err := s.Lookup(ip)
		if err != nil || len(got) != 1 {
			t.Fatalf("geo lookup %q = %v, %v", ip, got, err)
		}
		seen[got[0]] = true
		// Idempotent.
		again, _ := s.Lookup(ip)
		if again[0] != got[0] {
			t.Fatalf("geo service not idempotent for %q", ip)
		}
	}
	if len(seen) < 30 {
		t.Fatalf("geo service uses only %d of 50 regions over 2000 IPs", len(seen))
	}
}

func TestDomainClamp(t *testing.T) {
	if s := NewGeoService(0, 0, 0); s == nil {
		t.Fatal("nil service")
	}
}
