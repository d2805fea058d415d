package core

import "testing"

// FuzzCarrierRoundTrip exercises the carrier codec with arbitrary byte
// strings: decoding must never panic, and anything that decodes must
// re-encode into a canonical form that survives a second round trip
// bit-identically.
func FuzzCarrierRoundTrip(f *testing.F) {
	seed := []*carrier{
		{},
		{Pair: Pair{Key: "k", Value: "v"}},
		{
			Pair: Pair{Key: "user", Value: "payload"},
			Keys: [][]string{{"ik0001", "ik0002"}, nil, {"z"}},
			Results: [][]KeyResult{
				{{Key: "ik0001", Values: []string{"a", "b"}}, {Key: "ik0002"}},
				nil,
			},
		},
		{Pair: Pair{Key: "\x00p odd", Value: "1:2;3"}, Keys: [][]string{{""}}},
	}
	for _, c := range seed {
		f.Add(encodeCarrier(c))
	}
	f.Add("")
	f.Add("0:0:0;0;")
	f.Add("1:k1:v2;1;1:a0;0;")
	f.Add("1:k1:v99999999999999999999;")
	f.Add("1:k1:v1048577;")
	f.Add("9223372036854775807:x")
	f.Add("1:a9223372036854775800:b")
	f.Add("garbage without any structure")

	f.Fuzz(func(t *testing.T, s string) {
		c, err := decodeCarrier(s)
		if err != nil {
			return // rejecting corrupt input is fine; panicking is not
		}
		enc := encodeCarrier(c)
		c2, err := decodeCarrier(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v\ninput: %q\nencoded: %q", err, s, enc)
		}
		if enc2 := encodeCarrier(c2); enc2 != enc {
			t.Fatalf("encoding is not canonical after one round trip:\n first: %q\nsecond: %q", enc, enc2)
		}
	})
}

// TestDecodeCarrierRejectsHugeInnerCounts pins the per-list element bound:
// an inner count just above maxListLen must be rejected up front instead
// of driving a huge decode loop.
func TestDecodeCarrierRejectsHugeInnerCounts(t *testing.T) {
	cases := []string{
		"0:0:1;1048577;",                 // keys-in-list count too large
		"0:0:0;1;1048577;",               // results-in-list count too large
		"0:0:0;1;1;1:k1048577;",          // values-per-result count too large
		"0:0:1048577;",                   // outer key-list count (regression)
		"0:0:0;1048577;",                 // outer result-list count (regression)
		"0:0:1;-2;",                      // negative inner count
		"0:0:1;1;3:abc0;1;1;1:x0;1:y0;x", // trailing bytes
		// A length prefix near MaxInt: position + length wraps negative,
		// so the bound must be taken against the bytes left.
		"9223372036854775807:x",
		"1:a9223372036854775800:b",
	}
	for _, s := range cases {
		if _, err := decodeCarrier(s); err == nil {
			t.Errorf("decodeCarrier(%q) should fail", s)
		}
	}
}
