package core

import "testing"

// FuzzCarrierRoundTrip exercises the carrier codec with arbitrary byte
// strings: decoding must never panic, and a carrier has exactly one
// encoding — anything that decodes re-encodes into the very bytes it came
// from. The decoder is the carrier's only validator: a BoundaryPre shuffle
// forwards values unread, and the next job's resume stage, decoding them,
// is what fails a corrupt one.
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
	f.Add("+1:k1:v0;0;")
	f.Add("01:k1:v0;0;")
	f.Add("1:k1:v00;0;")
	f.Add("1234567890123456789:k1:v0;0;")
	f.Add("12345678901234567890:k1:v0;0;")

	f.Fuzz(func(t *testing.T, s string) {
		c, err := decodeCarrier(s)
		if err != nil {
			return // rejecting corrupt input is fine; panicking is not
		}
		if enc := encodeCarrier(c); enc != s {
			t.Fatalf("accepted a second encoding of a carrier:\n   input: %q\nencoding: %q", s, enc)
		}
	})
}

// TestDecodeCarrierRejectsNonCanonicalLengths pins the one-encoding rule:
// a length or count is digits only, with no sign and no leading zero but
// "0" itself, and one that would overflow is an error, not a wrapped value.
func TestDecodeCarrierRejectsNonCanonicalLengths(t *testing.T) {
	if _, err := decodeCarrier("1:k1:v0;0;"); err != nil {
		t.Fatalf("canonical form rejected: %v", err)
	}
	for _, s := range []string{
		"+1:k1:v0;0;",                      // sign on a length
		"01:k1:v0;0;",                      // leading zero on a length
		"00:1:v0;0;",                       // "00" for zero
		"1:k1:v+0;0;",                      // sign on a count
		"1:k1:v00;0;",                      // leading zero on a count
		"1:k1:v0;01;0;",                    // leading zero on a later count
		" 1:k1:v0;0;",                      // space
		":1:v0;0;",                         // no digits
		"1:k1:v;0;",                        // no digits in a count
		"1234567890123456789:k1:v0;0;",     // 19 digits: fits an int, overruns the input
		"12345678901234567890:k1:v0;0;",    // 20 digits: overflows an int
		"1:k1:v12345678901234567890;0;",    // an overflowing count
		"1:k1:v0;99999999999999999999999;", // far past any int
	} {
		if _, err := decodeCarrier(s); err == nil {
			t.Errorf("decodeCarrier(%q) should fail", s)
		}
	}
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
