package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"efind/internal/mapreduce"
	"efind/internal/sim"
)

// decodeCarrier parses a serialized carrier into a fresh one. The stages
// decode into their task's carrier; the tests and the fuzz target use this.
func decodeCarrier(s string) (*carrier, error) {
	c := &carrier{}
	if err := c.decode(s); err != nil {
		return nil, err
	}
	return c, nil
}

func TestCarrierRoundTrip(t *testing.T) {
	c := &carrier{
		Pair: Pair{Key: "k1", Value: "v1\twith\ttabs and 4:colons;semis"},
		Keys: [][]string{{"ika", "ikb"}, nil, {"single"}},
		Results: [][]KeyResult{
			{{Key: "ika", Values: []string{"r1", "r2"}}, {Key: "ikb", Values: nil}},
			nil,
			{{Key: "single", Values: []string{""}}},
		},
	}
	got, err := decodeCarrier(encodeCarrier(c))
	if err != nil {
		t.Fatal(err)
	}
	if got.Pair != c.Pair {
		t.Fatalf("pair = %+v, want %+v", got.Pair, c.Pair)
	}
	if len(got.Keys) != 3 || len(got.Keys[0]) != 2 || got.Keys[0][1] != "ikb" {
		t.Fatalf("keys = %+v", got.Keys)
	}
	if len(got.Results) != 3 || got.Results[0][0].Values[1] != "r2" {
		t.Fatalf("results = %+v", got.Results)
	}
	if len(got.Results[2][0].Values) != 1 || got.Results[2][0].Values[0] != "" {
		t.Fatalf("empty string value lost: %+v", got.Results[2])
	}
}

func TestCarrierRoundTripProperty(t *testing.T) {
	f := func(k, v string, keys []string, rk string, rvs []string) bool {
		if len(k) > 200 || len(v) > 200 || len(keys) > 20 || len(rvs) > 20 {
			return true
		}
		c := &carrier{
			Pair:    Pair{Key: k, Value: v},
			Keys:    [][]string{keys},
			Results: [][]KeyResult{{{Key: rk, Values: rvs}}},
		}
		got, err := decodeCarrier(encodeCarrier(c))
		if err != nil {
			return false
		}
		if got.Pair != c.Pair || len(got.Keys) != 1 || len(got.Keys[0]) != len(keys) {
			return false
		}
		for i := range keys {
			if got.Keys[0][i] != keys[i] {
				return false
			}
		}
		r := got.Results[0][0]
		if r.Key != rk || len(r.Values) != len(rvs) {
			return false
		}
		for i := range rvs {
			if r.Values[i] != rvs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCarrierSizeMatchesIntuition(t *testing.T) {
	c := &carrier{Pair: Pair{Key: "abc", Value: "defg"}}
	if got := c.size(); got < 7 {
		t.Fatalf("size %d too small for 7 payload bytes", got)
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	bad := []string{
		"",
		"3:ab",             // truncated string
		"notanumber:x",     // bad length
		"1:a1:b0;0;excess", // trailing bytes
		"-1:x",             // negative length
	}
	for _, s := range bad {
		if _, err := decodeCarrier(s); err == nil {
			t.Fatalf("decodeCarrier(%q) should fail", s)
		}
	}
}

func TestDecodeDoesNotPanicOnArbitraryInput(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 500 {
			return true
		}
		decodeCarrier(s) // must not panic; error is fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeyPassThrough(t *testing.T) {
	c := &carrier{Pair: Pair{Key: "rec7", Value: "v"}, Keys: [][]string{nil}}
	p := shuffleRecord(c, 0)
	if !isPassKey(p.Key) {
		t.Fatalf("pass key %q not recognized", p.Key)
	}
	if !strings.Contains(p.Key, "rec7") {
		t.Fatalf("pass key %q should derive from the record key for spread", p.Key)
	}
	if p.Value != referenceEncoding(c) {
		t.Fatalf("pass-key record carries %q, want %q", p.Value, referenceEncoding(c))
	}
	c.Keys = [][]string{{"real"}}
	p = shuffleRecord(c, 0)
	if p.Key != "real" || isPassKey(p.Key) || p.Value != referenceEncoding(c) {
		t.Fatalf("real key mishandled: %q %q", p.Key, p.Value)
	}
}

func TestOperatorDefaults(t *testing.T) {
	op := NewOperator("dflt", nil, nil)
	var pr carrier
	op.runPre(Pair{Key: "k", Value: "v"}, &pr)
	if pr.Pair.Key != "k" || pr.Pair.Value != "v" {
		t.Fatalf("default pre should not modify pair: %+v", pr.Pair)
	}
	if len(pr.Keys) != 0 {
		// No indices added yet: normalized to zero lists.
		t.Fatalf("keys = %+v", pr.Keys)
	}

	var out []Pair
	op.runPost(Pair{Key: "k", Value: "v"}, [][]KeyResult{{{Key: "ik", Values: []string{"a", "b"}}}}, func(p Pair) { out = append(out, p) })
	if len(out) != 1 || out[0].Value != "v\ta\tb" {
		t.Fatalf("default post output = %+v", out)
	}
}

func TestOperatorValidate(t *testing.T) {
	op := NewOperator("x", nil, nil)
	if err := op.validate(); err == nil {
		t.Fatal("operator without indices must not validate")
	}
	a := fakeAccessor{name: "ix"}
	op.AddIndex(a).AddIndex(a)
	if err := op.validate(); err == nil {
		t.Fatal("duplicate index names must not validate")
	}
}

func TestOperatorPreNormalizesKeyLists(t *testing.T) {
	op := NewOperator("n", func(in Pair) PreResult {
		return PreResult{Pair: in, Keys: [][]string{{"only-first"}}}
	}, nil)
	op.AddIndex(fakeAccessor{name: "a"})
	op.AddIndex(fakeAccessor{name: "b"})
	var pr carrier
	op.runPre(Pair{Key: "k"}, &pr)
	if len(pr.Keys) != 2 {
		t.Fatalf("pre keys should be padded to index count, got %d", len(pr.Keys))
	}
}

// fakeAccessor is a trivial index for interface-level tests.
type fakeAccessor struct{ name string }

func (f fakeAccessor) Name() string                      { return f.name }
func (f fakeAccessor) Lookup(k string) ([]string, error) { return []string{"v:" + k}, nil }
func (f fakeAccessor) ServeTime() float64                { return 0.001 }
func (f fakeAccessor) HostsFor(string) []sim.NodeID      { return nil }

var _ = mapreduce.Pair{}

// referenceEncoding spells the wire format out with fmt, independently of
// encodeCarrier: shuffle bytes feed Pair.Size and with it virtual time, so
// the format must not move when the encoder is made cheaper.
func referenceEncoding(c *carrier) string {
	str := func(s string) string { return fmt.Sprintf("%d:%s", len(s), s) }
	out := str(c.Pair.Key) + str(c.Pair.Value) + fmt.Sprintf("%d;", len(c.Keys))
	for _, ks := range c.Keys {
		out += fmt.Sprintf("%d;", len(ks))
		for _, k := range ks {
			out += str(k)
		}
	}
	out += fmt.Sprintf("%d;", len(c.Results))
	for _, rs := range c.Results {
		out += fmt.Sprintf("%d;", len(rs))
		for _, kr := range rs {
			out += str(kr.Key) + fmt.Sprintf("%d;", len(kr.Values))
			for _, v := range kr.Values {
				out += str(v)
			}
		}
	}
	return out
}

func TestEncodeCarrierWireFormat(t *testing.T) {
	f := func(k, v string, keys [][]string, rk string, rvs []string, pad uint16) bool {
		c := &carrier{
			Pair:    Pair{Key: k, Value: v + strings.Repeat("x", int(pad))},
			Keys:    keys,
			Results: [][]KeyResult{{{Key: rk, Values: rvs}}, nil, {{Key: k}, {Key: v, Values: []string{}}}},
		}
		enc := encodeCarrier(c)
		return enc == referenceEncoding(c) && len(enc) == encodedLen(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if got, want := encodeCarrier(&carrier{Pair: Pair{Key: "k", Value: "v"}, Keys: [][]string{{"a"}}, Results: [][]KeyResult{nil}}),
		"1:k1:v1;1;1:a1;0;"; got != want {
		t.Fatalf("encoding = %q, want %q", got, want)
	}
}
