package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"
)

// carrier is the record in flight through a re-partitioning shuffle: the
// (possibly pre-processed) pair, the pending per-index key lists, and the
// lookup results attached so far. Carriers are serialized into the shuffle
// value with a length-prefixed encoding that is safe for arbitrary bytes.
//
// A carrier is scratch its task owns (opTask.c): reset or decode refills
// it for the next record, and everything that reads it — the lookups,
// postProcess, the stages downstream of emit, the encoding — runs before
// that. What it points at (Keys, Results, their inner slices) is therefore
// valid until the stage's Process call returns; the strings themselves are
// never reused.
type carrier struct {
	Pair    Pair
	Keys    [][]string
	Results [][]KeyResult // also the slab of result-list headers

	// Slabs the lists are cut from, kept from record to record so that
	// steady state allocates nothing. A slab that grows while a record is
	// being filled leaves the windows cut earlier on the old array, which
	// still holds what they were given.
	lists [][]string  // key-list headers: decoded, padded and default Keys
	strs  []string    // decoded keys and values
	krs   []KeyResult // decoded and looked-up results

	// First backing of Results and krs: the common shape — up to two
	// indices, one result — costs a task no slab at all.
	resArr [2][]KeyResult
	krArr  [1]KeyResult
}

// reset empties the carrier and gives it n empty result lists.
func (c *carrier) reset(n int) {
	if c.krs == nil {
		c.Results, c.krs = c.resArr[:0], c.krArr[:0]
	}
	c.Pair, c.Keys = Pair{}, nil
	c.lists, c.strs, c.krs = c.lists[:0], c.strs[:0], c.krs[:0]
	c.Results = slices.Grow(c.Results[:0], n)[:n]
	clear(c.Results) // no index inherits the previous record's results
}

// keyResults returns an empty result list with room for n results, cut
// from the krs slab.
func (c *carrier) keyResults(n int) []KeyResult {
	start := len(c.krs)
	c.krs = slices.Grow(c.krs, n)[:start+n]
	return c.krs[start : start : start+n]
}

// attach sets the result list of index ix to the one result (key, values).
func (c *carrier) attach(ix int, key string, values []string) {
	c.Results[ix] = append(c.keyResults(1), KeyResult{Key: key, Values: values})
}

// size returns the carrier's encoded payload size in bytes without
// building the encoding — the statistics layer uses it to measure the
// paper's Spre and Sidx terms.
func (c *carrier) size() int {
	n := len(c.Pair.Key) + len(c.Pair.Value) + 8
	for _, ks := range c.Keys {
		for _, k := range ks {
			n += len(k) + 4
		}
	}
	for _, rs := range c.Results {
		for _, kr := range rs {
			n += len(kr.Key) + 4
			for _, v := range kr.Values {
				n += len(v) + 4
			}
		}
	}
	return n
}

// The wire format: a string is its decimal length, ':' and its bytes; a
// count is its decimal value and ';'. A carrier is key, value, the number
// of key lists, each list as count and strings, the number of result
// lists, each list as count and results, a result as key, count and
// values. Shuffle bytes feed Pair.Size and with it virtual time, so the
// format is fixed; only how it is produced and parsed may change.

// decimalLen returns the number of digits of n ≥ 0.
func decimalLen(n int) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}

// strLen and intLen are the encoded sizes of a string and of a count.
func strLen(s string) int { return decimalLen(len(s)) + 1 + len(s) }
func intLen(n int) int    { return decimalLen(n) + 1 }

// encodedLen returns the exact length of c's encoding.
func encodedLen(c *carrier) int {
	n := strLen(c.Pair.Key) + strLen(c.Pair.Value) + intLen(len(c.Keys)) + intLen(len(c.Results))
	for _, ks := range c.Keys {
		n += intLen(len(ks))
		for _, k := range ks {
			n += strLen(k)
		}
	}
	for _, rs := range c.Results {
		n += intLen(len(rs))
		for _, kr := range rs {
			n += strLen(kr.Key) + intLen(len(kr.Values))
			for _, v := range kr.Values {
				n += strLen(v)
			}
		}
	}
	return n
}

// encode returns a, b and the encoding of c as one string, written into a
// window of exactly its length cut from blk: the length prefixes go
// straight into it, and the string is the window itself, which nothing
// writes to again.
func (blk *byteBlock) encode(a, b string, c *carrier) string {
	return appendCarrier(blk.cut(len(a)+len(b)+encodedLen(c)), a, b, c)
}

// appendCarrier writes a, b and the encoding of c into buf, which must be
// empty with exactly the room they take, and returns buf as a string.
func appendCarrier(buf []byte, a, b string, c *carrier) string {
	buf = append(append(buf, a...), b...)
	buf = appendStr(appendStr(buf, c.Pair.Key), c.Pair.Value)
	buf = appendDecimal(buf, len(c.Keys), ';')
	for _, ks := range c.Keys {
		buf = appendDecimal(buf, len(ks), ';')
		for _, k := range ks {
			buf = appendStr(buf, k)
		}
	}
	buf = appendDecimal(buf, len(c.Results), ';')
	for _, rs := range c.Results {
		buf = appendDecimal(buf, len(rs), ';')
		for _, kr := range rs {
			buf = appendDecimal(appendStr(buf, kr.Key), len(kr.Values), ';')
			for _, v := range kr.Values {
				buf = appendStr(buf, v)
			}
		}
	}
	return unsafe.String(unsafe.SliceData(buf), len(buf))
}

// byteBlock hands out empty byte windows of a requested capacity, each
// once, cut from slabs that double from 512 bytes to 4 KB; one of more
// than an eighth of the next slab is made alone, so a slab is left at
// most an eighth unused. A stage instance keeps one across the tasks of
// its frame: the shuffle pays an allocation per slab, not per carrier.
// A window's capacity is capped, so no later window or append reaches
// into it, and a string cut from one stays as it was written.
type byteBlock struct {
	spare []byte
	size  int
}

func (b *byteBlock) cut(n int) []byte {
	if len(b.spare) < n {
		if b.size = min(max(2*b.size, 512), 4<<10); 8*n > b.size {
			return make([]byte, 0, n)
		}
		b.spare = make([]byte, b.size)
	}
	w := b.spare[:0:n]
	b.spare = b.spare[n:]
	return w
}

// appendDecimal appends n ≥ 0 in decimal and the terminator, writing the
// digits from the last.
func appendDecimal(buf []byte, n int, term byte) []byte {
	end := len(buf) + decimalLen(n)
	buf = append(buf[:end], term) // the digits' room: the buffer has the capacity
	for i := end - 1; ; i-- {
		buf[i] = byte('0' + n%10)
		if n /= 10; n == 0 {
			return buf
		}
	}
}

func appendStr(buf []byte, s string) []byte {
	return append(appendDecimal(buf, len(s), ':'), s...)
}

// maxListLen bounds every list count in a decoded carrier — the outer
// key/result list counts and the per-list element counts alike — so a
// corrupt or hostile length prefix cannot drive huge decode loops.
const maxListLen = 1 << 20

// decode refills the carrier from its encoding in one pass, appending to
// the slabs; the strings alias s. It never panics on corrupt input, and
// nothing it allocates is sized from a count it read: every list grows by
// one element per element actually present. Each carrier has exactly one
// encoding (readLen), so a value that decodes is byte for byte what
// encoding the result would produce.
func (c *carrier) decode(s string) error {
	c.reset(0)
	d := decoder{s: s, c: c}
	key, value := d.str(), d.str()
	nk := d.count("key lists")
	for i := 0; i < nk && d.err == nil; i++ {
		c.lists = append(c.lists, d.strings("keys in a list"))
	}
	c.Pair, c.Keys = Pair{Key: key, Value: value}, c.lists
	nr := d.count("result lists")
	for i := 0; i < nr && d.err == nil; i++ {
		n, start := d.count("results in a list"), len(c.krs)
		for j := 0; j < n && d.err == nil; j++ {
			c.krs = append(c.krs, KeyResult{Key: d.str(), Values: d.strings("values of a result")})
		}
		c.Results = append(c.Results, window(c.krs, start))
	}
	if d.err == nil && d.pos != len(d.s) {
		d.err = fmt.Errorf("corrupt carrier: %d trailing bytes", len(d.s)-d.pos)
	}
	return d.err
}

// decoder reads the wire format's elements off s for the carrier c.
type decoder struct {
	s   string
	pos int
	err error
	c   *carrier
}

// window returns slab[start:] capped at its length, or nil when empty.
func window[T any](slab []T, start int) []T {
	if len(slab) == start {
		return nil
	}
	return slab[start:len(slab):len(slab)]
}

// strings reads a count and that many strings, as a window of the
// carrier's strs slab (nil for an empty list).
func (d *decoder) strings(what string) []string {
	n, c := d.count(what), d.c
	start := len(c.strs)
	for j := 0; j < n && d.err == nil; j++ {
		c.strs = append(c.strs, d.str())
	}
	return window(c.strs, start)
}

// readLen reads a decimal and its terminator. Only the canonical form is
// accepted — digits, no sign, no leading zero but "0" itself — so that a
// carrier has one encoding, and a value that would overflow is an error
// before it is used.
func (d *decoder) readLen(term byte) int {
	if d.err != nil {
		return 0
	}
	s, start := d.s, d.pos
	pos, n := start, 0
	for ; pos < len(s) && s[pos]-'0' <= 9; pos++ {
		if n > (math.MaxInt-9)/10 {
			d.err = fmt.Errorf("corrupt carrier: length at %d overflows", start)
			return 0
		}
		n = n*10 + int(s[pos]-'0')
	}
	switch digits := pos - start; {
	case pos >= len(s) || s[pos] != term:
		d.err = fmt.Errorf("corrupt carrier: missing %q after length at %d", term, start)
		return 0
	case digits == 0 || digits > 1 && s[start] == '0':
		d.err = fmt.Errorf("corrupt carrier: bad length at %d", start)
		return 0
	}
	d.pos = pos + 1 // past the terminator
	return n
}

func (d *decoder) str() string {
	n := d.readLen(':')
	if d.err != nil {
		return ""
	}
	// Compared against the bytes left: pos+n would wrap for a length
	// prefix near MaxInt and slip past the check.
	if n > len(d.s)-d.pos {
		d.err = fmt.Errorf("corrupt carrier: string overruns input at %d", d.pos)
		return ""
	}
	s := d.s[d.pos : d.pos+n]
	d.pos += n
	return s
}

// count reads a list count and bounds it by maxListLen.
func (d *decoder) count(what string) int {
	n := d.readLen(';')
	if d.err == nil && n > maxListLen {
		d.err = fmt.Errorf("corrupt carrier: %d %s", n, what)
		return 0
	}
	return n
}

// passKeyPrefix marks shuffle records that carry no lookup key for the
// re-partitioned index (preProcess extracted zero keys): they flow through
// the shuffle untouched. Real index keys must not start with this byte.
const passKeyPrefix = "\x00p"

// isPassKey reports whether a shuffle key marks a pass-through record.
func isPassKey(k string) bool { return strings.HasPrefix(k, passKeyPrefix) }
