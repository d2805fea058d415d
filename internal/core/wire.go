package core

import (
	"fmt"
	"strconv"
	"strings"
)

// carrier is the record in flight through a re-partitioning shuffle: the
// (possibly pre-processed) pair, the pending per-index key lists, and the
// lookup results attached so far. Carriers are serialized into the shuffle
// value with a length-prefixed encoding that is safe for arbitrary bytes.
type carrier struct {
	Pair    Pair
	Keys    [][]string
	Results [][]KeyResult

	// Backing for the common shape — an operator with up to two indices
	// and one lookup result — so that such a carrier, its Results list and
	// the result are one allocation. Handed out by newCarrier and
	// keyResults; larger shapes fall back to slices of their own.
	resLists [2][]KeyResult
	kr       [1]KeyResult
	krUsed   int
}

// newCarrier returns a carrier with one empty result list per index.
func newCarrier(indices int) *carrier {
	c := &carrier{}
	c.setResultLists(indices)
	return c
}

// setResultLists gives the carrier n empty result lists.
func (c *carrier) setResultLists(n int) {
	if n <= len(c.resLists) {
		c.Results = c.resLists[:n:n]
	} else {
		c.Results = make([][]KeyResult, n)
	}
}

// keyResults returns an empty result list with room for n results, from
// the carrier's own backing while it lasts.
func (c *carrier) keyResults(n int) []KeyResult {
	if c.krUsed+n <= len(c.kr) {
		s := c.kr[c.krUsed : c.krUsed : c.krUsed+n]
		c.krUsed += n
		return s
	}
	return make([]KeyResult, 0, n)
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

// encodedLen returns the exact length of encodeCarrier(c).
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

// encodeCarrier serializes a carrier, allocating the encoding once at its
// exact length.
func encodeCarrier(c *carrier) string {
	var b strings.Builder
	b.Grow(encodedLen(c))
	writeStr(&b, c.Pair.Key)
	writeStr(&b, c.Pair.Value)
	writeInt(&b, len(c.Keys))
	for _, ks := range c.Keys {
		writeInt(&b, len(ks))
		for _, k := range ks {
			writeStr(&b, k)
		}
	}
	writeInt(&b, len(c.Results))
	for _, rs := range c.Results {
		writeInt(&b, len(rs))
		for _, kr := range rs {
			writeStr(&b, kr.Key)
			writeInt(&b, len(kr.Values))
			for _, v := range kr.Values {
				writeStr(&b, v)
			}
		}
	}
	return b.String()
}

func writeDecimal(b *strings.Builder, n int, term byte) {
	var tmp [20]byte
	b.Write(strconv.AppendInt(tmp[:0], int64(n), 10))
	b.WriteByte(term)
}

func writeStr(b *strings.Builder, s string) {
	writeDecimal(b, len(s), ':')
	b.WriteString(s)
}

func writeInt(b *strings.Builder, n int) { writeDecimal(b, n, ';') }

// maxListLen bounds every list count in a decoded carrier — the outer
// key/result list counts and the per-list element counts alike — so a
// corrupt or hostile length prefix cannot drive huge decode loops.
const maxListLen = 1 << 20

// decodeCarrier parses a serialized carrier. It walks the input twice: the
// first pass checks every length and count and totals the strings and
// results, the second slices them out of one []string slab and one
// []KeyResult slab, so decoding allocates a constant number of times
// however many lists the carrier has. It never panics on corrupt input.
func decodeCarrier(s string) (*carrier, error) {
	d := decoder{s: s}
	d.carrier()
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.s) {
		return nil, fmt.Errorf("efind: corrupt carrier: %d trailing bytes", len(d.s)-d.pos)
	}
	c := &carrier{}
	fill := decoder{s: s, c: c, strs: make([]string, 0, d.nstrs), krs: c.keyResults(d.nkrs)}
	fill.carrier()
	return c, nil
}

// decoder reads the wire format. Without a destination carrier it only
// checks and counts (nstrs list strings, nkrs results); with one it fills
// it, cutting every list from the strs and krs slabs, which the caller
// sized from a counting pass over the same input.
type decoder struct {
	s   string
	pos int
	err error

	nstrs, nkrs int

	c    *carrier
	strs []string
	krs  []KeyResult
}

// carrier reads one whole carrier.
func (d *decoder) carrier() {
	c := d.c
	key, value := d.str(), d.str()
	nk := d.count("key lists")
	if c != nil {
		c.Pair = Pair{Key: key, Value: value}
		c.Keys = make([][]string, nk)
	}
	for i := 0; i < nk && d.err == nil; i++ {
		ks := d.strings("keys in a list")
		if c != nil {
			c.Keys[i] = ks
		}
	}
	nr := d.count("result lists")
	if c != nil {
		c.setResultLists(nr)
	}
	for i := 0; i < nr && d.err == nil; i++ {
		n := d.count("results in a list")
		d.nkrs += n
		start := len(d.krs)
		for j := 0; j < n && d.err == nil; j++ {
			k := d.str()
			vs := d.strings("values of a result")
			if c != nil {
				d.krs = append(d.krs, KeyResult{Key: k, Values: vs})
			}
		}
		if c != nil && n > 0 {
			c.Results[i] = d.krs[start:len(d.krs):len(d.krs)]
		}
	}
}

// strings reads a count and that many strings: when filling, as a window
// of the strs slab (nil for an empty list); when counting, into nstrs.
func (d *decoder) strings(what string) []string {
	n := d.count(what)
	d.nstrs += n
	start := len(d.strs)
	for j := 0; j < n && d.err == nil; j++ {
		if s := d.str(); d.c != nil {
			d.strs = append(d.strs, s)
		}
	}
	if len(d.strs) == start {
		return nil
	}
	return d.strs[start:len(d.strs):len(d.strs)]
}

func (d *decoder) readLen(term byte) int {
	if d.err != nil {
		return 0
	}
	start := d.pos
	for d.pos < len(d.s) && d.s[d.pos] != term {
		d.pos++
	}
	if d.pos >= len(d.s) {
		d.err = fmt.Errorf("efind: corrupt carrier: missing %q at %d", term, start)
		return 0
	}
	n, err := strconv.Atoi(d.s[start:d.pos])
	if err != nil || n < 0 {
		d.err = fmt.Errorf("efind: corrupt carrier: bad length at %d", start)
		return 0
	}
	d.pos++ // skip terminator
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
		d.err = fmt.Errorf("efind: corrupt carrier: string overruns input at %d", d.pos)
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
		d.err = fmt.Errorf("efind: corrupt carrier: %d %s", n, what)
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
